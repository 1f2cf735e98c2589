package sqlparser

import (
	"math"
	"strings"
	"testing"

	"pdwqo/internal/types"
)

func mustSelect(t *testing.T, sql string) *SelectStmt {
	t.Helper()
	sel, err := ParseSelect(sql)
	if err != nil {
		t.Fatalf("parse %q: %v", sql, err)
	}
	return sel
}

func TestSimpleSelect(t *testing.T) {
	sel := mustSelect(t, "SELECT c_custkey, o_orderdate FROM Orders, Customer WHERE o_custkey = c_custkey AND o_totalprice > 100")
	if len(sel.Items) != 2 || len(sel.From) != 2 {
		t.Fatalf("shape: %+v", sel)
	}
	and, ok := sel.Where.(*BinExpr)
	if !ok || and.Op != OpAnd {
		t.Fatalf("where: %T", sel.Where)
	}
	eq := and.L.(*BinExpr)
	if eq.Op != OpEq || eq.L.(*ColRef).Name != "o_custkey" {
		t.Errorf("join predicate: %s", FormatExpr(eq))
	}
	gt := and.R.(*BinExpr)
	if gt.Op != OpGt || gt.R.(*Lit).Value.Int() != 100 {
		t.Errorf("filter: %s", FormatExpr(gt))
	}
}

func TestSelectStarAndAliases(t *testing.T) {
	sel := mustSelect(t, "SELECT * FROM CUSTOMER C, ORDERS O WHERE C.C_CUSTKEY = O.O_CUSTKEY")
	if !sel.Items[0].Star {
		t.Error("star item")
	}
	tn := sel.From[0].(*TableName)
	if tn.Name != "CUSTOMER" || tn.Alias != "C" {
		t.Errorf("alias: %+v", tn)
	}
	sel = mustSelect(t, "SELECT o.* , c_name customer_name FROM orders o, customer AS c")
	if !sel.Items[0].Star || sel.Items[0].Table != "o" {
		t.Errorf("qualified star: %+v", sel.Items[0])
	}
	if sel.Items[1].Alias != "customer_name" {
		t.Errorf("bare alias: %+v", sel.Items[1])
	}
}

func TestExplicitJoins(t *testing.T) {
	sel := mustSelect(t, `SELECT a.x FROM a INNER JOIN b ON a.id = b.id LEFT OUTER JOIN c ON b.id = c.id`)
	j := sel.From[0].(*JoinRef)
	if j.Kind != JoinLeft {
		t.Fatalf("outer join kind: %v", j.Kind)
	}
	inner := j.Left.(*JoinRef)
	if inner.Kind != JoinInner || inner.On == nil {
		t.Fatalf("inner join: %+v", inner)
	}
	sel = mustSelect(t, "SELECT 1 FROM a CROSS JOIN b")
	if sel.From[0].(*JoinRef).Kind != JoinCross {
		t.Error("cross join")
	}
}

func TestBracketQuotedNames(t *testing.T) {
	sel := mustSelect(t, "SELECT T1.n_name FROM [tpch].[dbo].[nation] AS T1")
	tn := sel.From[0].(*TableName)
	if tn.Name != "nation" || tn.Alias != "T1" {
		t.Errorf("bracketed name: %+v", tn)
	}
}

func TestDerivedTable(t *testing.T) {
	sel := mustSelect(t, "SELECT t.a FROM (SELECT x AS a FROM base GROUP BY x) AS t WHERE t.a > 5")
	dt := sel.From[0].(*DerivedTable)
	if dt.Alias != "t" || len(dt.Select.GroupBy) != 1 {
		t.Fatalf("derived: %+v", dt)
	}
	if _, err := ParseSelect("SELECT 1 FROM (SELECT 1 FROM t)"); err == nil {
		t.Error("derived table without alias must error")
	}
}

func TestSubqueryPredicates(t *testing.T) {
	sel := mustSelect(t, `SELECT s_name FROM supplier WHERE s_suppkey IN (SELECT ps_suppkey FROM partsupp) AND EXISTS (SELECT 1 FROM nation) AND NOT EXISTS (SELECT 2 FROM region)`)
	and1 := sel.Where.(*BinExpr)
	and2 := and1.L.(*BinExpr)
	in := and2.L.(*InExpr)
	if in.Select == nil || in.Negated {
		t.Errorf("IN subquery: %+v", in)
	}
	ex := and2.R.(*ExistsExpr)
	if ex.Negated {
		t.Error("EXISTS")
	}
	notEx, ok := and1.R.(*NotExpr)
	if !ok {
		t.Fatalf("NOT EXISTS should parse as NOT(EXISTS): %T", and1.R)
	}
	if _, ok := notEx.E.(*ExistsExpr); !ok {
		t.Error("inner exists")
	}
}

func TestInList(t *testing.T) {
	sel := mustSelect(t, "SELECT a FROM t WHERE a IN (1, 2, 3) AND b NOT IN (4)")
	and := sel.Where.(*BinExpr)
	in := and.L.(*InExpr)
	if len(in.List) != 3 || in.Negated {
		t.Errorf("in list: %+v", in)
	}
	nin := and.R.(*InExpr)
	if !nin.Negated || len(nin.List) != 1 {
		t.Errorf("not in: %+v", nin)
	}
}

func TestScalarSubqueryComparison(t *testing.T) {
	sel := mustSelect(t, "SELECT a FROM t WHERE a > (SELECT MAX(b) FROM u)")
	cmp := sel.Where.(*BinExpr)
	if cmp.Op != OpGt {
		t.Fatal("op")
	}
	sq := cmp.R.(*SubqueryExpr)
	if f := sq.Select.Items[0].Expr.(*FuncExpr); f.Name != "MAX" || !f.IsAggregate() {
		t.Errorf("aggregate: %+v", f)
	}
}

func TestBetweenLikeIsNull(t *testing.T) {
	sel := mustSelect(t, "SELECT a FROM t WHERE a BETWEEN 1 AND 10 AND b NOT BETWEEN 2 AND 3 AND c LIKE 'forest%' AND d IS NOT NULL AND e IS NULL")
	s := FormatExpr(sel.Where)
	for _, want := range []string{"BETWEEN 1 AND 10", "NOT BETWEEN 2 AND 3", "LIKE 'forest%'", "IS NOT NULL", "IS NULL"} {
		if !strings.Contains(s, want) {
			t.Errorf("missing %q in %s", want, s)
		}
	}
}

func TestAggregatesAndGroupBy(t *testing.T) {
	sel := mustSelect(t, `SELECT l_returnflag, SUM(l_quantity) AS sum_qty, COUNT(*) AS cnt, AVG(l_discount), COUNT(DISTINCT l_suppkey) FROM lineitem GROUP BY l_returnflag HAVING SUM(l_quantity) > 100 ORDER BY l_returnflag DESC`)
	if len(sel.GroupBy) != 1 || sel.Having == nil {
		t.Fatal("group by / having")
	}
	cnt := sel.Items[2].Expr.(*FuncExpr)
	if !cnt.Star || cnt.Name != "COUNT" {
		t.Errorf("count(*): %+v", cnt)
	}
	cd := sel.Items[4].Expr.(*FuncExpr)
	if !cd.Distinct {
		t.Errorf("count distinct: %+v", cd)
	}
	if !sel.OrderBy[0].Desc {
		t.Error("order desc")
	}
}

func TestTopAndDistinct(t *testing.T) {
	sel := mustSelect(t, "SELECT DISTINCT TOP 10 a FROM t ORDER BY a")
	if !sel.Distinct || sel.Top != 10 {
		t.Errorf("distinct/top: %+v", sel)
	}
	sel = mustSelect(t, "SELECT a FROM t LIMIT 5")
	if sel.Top != 5 {
		t.Error("limit")
	}
}

func TestArithmeticPrecedence(t *testing.T) {
	sel := mustSelect(t, "SELECT a + b * c - d / 2 FROM t")
	got := FormatExpr(sel.Items[0].Expr)
	if got != "((a + (b * c)) - (d / 2))" {
		t.Errorf("precedence: %s", got)
	}
	sel = mustSelect(t, "SELECT (a + b) * c FROM t")
	if got := FormatExpr(sel.Items[0].Expr); got != "((a + b) * c)" {
		t.Errorf("parens: %s", got)
	}
}

func TestLogicalPrecedence(t *testing.T) {
	sel := mustSelect(t, "SELECT 1 FROM t WHERE a = 1 OR b = 2 AND c = 3")
	or := sel.Where.(*BinExpr)
	if or.Op != OpOr {
		t.Fatal("OR should be top")
	}
	if or.R.(*BinExpr).Op != OpAnd {
		t.Error("AND binds tighter")
	}
	sel = mustSelect(t, "SELECT 1 FROM t WHERE NOT a = 1 AND b = 2")
	and := sel.Where.(*BinExpr)
	if and.Op != OpAnd {
		t.Fatal("NOT binds tighter than AND")
	}
	if _, ok := and.L.(*NotExpr); !ok {
		t.Error("left should be NOT")
	}
}

func TestLiterals(t *testing.T) {
	sel := mustSelect(t, "SELECT 42, 2.5, 'text', NULL, TRUE, DATE '1994-01-01', -7 FROM t")
	vals := make([]types.Value, len(sel.Items))
	for i, it := range sel.Items {
		vals[i] = it.Expr.(*Lit).Value
	}
	if vals[0].Int() != 42 || vals[1].Float() != 2.5 || vals[2].Str() != "text" {
		t.Error("basic literals")
	}
	if !vals[3].IsNull() || !vals[4].Bool() {
		t.Error("null/bool")
	}
	if vals[5].Kind() != types.KindDate || vals[5].String() != "1994-01-01" {
		t.Error("date literal")
	}
	if vals[6].Int() != -7 {
		t.Error("negative literal folding")
	}
}

func TestStringEscapes(t *testing.T) {
	sel := mustSelect(t, "SELECT 'o''brien' FROM t")
	if got := sel.Items[0].Expr.(*Lit).Value.Str(); got != "o'brien" {
		t.Errorf("escape: %q", got)
	}
}

func TestDateAddAndCast(t *testing.T) {
	sel := mustSelect(t, "SELECT DATEADD(year, 1, '1994-01-01'), CAST('1994-01-01' AS DATE), CAST(0.5 AS DECIMAL(1,1)) FROM t")
	da := sel.Items[0].Expr.(*FuncExpr)
	if da.Name != "DATEADD" || len(da.Args) != 3 {
		t.Fatalf("dateadd: %+v", da)
	}
	if da.Args[0].(*Lit).Value.Str() != "year" {
		t.Error("date part as literal")
	}
	c := sel.Items[1].Expr.(*CastExpr)
	if c.To != types.KindDate {
		t.Error("cast to date")
	}
	if sel.Items[2].Expr.(*CastExpr).To != types.KindFloat {
		t.Error("decimal maps to float")
	}
}

func TestCaseExpr(t *testing.T) {
	sel := mustSelect(t, "SELECT CASE WHEN a > 1 THEN 'big' WHEN a = 1 THEN 'one' ELSE 'small' END FROM t")
	ce := sel.Items[0].Expr.(*CaseExpr)
	if len(ce.Whens) != 2 || ce.Else == nil {
		t.Errorf("case: %+v", ce)
	}
}

func TestComments(t *testing.T) {
	sel := mustSelect(t, `SELECT a -- trailing comment
	FROM t /* block
	comment */ WHERE a > 1`)
	if sel.Where == nil {
		t.Error("comments must be skipped")
	}
}

func TestPaperSection24Query(t *testing.T) {
	// The exact query from the paper's DSQL plan example.
	sel := mustSelect(t, `SELECT c_custkey, o_orderdate FROM Orders, Customer WHERE o_custkey = c_custkey AND o_totalprice > 100`)
	if len(sel.From) != 2 {
		t.Fatal("two tables")
	}
}

// TPC-H Q20, verbatim from the paper (§4 Figure 7).
const q20 = `
select s_name, s_address
from supplier, nation
where s_suppkey in (
    select ps_suppkey
    from partsupp
    where ps_partkey in (
        select p_partkey
        from part
        where p_name like 'forest%'
    )
    and ps_availqty > (
        select 0.5 * sum(l_quantity)
        from lineitem
        where l_partkey = ps_partkey
          and l_suppkey = ps_suppkey
          and l_shipdate >= '1994-01-01'
          and l_shipdate < DATEADD(year, 1, '1994-01-01')
    )
)
and s_nationkey = n_nationkey
and n_name = 'CANADA'
order by s_name;`

func TestQ20Parses(t *testing.T) {
	sel := mustSelect(t, q20)
	if len(sel.From) != 2 || len(sel.OrderBy) != 1 {
		t.Fatal("outer shape")
	}
	// Outer WHERE: (IN AND eq) AND eq — left-assoc AND chain.
	top := sel.Where.(*BinExpr)
	if top.Op != OpAnd {
		t.Fatal("top AND")
	}
	inner := top.L.(*BinExpr)
	in := inner.L.(*InExpr)
	if in.Select == nil {
		t.Fatal("SQ1")
	}
	// SQ1's WHERE holds a nested IN (SQ2) and a scalar subquery comparison (SQ3).
	sq1 := in.Select
	w := sq1.Where.(*BinExpr)
	if w.Op != OpAnd {
		t.Fatal("SQ1 where")
	}
	if w.L.(*InExpr).Select == nil {
		t.Error("SQ2 missing")
	}
	cmp := w.R.(*BinExpr)
	if cmp.Op != OpGt {
		t.Error("availqty comparison")
	}
	sq3 := cmp.R.(*SubqueryExpr).Select
	mul := sq3.Items[0].Expr.(*BinExpr)
	if mul.Op != OpMul {
		t.Error("0.5 * sum")
	}
	if f := mul.R.(*FuncExpr); f.Name != "SUM" {
		t.Error("sum aggregate")
	}
}

func TestCreateTable(t *testing.T) {
	stmt, err := Parse(`CREATE TABLE orders (
		o_orderkey BIGINT PRIMARY KEY,
		o_custkey BIGINT NOT NULL,
		o_totalprice DECIMAL(15,2),
		o_orderdate DATE,
		o_comment VARCHAR(79)
	) WITH (DISTRIBUTION = HASH(o_orderkey))`)
	if err != nil {
		t.Fatal(err)
	}
	ct := stmt.(*CreateTableStmt)
	if ct.Name != "orders" || len(ct.Columns) != 5 {
		t.Fatalf("shape: %+v", ct)
	}
	if ct.Replicated || ct.HashColumn != "o_orderkey" {
		t.Errorf("distribution: %+v", ct)
	}
	if len(ct.PrimaryKey) != 1 || ct.PrimaryKey[0] != "o_orderkey" {
		t.Errorf("pk: %+v", ct.PrimaryKey)
	}
	if ct.Columns[2].Type != types.KindFloat || ct.Columns[4].Type != types.KindString {
		t.Error("column types")
	}
}

func TestCreateTableReplicate(t *testing.T) {
	stmt, err := Parse(`CREATE TABLE nation (n_nationkey INT, n_name CHAR(25), PRIMARY KEY (n_nationkey)) WITH (DISTRIBUTION = REPLICATE)`)
	if err != nil {
		t.Fatal(err)
	}
	ct := stmt.(*CreateTableStmt)
	if !ct.Replicated || len(ct.PrimaryKey) != 1 {
		t.Errorf("%+v", ct)
	}
	// Default distribution is replicate.
	stmt, err = Parse(`CREATE TABLE r (x INT)`)
	if err != nil {
		t.Fatal(err)
	}
	if !stmt.(*CreateTableStmt).Replicated {
		t.Error("default replicate")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"UPDATE t SET a = 1",
		"SELECT",
		"SELECT a FROM",
		"SELECT a FROM t WHERE",
		"SELECT a FROM t GROUP",
		"SELECT a FROM t extra_token_here_with (",
		"SELECT a FROM t WHERE a NOT 5",
		"SELECT a FROM (SELECT b FROM u)",
		"SELECT 'unterminated FROM t",
		"SELECT [unterminated FROM t",
		"SELECT a FROM t WHERE a IN (1,",
		"SELECT CASE a WHEN 1 THEN 2 END FROM t",
		"CREATE TABLE t (a FROBNICATE)",
		"CREATE TABLE t (a INT) WITH (DISTRIBUTION = ROUNDROBIN)",
		"SELECT a FROM t; SELECT b FROM u",
	}
	for _, sql := range bad {
		if _, err := Parse(sql); err == nil {
			t.Errorf("expected error for %q", sql)
		}
	}
}

func TestErrorPositions(t *testing.T) {
	_, err := Parse("SELECT a\nFROM t WHERE ^")
	if err == nil || !strings.Contains(err.Error(), "sql:2:") {
		t.Errorf("want line info, got %v", err)
	}
}

func TestSemicolonOptional(t *testing.T) {
	mustSelect(t, "SELECT 1 FROM t;")
	mustSelect(t, "SELECT 1 FROM t")
}

func TestUnionAllParsing(t *testing.T) {
	sel := mustSelect(t, `SELECT a FROM t UNION ALL SELECT b FROM u UNION ALL SELECT c FROM v ORDER BY a`)
	if sel.Union == nil || sel.Union.Union == nil {
		t.Fatal("three-branch union")
	}
	if len(sel.OrderBy) != 0 || len(sel.Union.Union.OrderBy) != 1 {
		t.Error("ORDER BY belongs to the final branch")
	}
	// Union inside a derived table.
	sel = mustSelect(t, `SELECT x FROM (SELECT a AS x FROM t UNION ALL SELECT b FROM u) q`)
	dt := sel.From[0].(*DerivedTable)
	if dt.Select.Union == nil {
		t.Error("union in derived table")
	}
	if _, err := Parse("SELECT a FROM t UNION SELECT b FROM u"); err == nil {
		t.Error("bare UNION (distinct) must be rejected")
	}
}

// TestParseLiteralIsOneLiteral: ParseLiteral reads what the parser reads
// as one literal, a number optionally signed, and nothing around it: a
// blank or a comment beside the literal would let spliced text swallow
// the rest of a statement.
func TestParseLiteralIsOneLiteral(t *testing.T) {
	for _, text := range []string{
		"1 -- x", " 5", "5 ", "1/**/", "/**/1", "- 5", "--5", "+-5", "-'a'",
		"-", "", "NULL", "1+2", "-9223372036854775808", "0x1p3", "1e", "1.5.2",
	} {
		if v, ok := ParseLiteral(text); ok {
			t.Errorf("ParseLiteral(%q) = %v, want refused", text, v)
		}
	}
	for text, want := range map[string]types.Value{
		"7":                    types.NewInt(7),
		"-7":                   types.NewInt(-7),
		"+7":                   types.NewInt(7),
		"-9223372036854775807": types.NewInt(-9223372036854775807),
		"-1.5":                 types.NewFloat(-1.5),
		"-0.0":                 types.NewFloat(math.Copysign(0, -1)),
		"1e+06":                types.NewFloat(1e6),
		".5":                   types.NewFloat(0.5),
		"'a''b'":               types.NewString("a'b"),
	} {
		v, ok := ParseLiteral(text)
		if !ok || v.Kind() != want.Kind() || v.String() != want.String() {
			t.Errorf("ParseLiteral(%q) = %v, %v; want %v", text, v, ok, want)
		}
		// The parser folds the same sign into the same value.
		sel := mustSelect(t, "SELECT "+text+" AS x FROM t")
		if lit, isLit := sel.Items[0].Expr.(*Lit); !isLit || lit.Value.String() != want.String() {
			t.Errorf("parser reads %q as %#v, want %v", text, sel.Items[0].Expr, want)
		}
	}
}

// TestLexMarker: Lex reports a parameter marker as TokenMarker carrying
// its slot, spanning the whole marker.
func TestLexMarker(t *testing.T) {
	src := "a = " + Marker(12) + " AND b"
	toks, err := Lex(src)
	if err != nil {
		t.Fatal(err)
	}
	m := toks[2]
	if m.Kind != TokenMarker || m.Text != "12" || src[m.Pos:m.End] != Marker(12) {
		t.Fatalf("marker lexes as %+v", m)
	}
}
