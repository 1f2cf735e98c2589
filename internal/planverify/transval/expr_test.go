package transval

import (
	"strings"
	"testing"

	"pdwqo/internal/algebra"
	"pdwqo/internal/core"
	"pdwqo/internal/sqlparser"
	"pdwqo/internal/types"
)

// mixedTemp is a boundary with one column per kind, c2 nullable, so
// expression tests can reach every type/nullability branch.
func mixedTemp() *absRel {
	return &absRel{
		dist: core.Distribution{Kind: core.DistHash, Cols: algebra.NewColSet(1)},
		cols: []absCol{
			{ID: 1, Type: types.KindInt, Origins: map[string]struct{}{"t.a": {}}},
			{ID: 2, Type: types.KindFloat, Nullable: true, Origins: map[string]struct{}{"t.b": {}}},
			{ID: 3, Type: types.KindString, Origins: map[string]struct{}{"t.c": {}}},
			{ID: 4, Type: types.KindDate, Origins: map[string]struct{}{"t.d": {}}},
		},
	}
}

// exprScope parses a WHERE expression in the context of the mixed temp
// and hands back the interpreter, scope, and expression tree.
func exprScope(t *testing.T, whereSQL string) (*sqlInterp, *scope, sqlparser.Expr) {
	t.Helper()
	si := &sqlInterp{
		shell:     fuzzShell(),
		temps:     map[string]*absRel{"TEMP_M": mixedTemp()},
		slotKinds: map[int]types.Kind{0: types.KindInt, 1: types.KindDate},
		acc:       newFragAcc(),
	}
	bf, err := si.bindRef(&sqlparser.TableName{Name: "TEMP_M"})
	if err != nil {
		t.Fatal(err)
	}
	sel := mustSelect(t, "SELECT c1 FROM [tempdb].[TEMP_M] WHERE "+whereSQL)
	return si, &scope{items: bf.items}, sel.Where
}

func TestExprTypeBranches(t *testing.T) {
	cases := []struct {
		where string
		want  types.Kind
	}{
		{"(c1 + 1) = 1", types.KindBool},
		{"c3 LIKE 'a%'", types.KindBool},
		{"NOT (c1 = 1)", types.KindBool},
		{"c1 IN (1, 2)", types.KindBool},
		{"c1 IS NULL", types.KindBool},
	}
	for _, c := range cases {
		si, sc, e := exprScope(t, c.where)
		if k, err := si.exprType(e, sc); err != nil || k != c.want {
			t.Errorf("%q type = %v, %v", c.where, k, err)
		}
	}

	// Value sub-expressions: arithmetic widening, division, NULL erasure,
	// params, CASE, CAST, functions.
	valueCases := []struct {
		where string // comparison whose left side is probed
		want  types.Kind
	}{
		{"(c1 + 1) = 1", types.KindInt},
		{"(c1 + c2) = 1", types.KindFloat},
		{"(c1 / c1) = 1", types.KindFloat},
		{"(NULL + c1) = 1", types.KindInt},
		{"(c1 * \x00?0\x00) = 1", types.KindInt},
		{"CASE WHEN c1 = 1 THEN c2 ELSE c2 END = 1", types.KindFloat},
		{"CASE WHEN c1 = 1 THEN NULL ELSE c3 END = 'x'", types.KindString},
		{"CAST(c1 AS FLOAT) = 1", types.KindFloat},
		{"DATEADD(dd, 1, c4) = c4", types.KindDate},
		{"YEAR(c4) = 1", types.KindInt},
		{"SUBSTRING(c3, 1, 2) = 'x'", types.KindString},
		{"-c2 = 1", types.KindFloat},
	}
	for _, c := range valueCases {
		si, sc, e := exprScope(t, c.where)
		bin, ok := e.(*sqlparser.BinExpr)
		if !ok {
			t.Fatalf("%q did not parse to a comparison", c.where)
		}
		if k, err := si.exprType(bin.L, sc); err != nil || k != c.want {
			t.Errorf("%q left type = %v, %v; want %v", c.where, k, err, c.want)
		}
	}
}

func TestExprNullableBranches(t *testing.T) {
	cases := []struct {
		where string
		want  bool
	}{
		{"c1 = 1", false},
		{"c2 = 1", true},
		{"(c1 + c2) = 1", true},
		{"NOT (c2 = 1)", true},
		{"-c2 = 1", true},
		{"c2 IS NULL", false},
		{"c3 LIKE 'a%'", false},
		{"c2 IN (1, 2)", true},
		{"c1 IN (1, 2)", false},
		{"YEAR(c4) = 1", false},
		{"DATEADD(dd, 1, c4) = c4", false},
		{"CASE WHEN c1 = 1 THEN c2 ELSE c1 END = 1", true},
		{"CASE WHEN c1 = 1 THEN c1 END = 1", true},
		{"CASE WHEN c1 = 1 THEN c1 ELSE c1 END = 1", false},
		{"CAST(c2 AS BIGINT) = 1", true},
		{"c1 = \x00?0\x00", false},
	}
	for _, c := range cases {
		si, sc, e := exprScope(t, c.where)
		probe := e
		// For comparisons, nullability of the whole 3VL expression is the
		// OR of its operands; probe the full conjunct.
		if got, err := si.exprNullable(probe, sc); err != nil || got != c.want {
			t.Errorf("%q nullable = %v, %v; want %v", c.where, got, err, c.want)
		}
	}
}

func TestKillDepsBranches(t *testing.T) {
	cases := []struct {
		where string
		kills int
	}{
		{"(c1 + c2) > 1", 2}, // arithmetic: both operands are deps
		{"-c1 > 1", 1},       // negation passes through
		{"CAST(c1 AS FLOAT) > 1", 1},
		{"YEAR(c4) > 1", 1},                             // function args
		{"(c1 = 1) = (c2 = 1)", 0},                      // nested comparisons yield no deps
		{"CASE WHEN c1 = 1 THEN c1 ELSE c1 END > 1", 0}, // CASE masks NULLs
	}
	for _, c := range cases {
		si, sc, e := exprScope(t, c.where)
		kills, err := si.killConjExpr(e, sc)
		if err != nil || len(kills) != c.kills {
			t.Errorf("%q kills = %d, %v; want %d", c.where, len(kills), err, c.kills)
		}
	}
}

func TestCanonExprBranches(t *testing.T) {
	cases := []struct {
		where string
		want  string
	}{
		{"NOT (c1 = 1)", "NOT ((1 = c1))"},
		{"c1 IS NOT NULL", "c1 IS NOT NULL"},
		{"c3 NOT LIKE 'a%'", "c3 NOT LIKE 'a%'"},
		{"c1 NOT IN (1, 2)", "c1 NOT IN (1, 2)"},
		{"c1 = \x00?0\x00", "(?0 = c1)"},
		{"YEAR(c4) = 1", "(1 = YEAR(c4))"},
		{"CASE WHEN c1 = 1 THEN c1 ELSE c1 END = 1", "(1 = CASE WHEN (1 = c1) THEN c1 ELSE c1 END)"},
		{"CAST(c1 AS DATE) = c4", "(CAST(c1 AS DATE) = c4)"},
		{"-c1 = 1", "((-c1) = 1)"},
	}
	for _, c := range cases {
		si, sc, e := exprScope(t, c.where)
		got, err := si.canonExpr(e, sc)
		if err != nil || got != c.want {
			t.Errorf("%q canon = %q, %v; want %q", c.where, got, err, c.want)
		}
	}

	// Aggregates inside predicates are generator-impossible: reject.
	si, sc, e := exprScope(t, "SUM(c1) > 1")
	if _, err := si.canonExpr(e, sc); err == nil {
		t.Error("aggregate in predicate must not canonicalize")
	}
}

func TestValueBearing(t *testing.T) {
	cases := []struct {
		where string
		want  bool
	}{
		{"1 = 0", false},
		{"c1 = 1", true},
		{"1 = \x00?0\x00", true},
		{"NOT (1 = 0)", false},
		{"YEAR('1994-01-01') = 1994", false},
		{"1 BETWEEN 0 AND c1", true},
	}
	for _, c := range cases {
		si, _, e := exprScope(t, c.where)
		if got := si.valueBearing(e); got != c.want {
			t.Errorf("%q valueBearing = %v, want %v", c.where, got, c.want)
		}
	}
}

func TestAggItems(t *testing.T) {
	si := &sqlInterp{
		shell:     fuzzShell(),
		temps:     map[string]*absRel{"TEMP_M": mixedTemp()},
		slotKinds: map[int]types.Kind{},
		acc:       newFragAcc(),
	}
	rel, err := si.selectRel(mustSelect(t,
		"SELECT MIN(c1) AS c9, MAX(c2) AS c10, COUNT(c2) AS c11, COUNT(*) AS c12, SUM(c2) AS c13 FROM [tempdb].[TEMP_M]"),
		nil, false, false)
	if err != nil {
		t.Fatal(err)
	}
	// Keyless aggregates: MIN/MAX/SUM nullable, COUNT never.
	for i, wantNullable := range []bool{true, true, false, false, true} {
		if rel.cols[i].Nullable != wantNullable {
			t.Errorf("col %d nullable = %v, want %v", i, rel.cols[i].Nullable, wantNullable)
		}
	}
	if rel.cols[0].Type != types.KindInt || rel.cols[1].Type != types.KindFloat {
		t.Errorf("agg types = %v, %v", rel.cols[0].Type, rel.cols[1].Type)
	}
	if rel.cols[2].Type != types.KindInt || rel.cols[3].Type != types.KindInt {
		t.Error("COUNT must be BIGINT")
	}

	// Keyed: MIN over a non-nullable column is non-nullable.
	rel, err = si.selectRel(mustSelect(t,
		"SELECT c1, MIN(c3) AS c9, SUM(c1) AS c10 FROM [tempdb].[TEMP_M] GROUP BY c1"),
		nil, false, false)
	if err != nil {
		t.Fatal(err)
	}
	if rel.cols[1].Nullable || rel.cols[2].Nullable {
		t.Error("keyed aggregates over non-null args must be non-nullable")
	}

	// Aggregate arithmetic in a projected item (the AVG decomposition).
	rel, err = si.selectRel(mustSelect(t,
		"SELECT (SUM(c1) / COUNT(c1)) AS c9 FROM [tempdb].[TEMP_M]"),
		nil, false, false)
	if err != nil {
		t.Fatal(err)
	}
	if rel.cols[0].Type != types.KindFloat {
		t.Errorf("avg decomposition type = %v", rel.cols[0].Type)
	}
}

func TestScalarHelpersMore(t *testing.T) {
	look := lookupOf(
		absCol{ID: 1, Type: types.KindInt, Origins: map[string]struct{}{"t.a": {}}},
		absCol{ID: 2, Type: types.KindFloat, Nullable: true, Origins: map[string]struct{}{"t.b": {}}},
	)
	c1, c2 := col(1, types.KindInt), col(2, types.KindFloat)
	lit := func(v types.Value) *algebra.Const { return &algebra.Const{Val: v} }

	add := &algebra.Binary{Op: sqlparser.OpAdd, L: c1, R: lit(types.NewInt(1))}
	if typeOfScalar(add, look) != types.KindInt {
		t.Error("int + int")
	}
	widen := &algebra.Binary{Op: sqlparser.OpAdd, L: c1, R: c2}
	if typeOfScalar(widen, look) != types.KindFloat {
		t.Error("int + float widens")
	}
	div := &algebra.Binary{Op: binOpDiv, L: c1, R: c1}
	if typeOfScalar(div, look) != types.KindFloat {
		t.Error("division is float")
	}
	nullL := &algebra.Binary{Op: sqlparser.OpAdd, L: lit(types.Null), R: c1}
	if typeOfScalar(nullL, look) != types.KindInt {
		t.Error("NULL operand defers to the other side")
	}
	not := &algebra.Not{E: &algebra.Binary{Op: sqlparser.OpEq, L: c2, R: lit(types.NewInt(1))}}
	if typeOfScalar(not, look) != types.KindBool {
		t.Error("NOT is bool")
	}
	if !nullableScalar(not, look) {
		t.Error("NOT over nullable comparison is nullable")
	}
	if nullableScalar(&algebra.IsNull{E: c2}, look) {
		t.Error("IS NULL is never nullable")
	}
	if !nullableScalar(&algebra.Like{E: &algebra.Cast{E: c2, To: types.KindString}, Pattern: "%"}, look) {
		t.Error("LIKE over nullable subject is nullable")
	}
	inl := &algebra.InList{E: c1, List: []algebra.Scalar{c2}}
	if !nullableScalar(inl, look) {
		t.Error("IN with nullable member is nullable")
	}
	if nullableScalar(&algebra.Const{Val: types.NewInt(1), Param: 2}, look) {
		t.Error("parameterized const never re-binds to NULL")
	}
	fn := &algebra.Func{Name: "YEAR", Args: []algebra.Scalar{c1}, Out: types.KindInt}
	if nullableScalar(fn, look) {
		t.Error("function over non-null args is non-null")
	}

	// canonScalar: Not, InList, Case with else, negated Like/IsNull.
	if got := canonScalar(not); !strings.HasPrefix(got, "NOT (") {
		t.Errorf("not canon = %s", got)
	}
	if got := canonScalar(inl); !strings.Contains(got, "IN (c2)") {
		t.Errorf("inlist canon = %s", got)
	}
	nin := &algebra.InList{E: c1, List: []algebra.Scalar{lit(types.NewInt(1))}, Negated: true}
	if got := canonScalar(nin); !strings.Contains(got, "NOT IN") {
		t.Errorf("not-in canon = %s", got)
	}
	caseE := &algebra.Case{Whens: []algebra.CaseWhen{
		{Cond: &algebra.IsNull{E: c2, Negated: true}, Then: c2}}, Else: lit(types.NewFloat(0))}
	got := canonScalar(caseE)
	if !strings.Contains(got, "WHEN c2 IS NOT NULL THEN c2 ELSE 0") {
		t.Errorf("case canon = %s", got)
	}
	nlike := &algebra.Like{E: c1, Pattern: "x", Negated: true}
	if got := canonScalar(nlike); !strings.Contains(got, "NOT LIKE 'x'") {
		t.Errorf("negated like canon = %s", got)
	}
	negRef := &algebra.Neg{E: c1}
	if got := canonScalar(negRef); got != "(-c1)" {
		t.Errorf("neg colref canon = %s", got)
	}

	// typeOfScalar CASE fallbacks.
	nullCase := &algebra.Case{Whens: []algebra.CaseWhen{{Cond: not, Then: lit(types.Null)}}, Else: c1}
	if typeOfScalar(nullCase, look) != types.KindInt {
		t.Error("CASE skips NULL arms to the else type")
	}
	bare := &algebra.Case{Whens: []algebra.CaseWhen{{Cond: not, Then: lit(types.Null)}}}
	if typeOfScalar(bare, look) != types.KindNull {
		t.Error("all-NULL CASE is NULL-typed")
	}

	// nullDeps pass-throughs.
	if nd := nullDeps(&algebra.Neg{E: c1}); !nd.Has(1) {
		t.Error("neg null deps")
	}
	if nd := nullDeps(&algebra.Cast{E: c1, To: types.KindFloat}); !nd.Has(1) {
		t.Error("cast null deps")
	}
	if nd := nullDeps(fn); !nd.Has(1) {
		t.Error("func null deps")
	}
	if nd := nullDeps(add); !nd.Has(1) {
		t.Error("arithmetic null deps")
	}
}
