package algebra

import (
	"strings"
	"testing"

	"pdwqo/internal/catalog"
	"pdwqo/internal/sqlparser"
	"pdwqo/internal/types"
)

// testShell builds a miniature TPC-H shell database with the paper's
// partitioning: customer→c_custkey, orders→o_orderkey, lineitem→l_orderkey,
// nation replicated.
func testShell(t *testing.T) *catalog.Shell {
	t.Helper()
	s := catalog.NewShell(8)
	add := func(tbl *catalog.Table) {
		t.Helper()
		if err := s.AddTable(tbl); err != nil {
			t.Fatal(err)
		}
	}
	add(&catalog.Table{
		Name: "customer",
		Columns: []catalog.Column{
			{Name: "c_custkey", Type: types.KindInt},
			{Name: "c_name", Type: types.KindString},
			{Name: "c_nationkey", Type: types.KindInt},
			{Name: "c_acctbal", Type: types.KindFloat},
		},
		PrimaryKey: []string{"c_custkey"},
		Dist:       catalog.Distribution{Kind: catalog.DistHash, Column: "c_custkey"},
	})
	add(&catalog.Table{
		Name: "orders",
		Columns: []catalog.Column{
			{Name: "o_orderkey", Type: types.KindInt},
			{Name: "o_custkey", Type: types.KindInt},
			{Name: "o_totalprice", Type: types.KindFloat},
			{Name: "o_orderdate", Type: types.KindDate},
		},
		PrimaryKey: []string{"o_orderkey"},
		Dist:       catalog.Distribution{Kind: catalog.DistHash, Column: "o_orderkey"},
	})
	add(&catalog.Table{
		Name: "lineitem",
		Columns: []catalog.Column{
			{Name: "l_orderkey", Type: types.KindInt},
			{Name: "l_partkey", Type: types.KindInt},
			{Name: "l_suppkey", Type: types.KindInt},
			{Name: "l_quantity", Type: types.KindFloat},
			{Name: "l_shipdate", Type: types.KindDate},
		},
		Dist: catalog.Distribution{Kind: catalog.DistHash, Column: "l_orderkey"},
	})
	add(&catalog.Table{
		Name: "nation",
		Columns: []catalog.Column{
			{Name: "n_nationkey", Type: types.KindInt},
			{Name: "n_name", Type: types.KindString},
		},
		PrimaryKey: []string{"n_nationkey"},
		Dist:       catalog.Distribution{Kind: catalog.DistReplicated},
	})
	return s
}

func bindSQL(t *testing.T, sql string) *Tree {
	t.Helper()
	sel, err := sqlparser.ParseSelect(sql)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	tree, err := NewBinder(testShell(t)).Bind(sel)
	if err != nil {
		t.Fatalf("bind %q: %v", sql, err)
	}
	return tree
}

func bindErr(t *testing.T, sql string) error {
	t.Helper()
	sel, err := sqlparser.ParseSelect(sql)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	_, err = NewBinder(testShell(t)).Bind(sel)
	if err == nil {
		t.Fatalf("expected bind error for %q", sql)
	}
	return err
}

func TestBindSimple(t *testing.T) {
	tree := bindSQL(t, "SELECT c_name FROM customer WHERE c_acctbal > 100")
	// Project(Select(Get))
	if _, ok := tree.Op.(*Project); !ok {
		t.Fatalf("root: %T", tree.Op)
	}
	sel := tree.Children[0]
	if _, ok := sel.Op.(*Select); !ok {
		t.Fatalf("child: %T", sel.Op)
	}
	get := sel.Children[0].Op.(*Get)
	if get.Table.Name != "customer" {
		t.Error("table")
	}
	out := tree.OutputCols()
	if len(out) != 1 || out[0].Name != "c_name" || out[0].Type != types.KindString {
		t.Errorf("output: %+v", out)
	}
}

func TestBindStarAndQualifiers(t *testing.T) {
	tree := bindSQL(t, "SELECT * FROM customer c, orders o WHERE c.c_custkey = o.o_custkey")
	out := tree.OutputCols()
	if len(out) != 8 {
		t.Fatalf("star over join: %d cols", len(out))
	}
	tree = bindSQL(t, "SELECT o.* FROM customer c, orders o")
	if len(tree.OutputCols()) != 4 {
		t.Error("qualified star")
	}
}

func TestBindSelfJoinDistinctIDs(t *testing.T) {
	tree := bindSQL(t, "SELECT a.c_custkey, b.c_custkey FROM customer a, customer b WHERE a.c_custkey = b.c_custkey")
	out := tree.OutputCols()
	if out[0].ID == out[1].ID {
		t.Error("self-join must mint distinct column IDs")
	}
}

func TestBindExplicitJoins(t *testing.T) {
	tree := bindSQL(t, "SELECT c_name FROM customer c LEFT JOIN orders o ON c.c_custkey = o.o_custkey")
	j := tree.Children[0].Op.(*Join)
	if j.Kind != JoinLeftOuter || j.On == nil {
		t.Fatalf("join: %+v", j)
	}
	// RIGHT JOIN is rewritten by swapping inputs.
	tree = bindSQL(t, "SELECT c_name FROM orders o RIGHT JOIN customer c ON c.c_custkey = o.o_custkey")
	node := tree.Children[0]
	j = node.Op.(*Join)
	if j.Kind != JoinLeftOuter {
		t.Fatalf("right join not rewritten: %v", j.Kind)
	}
	if node.Children[0].Op.(*Get).Table.Name != "customer" {
		t.Error("right join should swap inputs")
	}
}

func TestBindGroupByAggregates(t *testing.T) {
	tree := bindSQL(t, `SELECT o_custkey, SUM(o_totalprice) total, COUNT(*) cnt
		FROM orders GROUP BY o_custkey HAVING SUM(o_totalprice) > 1000 ORDER BY total DESC`)
	// Sort(Project(Select(GroupBy(Get)))).
	sort := tree.Op.(*Sort)
	if len(sort.Keys) != 1 || !sort.Keys[0].Desc {
		t.Fatalf("sort: %+v", sort)
	}
	proj := tree.Children[0]
	having := proj.Children[0]
	if _, ok := having.Op.(*Select); !ok {
		t.Fatalf("having: %T", having.Op)
	}
	gb := having.Children[0].Op.(*GroupBy)
	if len(gb.Keys) != 1 || len(gb.Aggs) != 2 {
		t.Fatalf("groupby: %+v", gb)
	}
	// HAVING reuses the select list's SUM — still 2 aggregates.
	if gb.Aggs[0].Func != AggSum || gb.Aggs[1].Func != AggCount {
		t.Errorf("agg funcs: %+v", gb.Aggs)
	}
	if gb.Aggs[1].Arg != nil {
		t.Error("COUNT(*) has nil arg")
	}
}

func TestBindAvgRewrite(t *testing.T) {
	tree := bindSQL(t, "SELECT AVG(o_totalprice) FROM orders")
	var gb *GroupBy
	VisitTree(tree, func(n *Tree) {
		if g, ok := n.Op.(*GroupBy); ok {
			gb = g
		}
	})
	if gb == nil || len(gb.Aggs) != 2 {
		t.Fatalf("AVG must become SUM+COUNT: %+v", gb)
	}
	proj := tree.Op.(*Project)
	bin, ok := proj.Defs[0].Expr.(*Binary)
	if !ok || bin.Op != sqlparser.OpDiv {
		t.Errorf("projection should divide: %+v", proj.Defs[0].Expr)
	}
}

func TestBindScalarAggregateNoGroupBy(t *testing.T) {
	tree := bindSQL(t, "SELECT SUM(l_quantity) FROM lineitem")
	gb := tree.Children[0].Op.(*GroupBy)
	if len(gb.Keys) != 0 || len(gb.Aggs) != 1 {
		t.Fatalf("scalar agg: %+v", gb)
	}
}

func TestBindGroupByExpression(t *testing.T) {
	tree := bindSQL(t, "SELECT YEAR(o_orderdate), COUNT(*) FROM orders GROUP BY YEAR(o_orderdate)")
	var gb *GroupBy
	var pre *Project
	VisitTree(tree, func(n *Tree) {
		if g, ok := n.Op.(*GroupBy); ok {
			gb = g
			if p, ok := n.Children[0].Op.(*Project); ok {
				pre = p
			}
		}
	})
	if gb == nil || pre == nil {
		t.Fatal("computed group key needs a pre-projection")
	}
	if len(gb.Keys) != 1 {
		t.Fatalf("keys: %+v", gb.Keys)
	}
}

func TestBindDistinct(t *testing.T) {
	tree := bindSQL(t, "SELECT DISTINCT o_custkey FROM orders")
	gb, ok := tree.Op.(*GroupBy)
	if !ok || len(gb.Aggs) != 0 || len(gb.Keys) != 1 {
		t.Fatalf("distinct: %T %+v", tree.Op, tree.Op)
	}
}

func TestBindOrderByForms(t *testing.T) {
	// By ordinal.
	tree := bindSQL(t, "SELECT c_name, c_acctbal FROM customer ORDER BY 2")
	s := tree.Op.(*Sort)
	if s.Keys[0].ID != tree.Children[0].OutputCols()[1].ID {
		t.Error("ordinal order key")
	}
	// By alias.
	tree = bindSQL(t, "SELECT c_acctbal AS bal FROM customer ORDER BY bal")
	if len(tree.Op.(*Sort).Keys) != 1 {
		t.Error("alias order key")
	}
	// By matching expression.
	tree = bindSQL(t, "SELECT c_acctbal + 1 FROM customer ORDER BY c_acctbal + 1")
	if len(tree.Op.(*Sort).Keys) != 1 {
		t.Error("expression order key")
	}
	bindErr(t, "SELECT c_name FROM customer ORDER BY c_acctbal * 2")
	bindErr(t, "SELECT c_name FROM customer ORDER BY 5")
}

func TestBindTop(t *testing.T) {
	tree := bindSQL(t, "SELECT TOP 10 c_name FROM customer ORDER BY c_name")
	s := tree.Op.(*Sort)
	if s.Top != 10 || len(s.Keys) != 1 {
		t.Fatalf("top: %+v", s)
	}
	tree = bindSQL(t, "SELECT TOP 5 c_name FROM customer")
	if tree.Op.(*Sort).Top != 5 {
		t.Error("bare top")
	}
}

func TestBindBetweenExpansion(t *testing.T) {
	tree := bindSQL(t, "SELECT c_name FROM customer WHERE c_acctbal BETWEEN 10 AND 20")
	f := tree.Children[0].Op.(*Select).Filter
	fp := f.Fingerprint()
	if !strings.Contains(fp, ">=") || !strings.Contains(fp, "<=") {
		t.Errorf("between expansion: %s", fp)
	}
}

func TestBindDateCoercion(t *testing.T) {
	tree := bindSQL(t, "SELECT l_orderkey FROM lineitem WHERE l_shipdate >= '1994-01-01'")
	f := tree.Children[0].Op.(*Select).Filter.(*Binary)
	c := f.R.(*Const)
	if c.Val.Kind() != types.KindDate {
		t.Errorf("string literal should coerce to date: %v", c.Val.Kind())
	}
	// DATEADD's string date argument is typed as a DATE at bind time; the
	// call itself stays for normalization to fold (normalize
	// TestFoldDateAdd).
	tree = bindSQL(t, "SELECT l_orderkey FROM lineitem WHERE l_shipdate < DATEADD(year, 1, '1994-01-01')")
	f = tree.Children[0].Op.(*Select).Filter.(*Binary)
	fn, ok := f.R.(*Func)
	if !ok || fn.Name != "DATEADD" || fn.Type() != types.KindDate {
		t.Fatalf("bound DATEADD: %s", f.R.Fingerprint())
	}
	if c, ok := fn.Args[2].(*Const); !ok || c.Val.Kind() != types.KindDate || c.Val.String() != "1994-01-01" {
		t.Errorf("DATEADD date argument should coerce to DATE: %s", fn.Args[2].Fingerprint())
	}
}

func TestBindSubqueries(t *testing.T) {
	tree := bindSQL(t, `SELECT c_name FROM customer WHERE c_custkey IN (SELECT o_custkey FROM orders)`)
	f := tree.Children[0].Op.(*Select).Filter
	sq, ok := f.(*Subquery)
	if !ok || sq.Kind != SubqueryIn || sq.Outer == nil {
		t.Fatalf("IN subquery: %T", f)
	}
	if FreeCols(sq.Input).Len() != 0 {
		t.Error("uncorrelated subquery has no free columns")
	}
}

func TestBindCorrelatedSubquery(t *testing.T) {
	tree := bindSQL(t, `SELECT c_name FROM customer c WHERE EXISTS (
		SELECT 1 FROM orders o WHERE o.o_custkey = c.c_custkey)`)
	f := tree.Children[0].Op.(*Select).Filter
	sq := f.(*Subquery)
	if sq.Kind != SubqueryExists {
		t.Fatal("exists kind")
	}
	free := FreeCols(sq.Input)
	if free.Len() != 1 {
		t.Fatalf("free cols: %v", free)
	}
	// The free column must be customer's c_custkey.
	get := tree.Children[0].Children[0].Op.(*Get)
	if !free.Has(get.Cols[0].ID) {
		t.Errorf("free col should be c_custkey (%d): %v", get.Cols[0].ID, free)
	}
}

func TestBindNotExists(t *testing.T) {
	tree := bindSQL(t, `SELECT c_name FROM customer c WHERE NOT EXISTS (
		SELECT 1 FROM orders o WHERE o.o_custkey = c.c_custkey)`)
	sq := tree.Children[0].Op.(*Select).Filter.(*Subquery)
	if !sq.Negated {
		t.Error("NOT EXISTS must set Negated")
	}
}

func TestBindScalarSubquery(t *testing.T) {
	tree := bindSQL(t, `SELECT c_name FROM customer WHERE c_acctbal > (SELECT MAX(o_totalprice) FROM orders)`)
	f := tree.Children[0].Op.(*Select).Filter.(*Binary)
	sq, ok := f.R.(*Subquery)
	if !ok || sq.Kind != SubqueryScalar {
		t.Fatalf("scalar subquery: %T", f.R)
	}
	if sq.Type() != types.KindFloat {
		t.Errorf("scalar subquery type: %v", sq.Type())
	}
}

func TestBindDerivedTable(t *testing.T) {
	tree := bindSQL(t, `SELECT t.k FROM (SELECT o_custkey AS k FROM orders GROUP BY o_custkey) t WHERE t.k > 5`)
	out := tree.OutputCols()
	if len(out) != 1 || out[0].Name != "k" {
		t.Fatalf("derived output: %+v", out)
	}
}

func TestBindInList(t *testing.T) {
	tree := bindSQL(t, "SELECT c_name FROM customer WHERE c_nationkey IN (1, 2, 3)")
	f := tree.Children[0].Op.(*Select).Filter
	il, ok := f.(*InList)
	if !ok || len(il.List) != 3 {
		t.Fatalf("in list: %T", f)
	}
}

func TestBindCase(t *testing.T) {
	tree := bindSQL(t, "SELECT CASE WHEN c_acctbal > 0 THEN 'pos' ELSE 'neg' END FROM customer")
	if tree.OutputCols()[0].Type != types.KindString {
		t.Error("case type")
	}
}

func TestBindErrors(t *testing.T) {
	cases := []string{
		"SELECT x FROM customer",
		"SELECT c_name FROM no_such_table",
		"SELECT c_custkey FROM customer a, customer b",                     // ambiguous
		"SELECT SUM(c_acctbal) FROM customer WHERE SUM(c_acctbal) > 1",     // agg in WHERE
		"SELECT c_name, SUM(c_acctbal) FROM customer GROUP BY c_nationkey", // non-grouped
		"SELECT c_name FROM customer WHERE c_name > 5",                     // type mismatch
		"SELECT SUM(c_name) FROM customer",                                 // sum of string
		"SELECT c_name FROM customer WHERE c_custkey IN (SELECT o_custkey, o_orderkey FROM orders)",
		"SELECT c_name FROM customer HAVING c_acctbal > 1",
		"SELECT c_name FROM customer WHERE c_name LIKE c_name",
		"SELECT -c_name FROM customer",
		"SELECT c_acctbal + c_name FROM customer",
	}
	for _, sql := range cases {
		bindErr(t, sql)
	}
}

func TestBindAggregateDedup(t *testing.T) {
	tree := bindSQL(t, "SELECT SUM(o_totalprice), SUM(o_totalprice) + 1 FROM orders")
	var gb *GroupBy
	VisitTree(tree, func(n *Tree) {
		if g, ok := n.Op.(*GroupBy); ok {
			gb = g
		}
	})
	if len(gb.Aggs) != 1 {
		t.Errorf("identical aggregates must be shared: %+v", gb.Aggs)
	}
}

func TestFingerprintDeterminism(t *testing.T) {
	a := bindSQL(t, "SELECT c_name FROM customer WHERE c_acctbal > 100")
	b := bindSQL(t, "SELECT c_name FROM customer WHERE c_acctbal > 100")
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("same query must produce identical fingerprints")
	}
}

func TestConjunctsAndAndAll(t *testing.T) {
	tree := bindSQL(t, "SELECT c_name FROM customer WHERE c_acctbal > 1 AND c_nationkey = 2 AND c_name = 'x'")
	f := tree.Children[0].Op.(*Select).Filter
	cj := Conjuncts(f)
	if len(cj) != 3 {
		t.Fatalf("conjuncts: %d", len(cj))
	}
	back := AndAll(cj)
	if back.Fingerprint() != f.Fingerprint() {
		t.Errorf("AndAll round-trip: %s vs %s", back.Fingerprint(), f.Fingerprint())
	}
	if AndAll(nil) != nil {
		t.Error("empty AndAll")
	}
}

func TestEquiJoinSides(t *testing.T) {
	tree := bindSQL(t, "SELECT c_name FROM customer c, orders o WHERE c.c_custkey = o.o_custkey")
	f := tree.Children[0].Op.(*Select).Filter
	l, r, ok := EquiJoinSides(f)
	if !ok || l == r {
		t.Fatalf("equijoin: %v %v %v", l, r, ok)
	}
	tree = bindSQL(t, "SELECT c_name FROM customer WHERE c_acctbal > 1")
	if _, _, ok := EquiJoinSides(tree.Children[0].Op.(*Select).Filter); ok {
		t.Error("non-equijoin")
	}
}

func TestRewriteScalar(t *testing.T) {
	tree := bindSQL(t, "SELECT c_name FROM customer WHERE c_acctbal > 100")
	f := tree.Children[0].Op.(*Select).Filter
	// Replace constant 100 with 200.
	got := RewriteScalar(f, func(e Scalar) Scalar {
		if c, ok := e.(*Const); ok && !c.Val.IsNull() && c.Val.Kind() == types.KindInt && c.Val.Int() == 100 {
			return &Const{Val: types.NewInt(200)}
		}
		return nil
	})
	if !strings.Contains(got.Fingerprint(), "200") {
		t.Errorf("rewrite: %s", got.Fingerprint())
	}
	if strings.Contains(f.Fingerprint(), "200") {
		t.Error("rewrite must not mutate the original")
	}
}

func TestOutputColsJoinKinds(t *testing.T) {
	shell := testShell(t)
	b := NewBinder(shell)
	sel, _ := sqlparser.ParseSelect("SELECT c_custkey FROM customer")
	left, err := b.Bind(sel)
	if err != nil {
		t.Fatal(err)
	}
	sel2, _ := sqlparser.ParseSelect("SELECT o_custkey FROM orders")
	right, err := b.Bind(sel2)
	if err != nil {
		t.Fatal(err)
	}
	semi := NewTree(&Join{Kind: JoinSemi}, left, right)
	if len(semi.OutputCols()) != 1 {
		t.Error("semi join outputs left only")
	}
	inner := NewTree(&Join{Kind: JoinInner}, left, right)
	if len(inner.OutputCols()) != 2 {
		t.Error("inner join outputs both")
	}
}
