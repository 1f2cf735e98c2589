package normalize

import (
	"strings"
	"testing"

	"pdwqo/internal/algebra"
	"pdwqo/internal/catalog"
	"pdwqo/internal/qgen"
	"pdwqo/internal/sqlparser"
	"pdwqo/internal/types"
)

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
		Name: "part",
		Columns: []catalog.Column{
			{Name: "p_partkey", Type: types.KindInt},
			{Name: "p_name", Type: types.KindString},
		},
		PrimaryKey: []string{"p_partkey"},
		Dist:       catalog.Distribution{Kind: catalog.DistHash, Column: "p_partkey"},
	})
	add(&catalog.Table{
		Name: "partsupp",
		Columns: []catalog.Column{
			{Name: "ps_partkey", Type: types.KindInt},
			{Name: "ps_suppkey", Type: types.KindInt},
			{Name: "ps_availqty", Type: types.KindInt},
		},
		PrimaryKey: []string{"ps_partkey", "ps_suppkey"},
		Dist:       catalog.Distribution{Kind: catalog.DistHash, Column: "ps_partkey"},
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
		Name: "supplier",
		Columns: []catalog.Column{
			{Name: "s_suppkey", Type: types.KindInt},
			{Name: "s_name", Type: types.KindString},
			{Name: "s_nationkey", Type: types.KindInt},
		},
		PrimaryKey: []string{"s_suppkey"},
		Dist:       catalog.Distribution{Kind: catalog.DistReplicated},
	})
	add(&catalog.Table{
		Name: "orders",
		Columns: []catalog.Column{
			{Name: "o_orderkey", Type: types.KindInt},
			{Name: "o_custkey", Type: types.KindInt},
			{Name: "o_orderdate", Type: types.KindDate},
		},
		PrimaryKey: []string{"o_orderkey"},
		Dist:       catalog.Distribution{Kind: catalog.DistHash, Column: "o_orderkey"},
	})
	add(&catalog.Table{
		Name: "customer",
		Columns: []catalog.Column{
			{Name: "c_custkey", Type: types.KindInt},
			{Name: "c_name", Type: types.KindString},
			{Name: "c_acctbal", Type: types.KindFloat},
		},
		PrimaryKey: []string{"c_custkey"},
		Dist:       catalog.Distribution{Kind: catalog.DistHash, Column: "c_custkey"},
	})
	return s
}

func normalizeSQL(t *testing.T, sql string) *algebra.Tree {
	t.Helper()
	sel, err := sqlparser.ParseSelect(sql)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	b := algebra.NewBinder(testShell(t))
	tree, err := b.Bind(sel)
	if err != nil {
		t.Fatalf("bind: %v", err)
	}
	out, err := New(b).Normalize(tree)
	if err != nil {
		t.Fatalf("normalize: %v", err)
	}
	return out
}

// countOps tallies operator type names in the tree.
func countOps(t *algebra.Tree) map[string]int {
	out := map[string]int{}
	algebra.VisitTree(t, func(n *algebra.Tree) { out[n.Op.OpName()]++ })
	return out
}

func assertNoSubqueries(t *testing.T, tree *algebra.Tree) {
	t.Helper()
	algebra.VisitTree(tree, func(n *algebra.Tree) {
		for _, s := range algebra.OperatorScalars(n.Op) {
			if algebra.HasSubquery(s) {
				t.Fatalf("subquery survived normalization:\n%s", tree)
			}
		}
	})
}

func TestUnnestUncorrelatedIn(t *testing.T) {
	tree := normalizeSQL(t, `SELECT c_name FROM customer WHERE c_custkey IN (SELECT o_custkey FROM orders)`)
	assertNoSubqueries(t, tree)
	ops := countOps(tree)
	if ops["InnerJoin"] != 1 {
		t.Fatalf("IN should become an inner join: %v\n%s", ops, tree)
	}
	// o_custkey is not unique → a distinct GroupBy must guard duplicates.
	if ops["GroupBy"] != 1 {
		t.Fatalf("expected dedup GroupBy: %v\n%s", ops, tree)
	}
}

func TestUnnestInOnPrimaryKeySkipsDistinct(t *testing.T) {
	tree := normalizeSQL(t, `SELECT ps_availqty FROM partsupp WHERE ps_partkey IN (SELECT p_partkey FROM part WHERE p_name LIKE 'forest%')`)
	assertNoSubqueries(t, tree)
	ops := countOps(tree)
	if ops["InnerJoin"] != 1 {
		t.Fatalf("inner join expected: %v", ops)
	}
	// p_partkey is part's primary key → already unique per equality: the
	// subquery's projection of the PK keeps uniqueness, so no GroupBy.
	if ops["GroupBy"] != 0 {
		t.Fatalf("PK-unique IN needs no dedup: %v\n%s", ops, tree)
	}
}

func TestUnnestNotIn(t *testing.T) {
	tree := normalizeSQL(t, `SELECT c_name FROM customer WHERE c_custkey NOT IN (SELECT o_custkey FROM orders)`)
	assertNoSubqueries(t, tree)
	if countOps(tree)["AntiJoin"] != 1 {
		t.Fatalf("NOT IN should become anti join:\n%s", tree)
	}
}

func TestUnnestCorrelatedExists(t *testing.T) {
	tree := normalizeSQL(t, `SELECT c_name FROM customer c WHERE EXISTS (
		SELECT 1 FROM orders o WHERE o.o_custkey = c.c_custkey AND o.o_orderdate >= '1994-01-01')`)
	assertNoSubqueries(t, tree)
	ops := countOps(tree)
	if ops["SemiJoin"] != 1 {
		t.Fatalf("EXISTS should become semi join: %v\n%s", ops, tree)
	}
	// The local date predicate must stay inside the subquery side; the
	// correlation equality becomes the join condition.
	var semi *algebra.Tree
	algebra.VisitTree(tree, func(n *algebra.Tree) {
		if j, ok := n.Op.(*algebra.Join); ok && j.Kind == algebra.JoinSemi {
			semi = n
		}
	})
	j := semi.Op.(*algebra.Join)
	if _, _, ok := algebra.EquiJoinSides(algebra.Conjuncts(j.On)[0]); !ok {
		t.Errorf("semi join condition should be the lifted equality: %s", j.On.Fingerprint())
	}
	found := false
	algebra.VisitTree(semi.Children[1], func(n *algebra.Tree) {
		if s, ok := n.Op.(*algebra.Select); ok && strings.Contains(s.Filter.Fingerprint(), "1994") {
			found = true
		}
	})
	if !found {
		t.Errorf("local predicate must remain in subquery:\n%s", tree)
	}
}

func TestUnnestNotExists(t *testing.T) {
	tree := normalizeSQL(t, `SELECT c_name FROM customer c WHERE NOT EXISTS (
		SELECT 1 FROM orders o WHERE o.o_custkey = c.c_custkey)`)
	assertNoSubqueries(t, tree)
	if countOps(tree)["AntiJoin"] != 1 {
		t.Fatalf("NOT EXISTS → anti join:\n%s", tree)
	}
}

func TestDecorrelateScalarAggregate(t *testing.T) {
	// The Q20 SQ3 pattern.
	tree := normalizeSQL(t, `SELECT ps_suppkey FROM partsupp WHERE ps_availqty > (
		SELECT 0.5 * SUM(l_quantity) FROM lineitem
		WHERE l_partkey = ps_partkey AND l_suppkey = ps_suppkey
		  AND l_shipdate >= '1994-01-01')`)
	assertNoSubqueries(t, tree)
	var gb *algebra.GroupBy
	algebra.VisitTree(tree, func(n *algebra.Tree) {
		if g, ok := n.Op.(*algebra.GroupBy); ok && len(g.Aggs) > 0 {
			gb = g
		}
	})
	if gb == nil {
		t.Fatalf("decorrelation must produce a keyed aggregate:\n%s", tree)
	}
	if len(gb.Keys) != 2 {
		t.Fatalf("group keys should be the correlation columns (l_partkey,l_suppkey): %v", gb.Keys)
	}
	// The comparison must appear in a join condition or filter above.
	fp := tree.String()
	if !strings.Contains(fp, ">") {
		t.Errorf("availqty comparison lost:\n%s", fp)
	}
}

func TestUncorrelatedScalarSubquery(t *testing.T) {
	tree := normalizeSQL(t, `SELECT c_name FROM customer WHERE c_acctbal > (SELECT MAX(c_acctbal) FROM customer)`)
	assertNoSubqueries(t, tree)
	if countOps(tree)["InnerJoin"] != 1 {
		t.Fatalf("scalar comparison joins the aggregate:\n%s", tree)
	}
}

func TestPushdownThroughJoin(t *testing.T) {
	tree := normalizeSQL(t, `SELECT c_name FROM customer c, orders o
		WHERE c.c_custkey = o.o_custkey AND o.o_orderdate >= '1994-01-01' AND c.c_acctbal > 0`)
	// Each single-table predicate must sit directly above its Get.
	algebra.VisitTree(tree, func(n *algebra.Tree) {
		if s, ok := n.Op.(*algebra.Select); ok {
			child, ok := n.Children[0].Op.(*algebra.Get)
			if !ok {
				t.Errorf("Select not over Get: filter %s over %s", s.Filter.Fingerprint(), n.Children[0].Op.OpName())
				return
			}
			_ = child
		}
	})
	// The cross join must have become an inner join on the equality.
	var join *algebra.Join
	algebra.VisitTree(tree, func(n *algebra.Tree) {
		if j, ok := n.Op.(*algebra.Join); ok {
			join = j
		}
	})
	if join == nil || join.Kind != algebra.JoinInner || join.On == nil {
		t.Fatalf("cross join should become qualified inner join:\n%s", tree)
	}
}

func TestOuterJoinSimplification(t *testing.T) {
	tree := normalizeSQL(t, `SELECT c_name FROM customer c LEFT JOIN orders o ON c.c_custkey = o.o_custkey
		WHERE o.o_orderdate >= '1994-01-01'`)
	var kinds []algebra.JoinKind
	algebra.VisitTree(tree, func(n *algebra.Tree) {
		if j, ok := n.Op.(*algebra.Join); ok {
			kinds = append(kinds, j.Kind)
		}
	})
	if len(kinds) != 1 || kinds[0] != algebra.JoinInner {
		t.Fatalf("null-rejecting predicate must convert outer to inner: %v\n%s", kinds, tree)
	}
}

func TestOuterJoinPreservedUnderIsNull(t *testing.T) {
	tree := normalizeSQL(t, `SELECT c_name FROM customer c LEFT JOIN orders o ON c.c_custkey = o.o_custkey
		WHERE o.o_orderkey IS NULL`)
	var kinds []algebra.JoinKind
	algebra.VisitTree(tree, func(n *algebra.Tree) {
		if j, ok := n.Op.(*algebra.Join); ok {
			kinds = append(kinds, j.Kind)
		}
	})
	if len(kinds) != 1 || kinds[0] != algebra.JoinLeftOuter {
		t.Fatalf("IS NULL must not convert outer join: %v", kinds)
	}
}

func TestTransitivityClosure(t *testing.T) {
	// c_custkey = o_custkey ∧ o_custkey = l_orderkey ⇒ c_custkey = l_orderkey
	// (schema-wise nonsense but exercises the closure machinery).
	tree := normalizeSQL(t, `SELECT c_name FROM customer c, orders o, lineitem l
		WHERE c.c_custkey = o.o_custkey AND o.o_custkey = l.l_orderkey`)
	conjs := collectAllConjuncts(tree)
	eqCount := 0
	for _, c := range conjs {
		if _, _, ok := algebra.EquiJoinSides(c); ok {
			eqCount++
		}
	}
	if eqCount < 3 {
		t.Fatalf("closure should add the third equality, got %d:\n%s", eqCount, tree)
	}
}

func TestConstantPropagation(t *testing.T) {
	tree := normalizeSQL(t, `SELECT c_name FROM customer c, orders o
		WHERE c.c_custkey = o.o_custkey AND c.c_custkey = 42`)
	// o_custkey = 42 must appear directly above the orders Get.
	found := false
	algebra.VisitTree(tree, func(n *algebra.Tree) {
		if s, ok := n.Op.(*algebra.Select); ok {
			if g, ok := n.Children[0].Op.(*algebra.Get); ok && g.Table.Name == "orders" {
				if strings.Contains(s.Filter.Fingerprint(), "42") {
					found = true
				}
			}
		}
	})
	if !found {
		t.Fatalf("constant must propagate to orders side:\n%s", tree)
	}
}

// TestClosureDerivesEachPredicateOnce closes a join region whose derived
// restriction d.k < 100 moves into a factor, the derived table: the
// region is closed once, at its root, so the restriction is derived once
// and lands on each of the three scans exactly once.
func TestClosureDerivesEachPredicateOnce(t *testing.T) {
	tree := normalizeSQL(t, `SELECT c.c_name, d.n FROM orders o
		JOIN (SELECT o_custkey AS k, COUNT(*) AS n FROM orders GROUP BY o_custkey) d ON d.k = o.o_custkey
		JOIN customer c ON c.c_custkey = o.o_custkey
		WHERE o.o_custkey < 100`)
	restrictions := 0
	for _, c := range collectAllConjuncts(tree) {
		if strings.HasSuffix(c.Fingerprint(), " < 100)") {
			restrictions++
		}
	}
	if restrictions != 3 {
		t.Fatalf("want x < 100 once on each of the three scans, got %d restrictions:\n%s", restrictions, tree)
	}
}

func TestContradictionDetection(t *testing.T) {
	tree := normalizeSQL(t, `SELECT c_name FROM customer WHERE c_acctbal > 10 AND c_acctbal < 5`)
	if countOps(tree)["Values"] != 1 {
		t.Fatalf("range contradiction must produce empty Values:\n%s", tree)
	}
	tree = normalizeSQL(t, `SELECT c_name FROM customer WHERE 1 = 0`)
	if countOps(tree)["Values"] != 1 {
		t.Fatalf("constant-false must produce empty Values:\n%s", tree)
	}
	tree = normalizeSQL(t, `SELECT c_name FROM customer WHERE c_custkey = 5 AND c_custkey = 6`)
	if countOps(tree)["Values"] != 1 {
		t.Fatalf("conflicting equalities must produce empty Values:\n%s", tree)
	}
	// Sanity: satisfiable ranges survive.
	tree = normalizeSQL(t, `SELECT c_name FROM customer WHERE c_acctbal > 5 AND c_acctbal < 10`)
	if countOps(tree)["Values"] != 0 {
		t.Fatal("satisfiable range flagged as contradiction")
	}
}

func TestConstantFoldingRemovesTrueFilter(t *testing.T) {
	tree := normalizeSQL(t, `SELECT c_name FROM customer WHERE 1 = 1`)
	if countOps(tree)["Select"] != 0 {
		t.Fatalf("constant-true filter must disappear:\n%s", tree)
	}
}

func TestRedundantSelfJoinElimination(t *testing.T) {
	tree := normalizeSQL(t, `SELECT a.c_name FROM customer a, customer b WHERE a.c_custkey = b.c_custkey`)
	ops := countOps(tree)
	if ops["Get"] != 1 || ops["InnerJoin"] != 0 {
		t.Fatalf("self-join on PK must collapse to one scan: %v\n%s", ops, tree)
	}
}

func TestSelfJoinKeptWithoutFullPK(t *testing.T) {
	// partsupp's PK is (ps_partkey, ps_suppkey); joining on one column only
	// is not redundant.
	tree := normalizeSQL(t, `SELECT a.ps_availqty FROM partsupp a, partsupp b WHERE a.ps_partkey = b.ps_partkey`)
	if countOps(tree)["InnerJoin"] != 1 {
		t.Fatalf("partial-key self-join must remain:\n%s", tree)
	}
}

func TestColumnPruning(t *testing.T) {
	tree := normalizeSQL(t, `SELECT c_name FROM customer WHERE c_acctbal > 0`)
	var get *algebra.Get
	algebra.VisitTree(tree, func(n *algebra.Tree) {
		if g, ok := n.Op.(*algebra.Get); ok {
			get = g
		}
	})
	if len(get.Cols) != 2 {
		t.Fatalf("Get should keep only c_name and c_acctbal: %+v", get.Cols)
	}
}

func TestFoldScalarBasics(t *testing.T) {
	two := &algebra.Const{Val: types.NewInt(2)}
	three := &algebra.Const{Val: types.NewInt(3)}
	sum := &algebra.Binary{Op: sqlparser.OpAdd, L: two, R: three}
	if got := FoldScalar(sum).(*algebra.Const).Val.Int(); got != 5 {
		t.Errorf("2+3 = %d", got)
	}
	cmp := &algebra.Binary{Op: sqlparser.OpLt, L: two, R: three}
	if got := FoldScalar(cmp).(*algebra.Const).Val.Bool(); !got {
		t.Error("2 < 3")
	}
	colRef := algebra.NewColRef(algebra.ColumnMeta{ID: 1, Type: types.KindBool})
	and := &algebra.Binary{Op: sqlparser.OpAnd, L: &algebra.Const{Val: types.NewBool(true)}, R: colRef}
	if FoldScalar(and) != colRef {
		t.Error("TRUE AND x = x")
	}
	or := &algebra.Binary{Op: sqlparser.OpOr, L: &algebra.Const{Val: types.NewBool(true)}, R: colRef}
	if !FoldScalar(or).(*algebra.Const).Val.Bool() {
		t.Error("TRUE OR x = TRUE")
	}
	notNot := &algebra.Not{E: &algebra.Not{E: colRef}}
	if FoldScalar(notNot) != colRef {
		t.Error("NOT NOT x = x")
	}
}

func TestQ20Normalizes(t *testing.T) {
	// Full Q20 (minus the nation join for this mini-catalog) must fully
	// unnest: no subqueries, joins over part/partsupp/lineitem/supplier.
	tree := normalizeSQL(t, `
		SELECT s_name FROM supplier WHERE s_suppkey IN (
			SELECT ps_suppkey FROM partsupp
			WHERE ps_partkey IN (SELECT p_partkey FROM part WHERE p_name LIKE 'forest%')
			  AND ps_availqty > (
				SELECT 0.5 * SUM(l_quantity) FROM lineitem
				WHERE l_partkey = ps_partkey AND l_suppkey = ps_suppkey
				  AND l_shipdate >= '1994-01-01'
				  AND l_shipdate < DATEADD(year, 1, '1994-01-01'))
		) ORDER BY s_name`)
	assertNoSubqueries(t, tree)
	ops := countOps(tree)
	if ops["Get"] != 4 {
		t.Fatalf("expected scans of 4 tables: %v\n%s", ops, tree)
	}
	if ops["InnerJoin"] < 3 {
		t.Fatalf("expected ≥3 inner joins after unnesting: %v\n%s", ops, tree)
	}
	// Transitivity closure must relate p_partkey to l_partkey so the memo
	// can join part with lineitem directly (paper §4, DSQL step 0).
	var partKey, linePartKey algebra.ColumnID
	algebra.VisitTree(tree, func(n *algebra.Tree) {
		if g, ok := n.Op.(*algebra.Get); ok {
			for _, c := range g.Cols {
				switch {
				case g.Table.Name == "part" && c.Name == "p_partkey":
					partKey = c.ID
				case g.Table.Name == "lineitem" && c.Name == "l_partkey":
					linePartKey = c.ID
				}
			}
		}
	})
	if partKey == 0 || linePartKey == 0 {
		t.Fatalf("missing key columns\n%s", tree)
	}
	foundDirect := false
	for _, c := range collectAllConjuncts(tree) {
		l, r, ok := algebra.EquiJoinSides(c)
		if ok && ((l == partKey && r == linePartKey) || (l == linePartKey && r == partKey)) {
			foundDirect = true
		}
	}
	if !foundDirect {
		t.Errorf("transitivity closure must derive p_partkey = l_partkey\n%s", tree)
	}
}

// collectAllConjuncts pulls every filter/join conjunct from the tree.
func collectAllConjuncts(t *algebra.Tree) []algebra.Scalar {
	var out []algebra.Scalar
	algebra.VisitTree(t, func(n *algebra.Tree) {
		switch op := n.Op.(type) {
		case *algebra.Select:
			out = append(out, algebra.Conjuncts(op.Filter)...)
		case *algebra.Join:
			out = append(out, algebra.Conjuncts(op.On)...)
		}
	})
	return out
}

func TestSeedCollocatedPrefersCollocatedPairs(t *testing.T) {
	// partsupp (hash ps_partkey) ⋈ part (hash p_partkey) are collocated on
	// the partkey equality; lineitem (hash l_orderkey) is not. The greedy
	// order must join partsupp⋈part first regardless of the FROM order.
	tree := normalizeSQL(t, `SELECT ps_availqty FROM lineitem, partsupp, part
		WHERE l_partkey = ps_partkey AND ps_partkey = p_partkey`)
	seeded := GreedyJoinOrder(tree)
	// Find the innermost join and check its two sides scan partsupp/part.
	var innermost *algebra.Tree
	algebra.VisitTree(seeded, func(n *algebra.Tree) {
		if _, ok := n.Op.(*algebra.Join); !ok {
			return
		}
		joinBelow := false
		for _, c := range n.Children {
			algebra.VisitTree(c, func(m *algebra.Tree) {
				if _, ok := m.Op.(*algebra.Join); ok {
					joinBelow = true
				}
			})
		}
		if !joinBelow {
			innermost = n
		}
	})
	if innermost == nil {
		t.Fatalf("no innermost join:\n%s", seeded)
	}
	names := map[string]bool{}
	algebra.VisitTree(innermost, func(n *algebra.Tree) {
		if g, ok := n.Op.(*algebra.Get); ok {
			names[g.Table.Name] = true
		}
	})
	if !names["partsupp"] || !names["part"] || names["lineitem"] {
		t.Errorf("innermost join should pair partsupp⋈part: %v\n%s", names, seeded)
	}
	// Output columns (by ID) unchanged.
	a, b := tree.OutputCols(), seeded.OutputCols()
	if len(a) != len(b) {
		t.Fatal("seeding changed output arity")
	}
	for i := range a {
		if a[i].ID != b[i].ID {
			t.Fatal("seeding changed output columns")
		}
	}
}

func TestSeedCollocatedIdempotentOnSmallRegions(t *testing.T) {
	tree := normalizeSQL(t, `SELECT c_name FROM customer WHERE c_acctbal > 0`)
	if GreedyJoinOrder(tree).Fingerprint() != tree.Fingerprint() {
		t.Error("single-factor regions must be untouched")
	}
}

// BenchmarkNormalizeWide normalizes the bound trees of the generated
// 100-relation clique and star joins, whose regions are the widest in
// the qgen corpus: a pass that re-walks what it has already visited
// shows here first.
func BenchmarkNormalizeWide(b *testing.B) {
	for _, spec := range []qgen.Spec{
		{Topology: qgen.Clique, Relations: 100, Seed: 1741},
		{Topology: qgen.Star, Relations: 100, Seed: 1707},
	} {
		q, err := qgen.Generate(spec)
		if err != nil {
			b.Fatal(err)
		}
		shell, err := q.Shell()
		if err != nil {
			b.Fatal(err)
		}
		sel, err := sqlparser.ParseSelect(q.SQL)
		if err != nil {
			b.Fatal(err)
		}
		binder := algebra.NewBinder(shell)
		bound, err := binder.Bind(sel)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(q.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := New(binder).Normalize(bound); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
