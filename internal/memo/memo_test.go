package memo

import (
	"math"
	"strings"
	"testing"

	"pdwqo/internal/algebra"
	"pdwqo/internal/catalog"
	"pdwqo/internal/normalize"
	"pdwqo/internal/sqlparser"
	"pdwqo/internal/stats"
	"pdwqo/internal/types"
)

// testShell builds a mini TPC-H catalog with synthetic statistics:
// customer 1k rows, orders 10k rows, lineitem 40k rows, part 200 rows.
func testShell(t *testing.T) *catalog.Shell {
	t.Helper()
	s := catalog.NewShell(8)

	intSeq := func(n int, mod int64) []types.Value {
		out := make([]types.Value, n)
		for i := range out {
			v := int64(i)
			if mod > 0 {
				v = int64(i) % mod
			}
			out[i] = types.NewInt(v)
		}
		return out
	}
	floatSeq := func(n int) []types.Value {
		out := make([]types.Value, n)
		for i := range out {
			out[i] = types.NewFloat(float64(i%5000) + 0.5)
		}
		return out
	}
	dateSeq := func(n int) []types.Value {
		base := types.MustParseDate("1992-01-01").DateDays()
		out := make([]types.Value, n)
		for i := range out {
			out[i] = types.NewDate(base + int64(i%2500))
		}
		return out
	}
	strCycle := func(n int, words ...string) []types.Value {
		out := make([]types.Value, n)
		for i := range out {
			out[i] = types.NewString(words[i%len(words)])
		}
		return out
	}
	mustStats := func(cols map[string][]types.Value) *stats.Table {
		t.Helper()
		st, err := stats.BuildTable(cols)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
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
			{Name: "c_acctbal", Type: types.KindFloat},
		},
		PrimaryKey: []string{"c_custkey"},
		Dist:       catalog.Distribution{Kind: catalog.DistHash, Column: "c_custkey"},
		Stats: mustStats(map[string][]types.Value{
			"c_custkey": intSeq(1000, 0),
			"c_name":    strCycle(1000, "alice", "bob", "carol", "dave"),
			"c_acctbal": floatSeq(1000),
		}),
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
		Stats: mustStats(map[string][]types.Value{
			"o_orderkey":   intSeq(10000, 0),
			"o_custkey":    intSeq(10000, 1000),
			"o_totalprice": floatSeq(10000),
			"o_orderdate":  dateSeq(10000),
		}),
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
		Stats: mustStats(map[string][]types.Value{
			"l_orderkey": intSeq(40000, 10000),
			"l_partkey":  intSeq(40000, 200),
			"l_suppkey":  intSeq(40000, 50),
			"l_quantity": floatSeq(40000),
			"l_shipdate": dateSeq(40000),
		}),
	})
	add(&catalog.Table{
		Name: "part",
		Columns: []catalog.Column{
			{Name: "p_partkey", Type: types.KindInt},
			{Name: "p_name", Type: types.KindString},
		},
		PrimaryKey: []string{"p_partkey"},
		Dist:       catalog.Distribution{Kind: catalog.DistHash, Column: "p_partkey"},
		Stats: mustStats(map[string][]types.Value{
			"p_partkey": intSeq(200, 0),
			"p_name":    strCycle(200, "forest green", "antique blue", "metallic rose", "lace almond"),
		}),
	})
	return s
}

// optimizeSQL runs parse→bind→normalize→memo for a query.
func normalizeSQL(t *testing.T, shell *catalog.Shell, sql string) *algebra.Tree {
	t.Helper()
	sel, err := sqlparser.ParseSelect(sql)
	if err != nil {
		t.Fatal(err)
	}
	b := algebra.NewBinder(shell)
	tree, err := b.Bind(sel)
	if err != nil {
		t.Fatal(err)
	}
	norm, err := normalize.New(b).Normalize(tree)
	if err != nil {
		t.Fatal(err)
	}
	return norm
}

func optimizeSQL(t *testing.T, shell *catalog.Shell, sql string, budget int) *Memo {
	t.Helper()
	m, err := OptimizeSeeded(shell, normalizeSQL(t, shell, sql), budget)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// costedSQL is optimizeSQL followed by the serial costing.
func costedSQL(t *testing.T, shell *catalog.Shell, sql string, budget int) *Memo {
	t.Helper()
	m := optimizeSQL(t, shell, sql, budget)
	if err := m.CostSerial(); err != nil {
		t.Fatal(err)
	}
	return m
}

// winnerShape renders the winner tree below group id as nested operator
// names, e.g. Project(Select(Get)).
func winnerShape(m *Memo, id GroupID) string {
	w := m.Group(id).Winner()
	if w == nil {
		return "?"
	}
	s := w.Op.OpName()
	if len(w.Children) > 0 {
		kids := make([]string, len(w.Children))
		for i, c := range w.Children {
			kids[i] = winnerShape(m, c)
		}
		s += "(" + strings.Join(kids, ",") + ")"
	}
	return s
}

func TestMemoInsertDedup(t *testing.T) {
	shell := testShell(t)
	b := algebra.NewBinder(shell)
	sel, _ := sqlparser.ParseSelect("SELECT c_custkey FROM customer")
	tree, err := b.Bind(sel)
	if err != nil {
		t.Fatal(err)
	}
	m := New(shell)
	id1 := m.Insert(tree)
	id2 := m.Insert(tree)
	if id1 != id2 {
		t.Error("identical trees must land in one group")
	}
}

func TestSimpleScanPlan(t *testing.T) {
	m := costedSQL(t, testShell(t), "SELECT c_name FROM customer WHERE c_acctbal > 100", 0)
	if got, want := winnerShape(m, m.Root), "Project(Select(Get))"; got != want {
		t.Errorf("serial plan %s, want %s:\n%s", got, want, m)
	}
}

func TestPaperFigure3Memo(t *testing.T) {
	// The query from Figure 3: the memo must contain logical groups for
	// Get C, Get O, Select(O), Join.
	m := optimizeSQL(t, testShell(t),
		"SELECT * FROM CUSTOMER C, ORDERS O WHERE C.c_custkey = O.o_custkey AND O.o_totalprice > 1000", 0)
	var hasGetC, hasGetO, hasSelect, hasJoin bool
	for _, g := range m.Groups[1:] {
		for _, e := range g.Exprs {
			switch op := e.Op.(type) {
			case *algebra.Get:
				if op.Table.Name == "customer" {
					hasGetC = true
				}
				if op.Table.Name == "orders" {
					hasGetO = true
				}
			case *algebra.Select:
				hasSelect = true
			case *algebra.Join:
				hasJoin = true
			}
		}
	}
	for name, ok := range map[string]bool{
		"Get customer": hasGetC, "Get orders": hasGetO, "Select": hasSelect,
		"Join": hasJoin,
	} {
		if !ok {
			t.Errorf("memo missing %s:\n%s", name, m)
		}
	}
	// Join commutativity must be visible: the join group holds ≥2 logical
	// join expressions.
	for _, g := range m.Groups[1:] {
		joins := 0
		for _, e := range g.Exprs {
			if j, ok := e.Op.(*algebra.Join); ok && j.Kind == algebra.JoinInner {
				joins++
			}
		}
		if joins >= 2 {
			return
		}
	}
	t.Errorf("no group with commuted joins:\n%s", m)
}

func TestJoinOrderExploration(t *testing.T) {
	shell := testShell(t)
	m := optimizeSQL(t, shell, `SELECT c_name FROM customer c, orders o, lineitem l
		WHERE c.c_custkey = o.o_custkey AND o.o_orderkey = l.l_orderkey`, 0)
	// All three base orders (and their commutes) should be reachable: the
	// root-side join group must contain expressions whose children differ.
	rootJoins := map[string]bool{}
	for _, g := range m.Groups[1:] {
		for _, e := range g.Exprs {
			if _, ok := e.Op.(*algebra.Join); ok {
				rootJoins[e.Fingerprint()] = true
			}
		}
	}
	if len(rootJoins) < 6 {
		t.Errorf("expected rich join-order space, got %d join exprs", len(rootJoins))
	}
}

func TestCardinalityEstimates(t *testing.T) {
	shell := testShell(t)
	m := optimizeSQL(t, shell, "SELECT o_orderkey FROM orders WHERE o_totalprice > 1000", 0)
	props := m.Groups[m.Root].Props
	// o_totalprice cycles 0.5..4999.5 over 10k rows; >1000 keeps ~80%.
	if props.Rows < 6000 || props.Rows > 9500 {
		t.Errorf("filter cardinality = %v, want ≈8000", props.Rows)
	}

	// PK-FK join: |orders ⋈ customer| ≈ |orders| = 10000.
	m = optimizeSQL(t, shell, "SELECT c_name FROM customer c, orders o WHERE c.c_custkey = o.o_custkey", 0)
	props = m.Groups[m.Root].Props
	if math.Abs(props.Rows-10000) > 3000 {
		t.Errorf("join cardinality = %v, want ≈10000", props.Rows)
	}
}

func TestBestSerialJoinOrderUsesSmallTableFirst(t *testing.T) {
	shell := testShell(t)
	// part (200 rows, LIKE-filtered) joins lineitem (40k): the hash join
	// must build on the small (part) side.
	m := costedSQL(t, shell, `SELECT l.l_quantity FROM part p, lineitem l
		WHERE p.p_partkey = l.l_partkey AND p.p_name LIKE 'forest%'`, 0)
	// Walk the winner tree down to the join.
	id := m.Root
	w := m.Group(id).Winner()
	for w != nil {
		if _, ok := w.Op.(*algebra.Join); ok || len(w.Children) == 0 {
			break
		}
		id = w.Children[0]
		w = m.Group(id).Winner()
	}
	if w == nil || len(w.Children) != 2 {
		t.Fatalf("no join in the serial plan %s:\n%s", winnerShape(m, m.Root), m)
	}
	// Build side is the right child; it must be the (filtered) part side.
	probe, build := m.Group(w.Children[0]).Props.Rows, m.Group(w.Children[1]).Props.Rows
	if build > probe {
		t.Errorf("build side (%v rows) should be smaller than probe (%v rows)", build, probe)
	}
}

func TestBudgetExhaustion(t *testing.T) {
	shell := testShell(t)
	m := optimizeSQL(t, shell, `SELECT c_name FROM customer c, orders o, lineitem l, part p
		WHERE c.c_custkey = o.o_custkey AND o.o_orderkey = l.l_orderkey AND l.l_partkey = p.p_partkey`, 40)
	if !m.Exhausted() {
		t.Error("tiny budget must exhaust")
	}
	if err := m.CostSerial(); err != nil {
		t.Errorf("the serial plan must still cost under exhaustion: %v", err)
	}
	// Unlimited exploration must find strictly more expressions.
	full := optimizeSQL(t, shell, `SELECT c_name FROM customer c, orders o, lineitem l, part p
		WHERE c.c_custkey = o.o_custkey AND o.o_orderkey = l.l_orderkey AND l.l_partkey = p.p_partkey`, 0)
	if full.NumExprs() <= m.NumExprs() {
		t.Errorf("full exploration (%d exprs) should beat budgeted (%d)", full.NumExprs(), m.NumExprs())
	}
}

func TestJoinBelowGroupByRule(t *testing.T) {
	shell := testShell(t)
	// Aggregate lineitem by l_partkey, then join with part (PK join): the
	// rule must offer the join-below-aggregation alternative.
	m := optimizeSQL(t, shell, `SELECT t.s FROM part p,
		(SELECT l_partkey AS k, SUM(l_quantity) AS s FROM lineitem GROUP BY l_partkey) t
		WHERE p.p_partkey = t.k AND p.p_name LIKE 'forest%'`, 0)
	// Search for a GroupBy expression whose child group contains a join.
	found := false
	for _, g := range m.Groups[1:] {
		for _, e := range g.Exprs {
			gb, ok := e.Op.(*algebra.GroupBy)
			if !ok || len(gb.Aggs) == 0 {
				continue
			}
			child := m.Groups[e.Children[0]]
			for _, ce := range child.Exprs {
				if _, ok := ce.Op.(*algebra.Join); ok {
					found = true
				}
			}
		}
	}
	if !found {
		t.Errorf("join-below-group-by alternative missing:\n%s", m)
	}
}

func TestMemoStringRendersFigure3Style(t *testing.T) {
	m := optimizeSQL(t, testShell(t), "SELECT c_name FROM customer WHERE c_acctbal > 100", 0)
	s := m.String()
	if !strings.Contains(s, "Group 1") || !strings.Contains(s, "[root]") {
		t.Errorf("memo rendering:\n%s", s)
	}
}

func TestValuesPlan(t *testing.T) {
	// Contradictions normalize to Values; the memo must still plan them.
	m := costedSQL(t, testShell(t), "SELECT c_name FROM customer WHERE c_acctbal > 10 AND c_acctbal < 5", 0)
	if got, want := winnerShape(m, m.Root), "Project(Values)"; got != want {
		t.Errorf("serial plan %s, want %s:\n%s", got, want, m)
	}
}

func TestSemiJoinCardinality(t *testing.T) {
	shell := testShell(t)
	m := optimizeSQL(t, shell, `SELECT c_name FROM customer c WHERE EXISTS (
		SELECT 1 FROM orders o WHERE o.o_custkey = c.c_custkey)`, 0)
	props := m.Groups[m.Root].Props
	// Every custkey appears in orders → semi join keeps ≈ all 1000.
	if props.Rows < 500 || props.Rows > 1100 {
		t.Errorf("semi join cardinality = %v, want ≈1000", props.Rows)
	}
}

func TestGroupByCardinality(t *testing.T) {
	shell := testShell(t)
	m := optimizeSQL(t, shell, "SELECT o_custkey, COUNT(*) FROM orders GROUP BY o_custkey", 0)
	props := m.Groups[m.Root].Props
	if math.Abs(props.Rows-1000) > 300 {
		t.Errorf("group-by cardinality = %v, want ≈1000", props.Rows)
	}
}
