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
	m, err := Optimize(shell, normalizeSQL(t, shell, sql), budget)
	if err != nil {
		t.Fatal(err)
	}
	return m
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
	m := optimizeSQL(t, testShell(t), "SELECT c_name FROM customer WHERE c_acctbal > 100", 0)
	plan, err := m.BestPlan()
	if err != nil {
		t.Fatal(err)
	}
	s := plan.String()
	for _, want := range []string{"ComputeScalar", "Filter", "TableScan"} {
		if !strings.Contains(s, want) {
			t.Errorf("plan missing %s:\n%s", want, s)
		}
	}
}

func TestPaperFigure3Memo(t *testing.T) {
	// The query from Figure 3: the memo must contain logical groups for
	// Get C, Get O, Select(O), Join, with physical implementations.
	m := optimizeSQL(t, testShell(t),
		"SELECT * FROM CUSTOMER C, ORDERS O WHERE C.c_custkey = O.o_custkey AND O.o_totalprice > 1000", 0)
	var hasGetC, hasGetO, hasSelect, hasJoin, hasHashJoin, hasScan bool
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
			case *algebra.Phys:
				if op.Algo == algebra.AlgoHashJoin {
					hasHashJoin = true
				}
				if op.Algo == algebra.AlgoTableScan {
					hasScan = true
				}
			}
		}
	}
	for name, ok := range map[string]bool{
		"Get customer": hasGetC, "Get orders": hasGetO, "Select": hasSelect,
		"Join": hasJoin, "HashJoin": hasHashJoin, "TableScan": hasScan,
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
			if j, ok := e.Op.(*algebra.Join); ok && j.Kind == algebra.JoinInner && !e.Physical {
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
			if _, ok := e.Op.(*algebra.Join); ok && !e.Physical {
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
	m := optimizeSQL(t, shell, `SELECT l.l_quantity FROM part p, lineitem l
		WHERE p.p_partkey = l.l_partkey AND p.p_name LIKE 'forest%'`, 0)
	plan, err := m.BestPlan()
	if err != nil {
		t.Fatal(err)
	}
	var join *PhysPlan
	var walk func(p *PhysPlan)
	walk = func(p *PhysPlan) {
		if ph, ok := p.Op.(*algebra.Phys); ok && ph.Algo == algebra.AlgoHashJoin {
			join = p
		}
		for _, c := range p.Children {
			walk(c)
		}
	}
	walk(plan)
	if join == nil {
		t.Fatalf("no hash join in plan:\n%s", plan)
	}
	// Build side is the right child; it must be the (filtered) part side.
	right := join.Children[1]
	if right.Props.Rows > join.Children[0].Props.Rows {
		t.Errorf("build side (%v rows) should be smaller than probe (%v rows)",
			right.Props.Rows, join.Children[0].Props.Rows)
	}
}

func TestBudgetExhaustion(t *testing.T) {
	shell := testShell(t)
	m := optimizeSQL(t, shell, `SELECT c_name FROM customer c, orders o, lineitem l, part p
		WHERE c.c_custkey = o.o_custkey AND o.o_orderkey = l.l_orderkey AND l.l_partkey = p.p_partkey`, 40)
	if !m.Exhausted() {
		t.Error("tiny budget must exhaust")
	}
	if _, err := m.BestPlan(); err != nil {
		t.Errorf("plan must still extract under exhaustion: %v", err)
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
			if !ok || e.Physical || len(gb.Aggs) == 0 {
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
	m := optimizeSQL(t, testShell(t), "SELECT c_name FROM customer WHERE c_acctbal > 10 AND c_acctbal < 5", 0)
	plan, err := m.BestPlan()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan.String(), "ValuesScan") {
		t.Errorf("expected ValuesScan:\n%s", plan)
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
