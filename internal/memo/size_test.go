package memo

import (
	"fmt"
	"testing"

	"pdwqo/internal/algebra"
	"pdwqo/internal/normalize"
	"pdwqo/internal/qgen"
	"pdwqo/internal/tpch"
)

// isReorderable reports whether e is a logical inner/cross join — the
// expressions the join-order rules produce and logical keys identify.
func isReorderable(e *GroupExpr) bool {
	j, ok := e.Op.(*algebra.Join)
	return ok && (j.Kind == algebra.JoinInner || j.Kind == algebra.JoinCross)
}

// searchSpace is the size of an explored memo in the terms the DP-table
// bounds are stated in.
type searchSpace struct {
	joinGroups int // groups holding an inner/cross join
	atomSets   int // distinct atom sets among them
	joinExprs  int // logical inner/cross join expressions
	splits     int // distinct (left group, right group) pairs among them
}

// measureSearchSpace checks the invariants that keep the memo one group per
// relation set — exploration finished, no equivalence was ever asserted
// between two groups the index held apart, every join expression sits in
// the group that owns its key, no key is owned twice — and returns the
// counts.
func measureSearchSpace(t *testing.T, m *Memo) searchSpace {
	t.Helper()
	if m.Exhausted() {
		t.Errorf("exploration exhausted the budget of %d expressions", m.Budget)
	}
	if m.conflicts != 0 {
		t.Errorf("%d inserts asserted an equivalence between two existing groups", m.conflicts)
	}
	var s searchSpace
	owner := map[string]GroupID{}
	atomSets := map[string]bool{}
	for _, g := range m.Groups[1:] {
		joins := 0
		splits := map[[2]GroupID]bool{}
		for _, e := range g.Exprs {
			if !isReorderable(e) {
				continue
			}
			joins++
			splits[[2]GroupID{e.Children[0], e.Children[1]}] = true
			k, _ := m.keyOf(e)
			enc := string(k.appendTo(nil))
			if got := m.keyGroup[enc]; got != g.ID {
				t.Errorf("group %d holds a join whose key the index gives to group %d", g.ID, got)
			}
			if prev, ok := owner[enc]; ok && prev != g.ID {
				t.Errorf("groups %d and %d share a logical key", prev, g.ID)
			}
			owner[enc] = g.ID
			atomSets[fmt.Sprint(k.atoms)] = true
		}
		if joins > 0 {
			s.joinGroups++
			s.joinExprs += joins
			s.splits += len(splits)
		}
	}
	s.atomSets = len(atomSets)
	return s
}

// TestSearchSpaceSize pins the size of the explored search space: a join
// region over n relations has at most 2ⁿ−n−1 relation sets of two or more,
// each split into two sides in at most 2^|S|−2 ordered ways (3ⁿ−2ⁿ⁺¹+1 in
// all), and the memo holds one group per set and one expression per split —
// plus, for each of the n−1 joins of the query as written whose condition
// lists its conjuncts in another order than canonicalAnd's, that join and
// its commute a second time.
// Before groups were identified by logical key, TPC-H q05 held 1,461 groups
// for its 63 relation sets and ran out of budget.
func TestSearchSpaceSize(t *testing.T) {
	for _, topo := range qgen.Topologies() {
		for n := 3; n <= 7; n++ {
			q, err := qgen.Generate(qgen.Spec{Topology: topo, Relations: n, Seed: int64(100 + n)})
			if err != nil {
				t.Fatal(err)
			}
			shell, err := q.Shell()
			if err != nil {
				t.Fatal(err)
			}
			m := optimizeSQL(t, shell, q.SQL, DefaultBudget)
			s := measureSearchSpace(t, m)
			if s.joinGroups != s.atomSets || s.joinGroups > 1<<n-n-1 {
				t.Errorf("%s: %d join groups over %d atom sets, want equal and ≤ %d", q.Name, s.joinGroups, s.atomSets, 1<<n-n-1)
			}
			pow3 := 1
			for i := 0; i < n; i++ {
				pow3 *= 3
			}
			if max := pow3 - 2<<n + 1; s.splits > max || s.joinExprs-s.splits > 2*(n-1) {
				t.Errorf("%s: %d logical join expressions over %d splits, want ≤ %d splits and ≤ %d more expressions",
					q.Name, s.joinExprs, s.splits, max, 2*(n-1))
			}
			if t.Failed() {
				t.Fatalf("%s: search space out of bounds", q.Name)
			}
		}
	}
}

// TestSearchSpaceSizeTPCH holds every TPC-H query to the same invariants
// and to 300 groups; the four that used to exhaust the budget with up to
// 1,500 groups are pinned exactly. q08 (eight relations, 255 sets) is the
// one query whose exploration still stops at the default budget.
func TestSearchSpaceSizeTPCH(t *testing.T) {
	shell, _, err := tpch.BuildShell(0.002, 8, 42)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{"q02": 100, "q05": 67, "q07": 67, "q09": 67}
	for _, q := range tpch.Queries() {
		norm := normalizeSQL(t, shell, q.SQL)
		// The §3.1 seed (the greedy join order) is the one caller of
		// InsertSeed: its join regions must fold into the groups the
		// query's own tree made.
		for _, seeds := range [][]*algebra.Tree{nil, {normalize.GreedyJoinOrder(norm)}} {
			m, err := OptimizeSeeded(shell, norm, DefaultBudget, seeds...)
			if err != nil {
				t.Fatal(err)
			}
			if q.Name == "q08" {
				if !m.Exhausted() {
					t.Errorf("q08 no longer exhausts the default budget: drop this exemption")
				}
				m.exhausted = false
			}
			s := measureSearchSpace(t, m)
			if s.joinGroups != s.atomSets {
				t.Errorf("%s: %d join groups over %d atom sets", q.Name, s.joinGroups, s.atomSets)
			}
			if n := m.NumGroups(); n > 300 || (seeds == nil && want[q.Name] != 0 && n != want[q.Name]) {
				t.Errorf("%s: %d groups, want ≤ 300 (unseeded: %d)", q.Name, n, want[q.Name])
			}
		}
	}
}

// TestAssertedEquivalenceBetweenGroups shows what InsertExpr does with the
// one input no rule produces — an expression that belongs to one existing
// group, inserted with another as its target. There is no group merge: the
// expression joins the group that owns its key, the target is left alone,
// the memo's indexes stay coherent and the event is counted.
func TestAssertedEquivalenceBetweenGroups(t *testing.T) {
	shell := testShell(t)
	m := New(shell)
	m.Root = m.Insert(normalizeSQL(t, shell, `SELECT c_name FROM customer c, orders o, lineitem l
		WHERE c.c_custkey = o.o_custkey AND o.o_orderkey = l.l_orderkey`))
	var sub *Group // customer ⋈ orders: the first join Insert reaches
	for _, g := range m.Groups[1:] {
		if isReorderable(g.Exprs[0]) {
			sub = g
			break
		}
	}
	if sub == nil || sub.ID == m.Root {
		t.Fatalf("no join group beneath the root:\n%s", m)
	}
	e := sub.Exprs[0]
	commuted := &GroupExpr{Op: e.Op, Children: []GroupID{e.Children[1], e.Children[0]}}
	rootExprs := len(m.Groups[m.Root].Exprs)

	got, added := m.InsertExpr(commuted, m.Root)
	if got != sub.ID || !added || m.conflicts != 1 {
		t.Errorf("InsertExpr = group %d, added %v, conflicts %d; want group %d, true, 1", got, added, m.conflicts, sub.ID)
	}
	if _, again := m.InsertExpr(commuted, m.Root); again || m.conflicts != 2 {
		t.Errorf("re-insert: added %v, conflicts %d; want false, 2", again, m.conflicts)
	}
	if len(m.Groups[m.Root].Exprs) != rootExprs || len(sub.Exprs) != 2 {
		t.Errorf("root has %d expressions (was %d), owner has %d (want 2)", len(m.Groups[m.Root].Exprs), rootExprs, len(sub.Exprs))
	}
	m.conflicts = 0
	m.Explore()
	measureSearchSpace(t, m)
}

// TestExploreEndsAtTheClosure is what core.SearchSpace counts, checked on
// the memo: explored without a budget, a join region over n
// relations holds exactly one group per relation set of two or more and one
// split per ordered pair of sides — the closure under commutation and
// associativity, cross products included — and the memo Explore returns is
// a fixpoint: exploring it again creates nothing.
func TestExploreEndsAtTheClosure(t *testing.T) {
	for _, topo := range qgen.Topologies() {
		for n := 2; n <= 8; n++ {
			q, err := qgen.Generate(qgen.Spec{Topology: topo, Relations: n, Seed: int64(300 + n)})
			if err != nil {
				t.Fatal(err)
			}
			shell, err := q.Shell()
			if err != nil {
				t.Fatal(err)
			}
			m := optimizeSQL(t, shell, q.SQL, 0)
			s := measureSearchSpace(t, m)
			pow3 := 1
			for i := 0; i < n; i++ {
				pow3 *= 3
			}
			if s.atomSets != 1<<n-n-1 || s.splits != pow3-2<<n+1 {
				t.Errorf("%s: %d relation sets and %d splits, want the closure's %d and %d",
					q.Name, s.atomSets, s.splits, 1<<n-n-1, pow3-2<<n+1)
			}
			exprs := m.NumExprs()
			if m.Explore(); m.NumExprs() != exprs {
				t.Errorf("%s: exploring the explored memo again added %d expressions", q.Name, m.NumExprs()-exprs)
			}
		}
	}
}
