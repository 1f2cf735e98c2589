package core

import (
	"errors"
	"fmt"
	"testing"

	"pdwqo/internal/algebra"
	"pdwqo/internal/catalog"
	"pdwqo/internal/cost"
	"pdwqo/internal/memo"
	"pdwqo/internal/memoxml"
	"pdwqo/internal/normalize"
	"pdwqo/internal/qgen"
	"pdwqo/internal/sqlparser"
	"pdwqo/internal/tpch"
)

// boundCase is one query whose explored memo the bound is checked against.
type boundCase struct {
	name, sql string
	shell     *catalog.Shell
}

// boundCorpus is TPC-H on 1, 2, 4 and 8 nodes plus generated joins of
// every topology from 2 to 30 relations. -short keeps one topology of
// each size and two node counts.
func boundCorpus(t *testing.T) []boundCase {
	t.Helper()
	var out []boundCase
	nodes := []int{1, 2, 4, 8}
	if testing.Short() {
		nodes = []int{1, 8}
	}
	for _, n := range nodes {
		s, _, err := tpch.BuildShell(0.002, n, 42)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range tpch.Queries() {
			out = append(out, boundCase{fmt.Sprintf("%s/N=%d", q.Name, n), q.SQL, s})
		}
	}
	for i, relations := range []int{2, 3, 4, 6, 8, 10, 16, 24, 30} {
		for j, topo := range qgen.Topologies() {
			if testing.Short() && j != i%len(qgen.Topologies()) {
				continue
			}
			q, err := qgen.Generate(qgen.Spec{Topology: topo, Relations: relations, Seed: int64(7000 + 31*i + j)})
			if err != nil {
				t.Fatal(err)
			}
			s, err := q.Shell()
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, boundCase{q.Name, q.SQL, s})
		}
	}
	return out
}

func normalizedTree(t *testing.T, c boundCase) *algebra.Tree {
	t.Helper()
	sel, err := sqlparser.ParseSelect(c.sql)
	if err != nil {
		t.Fatal(err)
	}
	b := algebra.NewBinder(c.shell)
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

func exploredMemo(t *testing.T, c boundCase) *memo.Memo {
	t.Helper()
	m, err := memo.OptimizeSeeded(c.shell, normalizedTree(t, c), memo.DefaultBudget)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// SearchLowerBound is the memo's weight that TreeLowerBound's proof bounds
// from below: over the non-root groups the root reaches, 1 for the enforcer
// step, 2 per non-leaf logical expression and 1 per leaf. Its first half —
// the enumeration considers at least this many options by its last budget
// barrier — is TestSearchLowerBoundIsSound; its second — the tree bound
// never exceeds it — is TestTreeLowerBoundIsBelowTheMemo.
func SearchLowerBound(m *memo.Memo) int {
	seen := make([]bool, len(m.Groups))
	bound := 0
	var visit func(id memo.GroupID)
	visit = func(id memo.GroupID) {
		if seen[id] {
			return
		}
		seen[id] = true
		options := 1 // the enforcer step
		for _, e := range m.Group(id).Exprs {
			if options += 2; len(e.Children) == 0 {
				options--
			}
			for _, c := range e.Children {
				visit(c)
			}
		}
		if id != m.Root {
			bound += options
		}
	}
	visit(m.Root)
	return bound
}

// largestRegion is the most inputs of any inner/cross-join region of t.
func largestRegion(t *algebra.Tree) int {
	most := 0
	var inputs func(t *algebra.Tree) int
	inputs = func(t *algebra.Tree) int {
		if !reorderable(t) {
			most = max(most, largestRegion(t))
			return 1
		}
		return inputs(t.Children[0]) + inputs(t.Children[1])
	}
	if reorderable(t) {
		return max(inputs(t), most)
	}
	for _, c := range t.Children {
		most = max(most, largestRegion(c))
	}
	return most
}

// TestTreeLowerBoundIsBelowTheMemo is what lets pdwqo.compile choose the
// greedy regime before any memo exists: over the corpus, with and without
// the §3.1 seed, at memo budgets that truncate exploration and — for
// regions of up to eight inputs — at none, the bound read off the tree is
// at most the weight of the memo memo.OptimizeSeeded builds from it. It
// also holds the bound to a floor, so that a bound of 0 cannot pass: it
// meets at least half the weight of every memo at a fixpoint, and of a
// truncated memo at least that or the truncation term 2·(B − 2).
func TestTreeLowerBoundIsBelowTheMemo(t *testing.T) {
	runs, tight := 0, 0
	for _, c := range boundCorpus(t) {
		tree := normalizedTree(t, c)
		seedings := [][]*algebra.Tree{nil}
		if g := normalize.GreedyJoinOrder(tree); g.Fingerprint() != tree.Fingerprint() {
			seedings = append(seedings, []*algebra.Tree{g})
		}
		budgets := []int{50, 500, memo.DefaultBudget}
		if largestRegion(tree) <= 8 {
			budgets = append(budgets, 0)
		}
		for _, seeds := range seedings {
			for _, b := range budgets {
				m, err := memo.OptimizeSeeded(c.shell, tree, b, seeds...)
				if err != nil {
					t.Fatal(err)
				}
				bound, weight := TreeLowerBound(tree, b, seeds...), SearchLowerBound(m)
				runs++
				if bound > weight {
					t.Errorf("%s memo budget %d, %d seeds: tree bound %d exceeds the memo's %d (%d expressions, exhausted %v)",
						c.name, b, len(seeds), bound, weight, m.NumExprs(), m.Exhausted())
				}
				if bound == weight {
					tight++
				}
				if floor := weight / 2; !m.Exhausted() && bound < floor {
					t.Errorf("%s memo budget %d, %d seeds: tree bound %d under half the fixpoint memo's %d", c.name, b, len(seeds), bound, weight)
				}
				if floor := min(weight/2, 2*(b-2)); m.Exhausted() && bound < floor {
					t.Errorf("%s memo budget %d, %d seeds: tree bound %d under %d for a truncated memo of weight %d", c.name, b, len(seeds), bound, floor, weight)
				}
			}
		}
	}
	t.Logf("%d runs, bound equal to the memo's weight in %d", runs, tight)
}

// TestTreeLowerBoundSharedNodes covers the trees the corpus never makes:
// a root that is itself a join region, a region whose input repeats, and
// two regions over one shared input. The memo folds each repeat into one
// group, so the bound must count it once; the expected values are worked
// by hand from the proof.
func TestTreeLowerBoundSharedNodes(t *testing.T) {
	q, _ := tpch.Get("q05")
	c := boundCase{"q05", q.SQL, shell(t)}
	var inputs []*algebra.Tree
	var walk func(n *algebra.Tree)
	walk = func(n *algebra.Tree) {
		if reorderable(n) {
			walk(n.Children[0])
			walk(n.Children[1])
			return
		}
		if len(inputs) < 3 {
			inputs = append(inputs, n)
		}
	}
	var find func(n *algebra.Tree)
	find = func(n *algebra.Tree) {
		if reorderable(n) {
			walk(n)
			return
		}
		for _, ch := range n.Children {
			find(ch)
		}
	}
	find(normalizedTree(t, c))
	if len(inputs) < 3 {
		t.Fatalf("q05's join region has %d inputs, want at least 3", len(inputs))
	}
	a, b, in3 := inputs[0], inputs[1], inputs[2]
	// weight is what the proof counts for an input subtree: 2 for a leaf, and
	// 3 plus its children's for anything else (none of them holds a join).
	var weight func(n *algebra.Tree) int
	weight = func(n *algebra.Tree) int {
		if len(n.Children) == 0 {
			return 2
		}
		w := 3
		for _, ch := range n.Children {
			w += weight(ch)
		}
		return w
	}
	cross := func(l, r *algebra.Tree) *algebra.Tree {
		return algebra.NewTree(&algebra.Join{Kind: algebra.JoinCross}, l, r)
	}
	ab := cross(a, b)
	cases := []struct {
		name string
		tree *algebra.Tree
		want int // at no memo budget
	}{
		// Three pair groups of weight 1 + 2·2 below the root.
		{"root region", cross(ab, in3), 3*5 + weight(a) + weight(b) + weight(in3)},
		// The repeated input folds the two joins into one group: only the
		// inputs are counted.
		{"repeated input", cross(ab, ab), weight(a) + weight(b)},
		// a is an input of both regions; only the first counts its pair.
		{"shared input", algebra.NewTree(&algebra.Join{Kind: algebra.JoinLeftOuter}, ab, cross(a, in3)), 5 + weight(a) + weight(b) + weight(in3)},
	}
	for _, tc := range cases {
		for _, budget := range []int{0, 50} {
			m, err := memo.OptimizeSeeded(c.shell, tc.tree, budget)
			if err != nil {
				t.Fatal(err)
			}
			bound, memoWeight := TreeLowerBound(tc.tree, budget), SearchLowerBound(m)
			if bound > memoWeight {
				t.Errorf("%s, memo budget %d: bound %d exceeds the memo's weight %d", tc.name, budget, bound, memoWeight)
			}
			if budget == 0 && bound != tc.want {
				t.Errorf("%s: bound %d, want %d", tc.name, bound, tc.want)
			}
		}
	}
}

// TestSearchLowerBoundIsSound is the first half of TreeLowerBound's proof,
// on which the regime shortcut in pdwqo.compile rests: an enumeration given
// SearchBudget = the memo's weight trips, having considered at least that
// many options — under the paper's configuration and under each ablation
// switch, none of which removes an option the weight counts. A memo of one
// wave has no barrier and weight 0.
func TestSearchLowerBoundIsSound(t *testing.T) {
	configs := []struct {
		name string
		cfg  Config
	}{
		{"full", Config{}},
		{"no-agg-split", Config{DisableAggSplit: true}},
		{"no-interesting-retention", Config{DisableInterestingRetention: true}},
	}
	tight := 0
	for _, c := range boundCorpus(t) {
		m := exploredMemo(t, c)
		bound := SearchLowerBound(m)
		if bound == 0 {
			if m.NumGroups() > 1 {
				t.Errorf("%s: bound 0 for a memo of %d groups", c.name, m.NumGroups())
			}
			continue
		}
		data, err := memoxml.Encode(m)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := memoxml.Decode(data, c.shell)
		if err != nil {
			t.Fatal(err)
		}
		model := cost.NewModel(c.shell.Topology.ComputeNodes, cost.DefaultLambda())
		for _, cc := range configs {
			cfg := cc.cfg
			cfg.SearchBudget = bound
			_, err := New(dec, c.shell, model, cfg).Optimize()
			var be *BudgetError
			if !errors.As(err, &be) {
				t.Errorf("%s/%s: SearchBudget = bound %d did not trip: %v", c.name, cc.name, bound, err)
				continue
			}
			if int64(bound) > be.Considered {
				t.Errorf("%s/%s: bound %d exceeds the %d options considered at wave %d/%d",
					c.name, cc.name, bound, be.Considered, be.Wave, be.Waves)
			}
			if int64(bound) == be.Considered {
				tight++
			}
		}
	}
	t.Logf("bound met with equality in %d runs", tight)
}

// TestSearchLowerBoundExcludesSerialBaseline records why the shortcut is
// limited to ModeFull: the baseline enumerates one expression per group,
// so a bound counted over every logical expression overshoots it — here a
// budget of bound lets the baseline finish where the full search trips.
func TestSearchLowerBoundExcludesSerialBaseline(t *testing.T) {
	q, _ := tpch.Get("q05")
	c := boundCase{"q05", q.SQL, shell(t)}
	m := exploredMemo(t, c)
	bound := SearchLowerBound(m)
	if err := m.CostSerial(); err != nil {
		t.Fatal(err)
	}
	data, err := memoxml.Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := memoxml.Decode(data, c.shell)
	if err != nil {
		t.Fatal(err)
	}
	model := cost.NewModel(c.shell.Topology.ComputeNodes, cost.DefaultLambda())
	if _, err := New(dec, c.shell, model, Config{Mode: ModeSerialBaseline, SearchBudget: bound}).Optimize(); err != nil {
		t.Fatalf("serial baseline under SearchBudget = bound %d: %v (the bound is not expected to hold there)", bound, err)
	}
	var be *BudgetError
	if _, err := New(dec, c.shell, model, Config{SearchBudget: bound}).Optimize(); !errors.As(err, &be) {
		t.Fatalf("full search under SearchBudget = bound %d did not trip: %v", bound, err)
	}
}
