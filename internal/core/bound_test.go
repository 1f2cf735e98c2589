package core

import (
	"fmt"
	"testing"

	"pdwqo/internal/algebra"
	"pdwqo/internal/catalog"
	"pdwqo/internal/memo"
	"pdwqo/internal/normalize"
	"pdwqo/internal/qgen"
	"pdwqo/internal/sqlparser"
	"pdwqo/internal/tpch"
)

// boundCase is one query whose explored memo the count is checked against.
type boundCase struct {
	name, sql string
	shell     *catalog.Shell
}

// boundCorpus is TPC-H on 1, 2, 4 and 8 nodes plus generated joins of
// every topology from 2 to 10 relations. -short keeps one topology of
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
	for i, relations := range []int{2, 3, 4, 6, 8, 10} {
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

// memoWeight is the weight SearchSpace counts, read off an explored memo:
// over the non-root groups the root reaches, 1 per group plus 2 per
// non-leaf logical expression and 1 per leaf.
func memoWeight(m *memo.Memo) int {
	seen := make([]bool, len(m.Groups))
	weight := 0
	var visit func(id memo.GroupID)
	visit = func(id memo.GroupID) {
		if seen[id] {
			return
		}
		seen[id] = true
		w := 1
		for _, e := range m.Group(id).Exprs {
			if w += 2; len(e.Children) == 0 {
				w--
			}
			for _, c := range e.Children {
				visit(c)
			}
		}
		if id != m.Root {
			weight += w
		}
	}
	visit(m.Root)
	return weight
}

// TestSearchSpaceIsBelowTheMemo checks the count against the memo it
// counts: over the corpus, wherever exploration at the default memo budget
// reaches its fixpoint, the count read off the tree is at most the weight
// of the explored memo (rules beyond join reordering only add to it), and
// at least half of it, so that a count of 0 cannot pass.
func TestSearchSpaceIsBelowTheMemo(t *testing.T) {
	equal, below, truncated := 0, 0, 0
	for _, c := range boundCorpus(t) {
		tree := normalizedTree(t, c)
		m, err := memo.OptimizeSeeded(c.shell, tree, memo.DefaultBudget)
		if err != nil {
			t.Fatal(err)
		}
		if m.Exhausted() {
			truncated++
			continue
		}
		count, weight := SearchSpace(tree), memoWeight(m)
		switch {
		case count > weight:
			t.Errorf("%s: search space %d exceeds the explored memo's weight %d (%d expressions)", c.name, count, weight, m.NumExprs())
		case count < weight/2:
			t.Errorf("%s: search space %d under half the explored memo's weight %d", c.name, count, weight)
		case count == weight:
			equal++
		default:
			below++
		}
	}
	t.Logf("search space equal to the memo's weight in %d, below it in %d; %d memos truncated", equal, below, truncated)
}

// TestSearchSpaceSharedNodes covers the trees the corpus never makes: a
// root that is itself a join region, a region whose input repeats, and two
// regions over one shared input. The memo folds each repeat into one group,
// so the count must count it once; the expected values are worked by hand
// from SearchSpace's doc.
func TestSearchSpaceSharedNodes(t *testing.T) {
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
	// weight is what the count gives an input subtree: 2 for a leaf, and 3
	// plus its children's for anything else (none of them holds a join).
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
		want int
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
		m, err := memo.OptimizeSeeded(c.shell, tc.tree, 0)
		if err != nil {
			t.Fatal(err)
		}
		if count, w := SearchSpace(tc.tree), memoWeight(m); count != tc.want || count > w {
			t.Errorf("%s: search space %d, want %d and at most the fixpoint memo's weight %d", tc.name, count, tc.want, w)
		}
	}
}
