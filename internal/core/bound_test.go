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
	m, err := memo.Optimize(c.shell, normalizedTree(t, c), memo.DefaultBudget)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestSearchLowerBoundGrowsWithExploration is what lets pdwqo.compile stop
// exploring at the first checkpoint whose bound meets the budget: the bound
// counts groups reachable from the root and their logical expressions, and
// exploration only adds groups, expressions and edges, so every checkpoint's
// bound is at least the one before and at most the finished memo's. A
// predicate that never says yes must leave the memo as memo.Optimize builds
// it; one that does must get it back unimplemented.
func TestSearchLowerBoundGrowsWithExploration(t *testing.T) {
	asked := 0
	for _, c := range boundCorpus(t) {
		tree := normalizedTree(t, c)
		var bounds []int
		m, err := memo.OptimizeUntil(c.shell, tree, memo.DefaultBudget, func(m *memo.Memo) bool {
			bounds = append(bounds, SearchLowerBound(m))
			return false
		})
		if err != nil {
			t.Fatal(err)
		}
		final := SearchLowerBound(m)
		for i, b := range bounds {
			if (i > 0 && b < bounds[i-1]) || b > final {
				t.Fatalf("%s: bound fell, or passed the finished memo's %d: %v", c.name, final, bounds)
			}
		}
		asked += len(bounds)
		if want := exploredMemo(t, c); m.Decided() || m.NumExprs() != want.NumExprs() || m.NumGroups() != want.NumGroups() {
			t.Errorf("%s: asking changed the memo: decided %v, %d expressions in %d groups, want %d in %d",
				c.name, m.Decided(), m.NumExprs(), m.NumGroups(), want.NumExprs(), want.NumGroups())
		}
		half := final / 2
		m, err = memo.OptimizeUntil(c.shell, tree, memo.DefaultBudget, func(m *memo.Memo) bool { return SearchLowerBound(m) >= half })
		if err != nil {
			t.Fatal(err)
		}
		if !m.Decided() || m.Group(m.Root).Winner() != nil || SearchLowerBound(m) < half {
			t.Errorf("%s: decided %v at bound %d of %d, root winner %v", c.name, m.Decided(), SearchLowerBound(m), final, m.Group(m.Root).Winner())
		}
	}
	if asked < 10*len(boundCorpus(t)) {
		t.Errorf("%d checkpoints over the corpus: the cadence no longer samples exploration", asked)
	}
}

// TestSearchLowerBoundIsSound is the property the regime shortcut in
// pdwqo.compile rests on: an enumeration given SearchBudget = bound trips,
// having considered at least bound options — under the paper's
// configuration and under each ablation switch, none of which removes an
// option the bound counts. A memo of one wave has no barrier and bound 0.
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
