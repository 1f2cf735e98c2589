package core

import (
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

// enumCase is one decoded memo the enumerator is run over.
type enumCase struct {
	Name  string
	Dec   *memoxml.Decoded
	Shell *catalog.Shell
}

// decodeMemo compiles sql up to the PDW side's input: the serial memo
// explored to memo.DefaultBudget or, with fixed, built over the greedy join
// order (the regime a large join falls back to), costed for the serial
// baseline when costed, round-tripped through XML.
func decodeMemo(tb testing.TB, s *catalog.Shell, sql string, fixed, costed bool) *memoxml.Decoded {
	tb.Helper()
	sel, err := sqlparser.ParseSelect(sql)
	if err != nil {
		tb.Fatal(err)
	}
	b := algebra.NewBinder(s)
	tree, err := b.Bind(sel)
	if err != nil {
		tb.Fatal(err)
	}
	norm, err := normalize.New(b).Normalize(tree)
	if err != nil {
		tb.Fatal(err)
	}
	var m *memo.Memo
	if fixed {
		m, err = memo.OptimizeFixed(s, normalize.GreedyJoinOrder(norm))
	} else {
		m, err = memo.OptimizeSeeded(s, norm, memo.DefaultBudget)
	}
	if err != nil {
		tb.Fatal(err)
	}
	if costed {
		if err := m.CostSerial(); err != nil {
			tb.Fatal(err)
		}
	}
	data, err := memoxml.Encode(m)
	if err != nil {
		tb.Fatal(err)
	}
	dec, err := memoxml.Decode(data, s)
	if err != nil {
		tb.Fatal(err)
	}
	return dec
}

// enumCorpus is the 22 TPC-H queries and the qgen corpus: joins of up to
// ten relations exhaustively, larger ones over their greedy order.
func enumCorpus(tb testing.TB) []enumCase {
	tb.Helper()
	s, _, err := tpch.BuildShell(0.002, 8, 42)
	if err != nil {
		tb.Fatal(err)
	}
	var out []enumCase
	for _, q := range tpch.Queries() {
		out = append(out, enumCase{q.Name, decodeMemo(tb, s, q.SQL, false, false), s})
	}
	for _, spec := range qgen.Corpus() {
		q, err := qgen.Generate(spec)
		if err != nil {
			tb.Fatal(err)
		}
		qs, err := q.Shell()
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, enumCase{q.Name, decodeMemo(tb, qs, q.SQL, spec.Relations > 10, false), qs})
	}
	return out
}

func optimized(t *testing.T, c enumCase, cfg Config) *Optimizer {
	t.Helper()
	model := cost.NewModel(c.Shell.Topology.ComputeNodes, cost.DefaultLambda())
	o := New(c.Dec, c.Shell, model, cfg)
	if _, err := o.Optimize(); err != nil {
		t.Fatalf("%s: %v", c.Name, err)
	}
	return o
}

// TestMintedColumnsStayOutOfSets holds the rule that keeps column sets
// dense: the partial-aggregate state columns minted above Decoded.MaxCol
// appear in option schemas, never in a placement's class, an interesting
// set or a group's output set.
func TestMintedColumnsStayOutOfSets(t *testing.T) {
	minted := 0
	for _, c := range enumCorpus(t) {
		for _, par := range []int{1, 4} {
			o := optimized(t, c, Config{Parallelism: par})
			limit := algebra.ColumnID(c.Dec.MaxCol)
			check := func(what string, s algebra.ColSet) {
				if ids := s.Sorted(); len(ids) > 0 && ids[len(ids)-1] > limit {
					t.Errorf("%s P=%d: %s holds c%d above MaxCol %d", c.Name, par, what, ids[len(ids)-1], limit)
				}
			}
			for id, g := range o.groups {
				check(fmt.Sprintf("group %d interesting", id), g.interesting)
				check(fmt.Sprintf("group %d outSet", id), g.outSet)
				for _, opt := range g.opts {
					opt.Visit(func(n *Option) {
						check(fmt.Sprintf("group %d option %s", id, n.Dist), n.Dist.Cols)
						for _, col := range n.OutCols {
							if col.ID > limit {
								minted++
							}
						}
					})
				}
			}
		}
	}
	if minted == 0 {
		t.Fatal("no option carries a minted column: the test checks nothing")
	}
}

// BenchmarkEnumerate times the PDW enumerator alone (Figure 4 steps 01–09)
// on the exhaustive memos of q05, q08 and q09, serially.
func BenchmarkEnumerate(b *testing.B) {
	s, _, err := tpch.BuildShell(0.002, 8, 42)
	if err != nil {
		b.Fatal(err)
	}
	model := cost.NewModel(s.Topology.ComputeNodes, cost.DefaultLambda())
	for _, name := range []string{"q05", "q08", "q09"} {
		q, ok := tpch.Get(name)
		if !ok {
			b.Fatalf("no query %s", name)
		}
		dec := decodeMemo(b, s, q.SQL, false, false)
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := New(dec, s, model, Config{Parallelism: 1}).Optimize(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
