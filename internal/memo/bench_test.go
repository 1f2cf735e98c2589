package memo_test

import (
	"testing"

	"pdwqo/internal/memo"
	"pdwqo/internal/qgen"
	"pdwqo/internal/tpch"
)

// BenchmarkExplore times building and exploring one serial memo to the
// default budget: TPC-H q08, the one query that exhausts it, and the star
// and clique 30-relation joins of the compile_largejoin workload.
func BenchmarkExplore(b *testing.B) {
	shell, _, err := tpch.BuildShell(0.002, 8, 42)
	if err != nil {
		b.Fatal(err)
	}
	q08, _ := tpch.Get("q08")
	cases := []digestCase{{"q08", shell, normalized(b, shell, q08.SQL)}}
	for _, topo := range []qgen.Topology{qgen.Star, qgen.Clique} {
		q, err := qgen.Generate(qgen.Spec{Topology: topo, Relations: 30, Seed: 42030, Nodes: 8})
		if err != nil {
			b.Fatal(err)
		}
		qs, err := q.Shell()
		if err != nil {
			b.Fatal(err)
		}
		cases = append(cases, digestCase{string(topo) + "030", qs, normalized(b, qs, q.SQL)})
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m := memo.New(c.shell)
				m.Budget = memo.DefaultBudget
				m.Root = m.Insert(c.tree)
				m.Explore()
				if !m.Exhausted() {
					b.Fatalf("%s explored to a fixpoint within the default budget", c.name)
				}
			}
		})
	}
}
