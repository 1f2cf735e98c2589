package memoxml

import (
	"testing"

	"pdwqo/internal/algebra"
	"pdwqo/internal/catalog"
	"pdwqo/internal/memo"
	"pdwqo/internal/normalize"
	"pdwqo/internal/qgen"
	"pdwqo/internal/sqlparser"
	"pdwqo/internal/tpch"
)

// exploredMemo is the serial half of the pipeline for tests and
// benchmarks alike: parse, bind, normalize, explore at the default budget.
func exploredMemo(tb testing.TB, shell *catalog.Shell, sql string) *memo.Memo {
	tb.Helper()
	sel, err := sqlparser.ParseSelect(sql)
	if err != nil {
		tb.Fatal(err)
	}
	b := algebra.NewBinder(shell)
	tree, err := b.Bind(sel)
	if err != nil {
		tb.Fatal(err)
	}
	norm, err := normalize.New(b).Normalize(tree)
	if err != nil {
		tb.Fatal(err)
	}
	m, err := memo.OptimizeSeeded(shell, norm, memo.DefaultBudget)
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

// qgenMemo explores one generated join at the default budget. The shell
// carries no statistics (pdwqo.Open would compute them); the memo's shape,
// which is what the codec's cost depends on, does not need them.
func qgenMemo(tb testing.TB, topo qgen.Topology, relations int) (*memo.Memo, *catalog.Shell) {
	tb.Helper()
	q, err := qgen.Generate(qgen.Spec{Topology: topo, Relations: relations, Seed: 42})
	if err != nil {
		tb.Fatal(err)
	}
	shell, err := q.Shell()
	if err != nil {
		tb.Fatal(err)
	}
	return exploredMemo(tb, shell, q.SQL), shell
}

func tpchMemo(tb testing.TB, name string) (*memo.Memo, *catalog.Shell) {
	tb.Helper()
	shell, _, err := tpch.BuildShell(0.002, 8, 42)
	if err != nil {
		tb.Fatal(err)
	}
	q, ok := tpch.Get(name)
	if !ok {
		tb.Fatalf("no TPC-H query %s", name)
	}
	return exploredMemo(tb, shell, q.SQL), shell
}

// benchMemos are the two documents the codec is sized against: q08, the
// largest TPC-H memo (it exhausts the exploration budget), and a
// 30-relation clique, the explored memo of the largest compile_largejoin
// query.
var benchMemos = []struct {
	name  string
	build func(testing.TB) (*memo.Memo, *catalog.Shell)
}{
	{"q08", func(tb testing.TB) (*memo.Memo, *catalog.Shell) { return tpchMemo(tb, "q08") }},
	{"clique030", func(tb testing.TB) (*memo.Memo, *catalog.Shell) { return qgenMemo(tb, qgen.Clique, 30) }},
}

var (
	sinkBytes   []byte
	sinkDecoded *Decoded
)

func BenchmarkEncode(b *testing.B) {
	for _, bm := range benchMemos {
		b.Run(bm.name, func(b *testing.B) {
			m, _ := bm.build(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				data, err := Encode(m)
				if err != nil {
					b.Fatal(err)
				}
				sinkBytes = data
			}
			b.SetBytes(int64(len(sinkBytes)))
		})
	}
}

func BenchmarkDecode(b *testing.B) {
	for _, bm := range benchMemos {
		b.Run(bm.name, func(b *testing.B) {
			m, shell := bm.build(b)
			data, err := Encode(m)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d, err := Decode(data, shell)
				if err != nil {
					b.Fatal(err)
				}
				sinkDecoded = d
			}
		})
	}
}
