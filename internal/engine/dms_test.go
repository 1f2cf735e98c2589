package engine

import (
	"context"
	"math"
	"strings"
	"testing"

	"pdwqo/internal/types"
	"pdwqo/internal/vec"
)

// TestRouteMatchesRowRouting: routing a batch by its typed key column
// sends every row where types.Hash of its boxed key sends it (NULL keys to
// node 0), in row order, for every key representation; each destination's
// gathered batch meters Σ Row.Width of its rows; under trim a source keeps
// exactly its own share.
func TestRouteMatchesRowRouting(t *testing.T) {
	keys := map[string][]types.Value{
		"int":    {types.NewInt(1), types.Null, types.NewInt(-7), types.NewInt(1 << 40)},
		"float":  {types.NewFloat(0), types.NewFloat(math.Copysign(0, -1)), types.NewFloat(math.NaN()), types.Null, types.NewFloat(2.5)},
		"string": {types.NewString(""), types.NewString("BUILDING"), types.Null, types.NewString("héllo")},
		"date":   {types.NewDate(9131), types.Null, types.NewDate(-1)},
		"bit":    {types.NewBool(true), types.NewBool(false), types.Null},
		"null":   {types.Null},
		"mixed":  {types.NewInt(3), types.NewFloat(3), types.NewString("3"), types.Null, types.NewDate(3)},
	}
	const nodes = 4
	for name, vals := range keys {
		var rows []types.Row
		for i := 0; i < 300; i++ {
			pad := types.NewString(strings.Repeat("x", i%7))
			if i%5 == 0 {
				pad = types.Null
			}
			rows = append(rows, types.Row{pad, vals[i%len(vals)]})
		}
		b := vec.BatchFromRows(2, rows)
		for self := -1; self < nodes; self++ {
			trim := self >= 0
			want := make([][]types.Row, nodes)
			for _, r := range rows {
				n := 0
				if !r[1].IsNull() {
					n = int(types.Hash(r[1]) % nodes)
				}
				if !trim || n == self {
					want[n] = append(want[n], r)
				}
			}
			sels := route(b, 1, nodes, trim, self)
			for n := 0; n < nodes; n++ {
				var got []types.Row
				var bytes int64
				if len(sels[n]) > 0 {
					d := vec.Concat(2, []*vec.Batch{b}, [][]int32{sels[n]})
					got, bytes = vec.AppendRows(nil, d), d.Bytes()
				}
				var wantBytes int64
				for _, r := range want[n] {
					wantBytes += int64(r.Width())
				}
				if len(got) != len(want[n]) || bytes != wantBytes {
					t.Fatalf("%s trim=%v self=%d node %d: %d rows / %d bytes, row routing %d / %d",
						name, trim, self, n, len(got), bytes, len(want[n]), wantBytes)
				}
				for i := range got {
					if got[i].String() != want[n][i].String() || got[i][1].Kind() != want[n][i][1].Kind() {
						t.Fatalf("%s trim=%v node %d row %d: %v, row routing %v", name, trim, n, i, got[i], want[n][i])
					}
				}
			}
		}
	}
}

// BenchmarkShuffleMove runs a plan whose one move shuffles the whole
// orders table on o_custkey (sf 0.01, 8 nodes): routing by the typed key
// column, a gather per destination and a columnar insert into staging.
func BenchmarkShuffleMove(b *testing.B) {
	a, _ := buildApplianceSF(b, 0.01, 8)
	p := planFor(b, a, `SELECT c_name, o_totalprice, o_orderdate FROM customer, orders WHERE c_custkey = o_custkey`)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.Execute(context.Background(), p, ExecConfig{}); err != nil {
			b.Fatal(err)
		}
	}
}
