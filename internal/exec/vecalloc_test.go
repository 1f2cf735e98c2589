package exec

import (
	"runtime"
	"testing"

	"pdwqo/internal/algebra"
	"pdwqo/internal/sqlparser"
	"pdwqo/internal/types"
	"pdwqo/internal/vec"
)

// TestVecAllocations pins the allocations of two small pipelines over
// typed tables: a three-conjunct filter under a projection that reads one
// column, over one 1,024-row batch, and an INT-key join probed by four
// batches. A BIT vector or a kept list per conjunct, a filter that
// gathers its output, or pair lists made afresh for each probe batch each
// raise the count past its pin.
func TestVecAllocations(t *testing.T) {
	cols := []algebra.ColumnMeta{
		{ID: 1, Name: "k", Type: types.KindInt},
		{ID: 2, Name: "f", Type: types.KindFloat},
		{ID: 3, Name: "s", Type: types.KindString},
	}
	table := func(n, keys int) *vec.Table {
		rows := make([]types.Row, n)
		for i := range rows {
			rows[i] = types.Row{types.NewInt(int64(i % keys)), types.NewFloat(float64(i%10) / 10), types.NewString("x")}
		}
		return vec.FromRows([]string{"k", "f", "s"}, rows)
	}
	tables := map[string]*vec.Table{"t": table(1024, 1024), "p": table(4*vec.BatchSize, 512), "u": table(64, 64)}
	src := func(name string) (*vec.Table, error) { return tables[name], nil }
	get := func(name string, base algebra.ColumnID) *algebra.Tree {
		c := make([]algebra.ColumnMeta, len(cols))
		for i, m := range cols {
			m.ID += base
			c[i] = m
		}
		tbl := benchTable(c)
		tbl.Name = name
		return algebra.NewTree(&algebra.Get{Table: tbl, Alias: name, Cols: c})
	}
	ref := func(id algebra.ColumnID, kind types.Kind) algebra.Scalar {
		return algebra.NewColRef(algebra.ColumnMeta{ID: id, Type: kind})
	}
	cmp := func(op sqlparser.BinOp, l algebra.Scalar, v types.Value) algebra.Scalar {
		return &algebra.Binary{Op: op, L: l, R: &algebra.Const{Val: v}}
	}
	k, f := ref(1, types.KindInt), ref(2, types.KindFloat)
	pred := &algebra.Binary{Op: sqlparser.OpAnd,
		L: &algebra.Binary{Op: sqlparser.OpAnd, L: cmp(sqlparser.OpGt, k, types.NewInt(10)), R: cmp(sqlparser.OpLt, f, types.NewFloat(0.5))},
		R: cmp(sqlparser.OpLe, k, types.NewInt(900)),
	}
	filter := algebra.NewTree(&algebra.Project{Defs: []algebra.ProjDef{{Expr: k, ID: 50, Name: "k"}}},
		algebra.NewTree(&algebra.Select{Filter: pred}, get("t", 0)))
	join := algebra.NewTree(&algebra.Join{Kind: algebra.JoinInner, On: &algebra.Binary{Op: sqlparser.OpEq, L: ref(11, types.KindInt), R: ref(21, types.KindInt)}},
		get("p", 10), get("u", 20))
	for _, tc := range []struct {
		name string
		tree *algebra.Tree
		rows int
		pin  float64
	}{
		{"filter under project", filter, 445, 36},
		{"INT-key join probe", join, 512, 111},
	} {
		b, err := RunColumns(tc.tree, src, nil)
		if err != nil {
			t.Fatal(err)
		}
		if b.N != tc.rows {
			t.Fatalf("%s: %d rows, want %d", tc.name, b.N, tc.rows)
		}
		got := testing.AllocsPerRun(20, func() {
			if _, err := RunColumns(tc.tree, src, nil); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %v allocations per run", tc.name, got)
		if got > tc.pin {
			t.Errorf("%s: %v allocations per run, pinned at %v", tc.name, got, tc.pin)
		}
	}
}

// TestVecBytes pins the bytes allocated per RunColumns run (the
// runtime.MemStats.TotalAlloc delta over repeated runs on this goroutine;
// testing.AllocsPerRun counts allocations, not their size) of INT-key
// joins over a 16,384-row build side and of an INT-key group-by into
// 8,192 groups over 16 batches. A build side that is a stored table, a
// rename-only projection over a filter of one, or a group-by result is
// kept in place, and a group-by result at the root is returned as it is:
// a copy of any of them, a hash table that stores a copy of every key, a
// Go map from key to group or boxed group and accumulator slabs each
// raise the bytes past the pin. So do a join table sized to the build
// rows rather than to their distinct keys (the build with 2,048 keys) and
// chains allocated for a build whose keys are all unique.
func TestVecBytes(t *testing.T) {
	const n = 16 * vec.BatchSize
	cols := []algebra.ColumnMeta{{ID: 1, Name: "k", Type: types.KindInt}, {ID: 2, Name: "f", Type: types.KindFloat}}
	table := func(rows, keys int) *vec.Table {
		r := make([]types.Row, rows)
		for i := range r {
			r[i] = types.Row{types.NewInt(int64(i * 7 % keys)), types.NewFloat(float64(i) / 4)}
		}
		return vec.FromRows([]string{"k", "f"}, r)
	}
	tables := map[string]*vec.Table{"build": table(n, n), "probe": table(4*vec.BatchSize, n), "facts": table(n, n/2), "dups": table(n, n/8)}
	src := func(name string) (*vec.Table, error) { return tables[name], nil }
	get := func(name string, base algebra.ColumnID) *algebra.Tree {
		c := make([]algebra.ColumnMeta, len(cols))
		for i, m := range cols {
			m.ID += base
			c[i] = m
		}
		tbl := benchTable(c)
		tbl.Name = name
		return algebra.NewTree(&algebra.Get{Table: tbl, Alias: name, Cols: c})
	}
	ref := func(id algebra.ColumnID, kind types.Kind) algebra.Scalar {
		return algebra.NewColRef(algebra.ColumnMeta{ID: id, Type: kind})
	}
	joinOn := func(build *algebra.Tree, key algebra.ColumnID) *algebra.Tree {
		return algebra.NewTree(&algebra.Join{Kind: algebra.JoinInner, On: &algebra.Binary{Op: sqlparser.OpEq, L: ref(11, types.KindInt), R: ref(key, types.KindInt)}},
			get("probe", 10), build)
	}
	group := algebra.NewTree(&algebra.GroupBy{
		Keys: []algebra.ColumnID{31},
		Aggs: []algebra.AggDef{
			{Func: algebra.AggSum, Arg: ref(32, types.KindFloat), ID: 50, Name: "s"},
			{Func: algebra.AggCount, ID: 51, Name: "n"},
		},
		Phase: algebra.AggComplete,
	}, get("facts", 30))
	// The DSQL derived-table shape over a filter keeping three rows of four.
	renamed := algebra.NewTree(&algebra.Project{Defs: []algebra.ProjDef{
		{Expr: ref(22, types.KindFloat), ID: 60, Name: "c0"},
		{Expr: ref(21, types.KindInt), ID: 61, Name: "c1"},
	}}, algebra.NewTree(&algebra.Select{Filter: &algebra.Binary{Op: sqlparser.OpGe, L: ref(21, types.KindInt), R: &algebra.Const{Val: types.NewInt(n / 4)}}},
		get("build", 20)))
	for _, tc := range []struct {
		name string
		tree *algebra.Tree
		rows int
		pin  uint64
	}{
		{"INT-key join, 16,384-row stored build", joinOn(get("build", 20), 21), 4 * vec.BatchSize, 429_000},
		{"INT-key join, rename-only projection over a filter as the build", joinOn(renamed, 61), 2925, 620_000},
		{"INT-key join, 8,192-group group-by as the build", joinOn(group, 31), 2341, 984_000},
		{"INT-key join, 16,384-row stored build with 2,048 keys", joinOn(get("dups", 40), 41), 4688, 485_000},
		{"INT-key group-by, 8,192 groups", group, n / 2, 695_000},
	} {
		b, err := RunColumns(tc.tree, src, nil)
		if err != nil {
			t.Fatal(err)
		}
		if b.N != tc.rows {
			t.Fatalf("%s: %d rows, want %d", tc.name, b.N, tc.rows)
		}
		const runs = 10
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			if _, err := RunColumns(tc.tree, src, nil); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		got := (after.TotalAlloc - before.TotalAlloc) / runs
		t.Logf("%s: %d bytes per run", tc.name, got)
		if got > tc.pin {
			t.Errorf("%s: %d bytes per run, pinned at %d", tc.name, got, tc.pin)
		}
	}
}
