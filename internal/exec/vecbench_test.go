package exec

import (
	"fmt"
	"math/rand"
	"testing"

	"pdwqo/internal/algebra"
	"pdwqo/internal/catalog"
	"pdwqo/internal/sqlparser"
	"pdwqo/internal/types"
	"pdwqo/internal/vec"
)

// benchData builds an N-row two-float-column table served both ways.
func benchData(n int) (TableSource, ColSource, []algebra.ColumnMeta) {
	r := rand.New(rand.NewSource(7))
	rows := make([]types.Row, n)
	for i := range rows {
		rows[i] = types.Row{
			types.NewFloat(r.Float64() * 50),
			types.NewFloat(r.Float64() * 0.1),
			types.NewInt(int64(r.Intn(n / 4))),
		}
	}
	names := []string{"a", "b", "k"}
	cols := []algebra.ColumnMeta{
		{ID: 1, Name: "a", Type: types.KindFloat},
		{ID: 2, Name: "b", Type: types.KindFloat},
		{ID: 3, Name: "k", Type: types.KindInt},
	}
	rowSrc := func(string) ([]types.Row, []string, error) { return rows, names, nil }
	mirror := vec.FromRows(names, rows)
	colSrc := func(string) (*vec.Table, error) { return mirror, nil }
	return rowSrc, colSrc, cols
}

func benchTable(cols []algebra.ColumnMeta) *catalog.Table {
	cat := make([]catalog.Column, len(cols))
	for i, c := range cols {
		cat[i] = catalog.Column{Name: c.Name, Type: c.Type}
	}
	return &catalog.Table{Name: "t", Columns: cat, Dist: catalog.Distribution{Kind: catalog.DistReplicated}}
}

func benchFilterTree(cols []algebra.ColumnMeta) *algebra.Tree {
	get := algebra.NewTree(&algebra.Get{Table: benchTable(cols), Alias: "t", Cols: cols})
	pred := &algebra.Binary{Op: sqlparser.OpAnd,
		L: &algebra.Binary{Op: sqlparser.OpLt, L: algebra.NewColRef(cols[0]), R: &algebra.Const{Val: types.NewFloat(25)}},
		R: &algebra.Binary{Op: sqlparser.OpGt, L: algebra.NewColRef(cols[1]), R: &algebra.Const{Val: types.NewFloat(0.02)}},
	}
	return algebra.NewTree(&algebra.Select{Filter: pred}, get)
}

// benchJoinData mirrors e20's hashjoin shape: a 15k-row build table with
// unique int keys probed by a 60k-row fact table (4 matches per key).
func benchJoinData() (TableSource, ColSource, *algebra.Tree) {
	r := rand.New(rand.NewSource(11))
	nb, np := 15000, 60000
	build := make([]types.Row, nb)
	for i := range build {
		build[i] = types.Row{types.NewInt(int64(i)), types.NewFloat(r.Float64() * 100)}
	}
	probe := make([]types.Row, np)
	for i := range probe {
		probe[i] = types.Row{types.NewInt(int64(r.Intn(nb))), types.NewFloat(r.Float64())}
	}
	bCols := []algebra.ColumnMeta{
		{ID: 1, Name: "k", Type: types.KindInt},
		{ID: 2, Name: "v", Type: types.KindFloat},
	}
	pCols := []algebra.ColumnMeta{
		{ID: 3, Name: "fk", Type: types.KindInt},
		{ID: 4, Name: "x", Type: types.KindFloat},
	}
	bTab := &catalog.Table{Name: "b", Columns: []catalog.Column{{Name: "k", Type: types.KindInt}, {Name: "v", Type: types.KindFloat}}}
	pTab := &catalog.Table{Name: "p", Columns: []catalog.Column{{Name: "fk", Type: types.KindInt}, {Name: "x", Type: types.KindFloat}}}
	tree := algebra.NewTree(
		&algebra.Join{Kind: algebra.JoinInner, On: &algebra.Binary{Op: sqlparser.OpEq,
			L: algebra.NewColRef(bCols[0]), R: algebra.NewColRef(pCols[0])}},
		algebra.NewTree(&algebra.Get{Table: bTab, Alias: "b", Cols: bCols}),
		algebra.NewTree(&algebra.Get{Table: pTab, Alias: "p", Cols: pCols}),
	)
	rows := map[string][]types.Row{"b": build, "p": probe}
	names := map[string][]string{"b": {"k", "v"}, "p": {"fk", "x"}}
	rowSrc := func(t string) ([]types.Row, []string, error) { return rows[t], names[t], nil }
	mirrors := map[string]*vec.Table{
		"b": vec.FromRows(names["b"], build),
		"p": vec.FromRows(names["p"], probe),
	}
	colSrc := func(t string) (*vec.Table, error) { return mirrors[t], nil }
	return rowSrc, colSrc, tree
}

func BenchmarkJoinRow(b *testing.B) {
	rowSrc, _, tree := benchJoinData()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(tree, rowSrc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkJoinVec(b *testing.B) {
	_, colSrc, tree := benchJoinData()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunVec(tree, colSrc); err != nil {
			b.Fatal(err)
		}
	}
}

// benchCompositeJoinTree is a two-column equi-join (INT, VARCHAR) — the
// q09/q20 partsupp shape: 15k unique build keys probed by 60k rows.
func benchCompositeJoinTree() (ColSource, *algebra.Tree) {
	r := rand.New(rand.NewSource(17))
	nb, np := 15000, 60000
	tag := func(i int) string { return fmt.Sprintf("supplier#%04d", i%40) }
	build := make([]types.Row, nb)
	for i := range build {
		build[i] = types.Row{types.NewInt(int64(i / 40)), types.NewString(tag(i)), types.NewFloat(r.Float64())}
	}
	probe := make([]types.Row, np)
	for i := range probe {
		k := r.Intn(nb)
		probe[i] = types.Row{types.NewInt(int64(k / 40)), types.NewString(tag(k)), types.NewFloat(r.Float64())}
	}
	bCols := []algebra.ColumnMeta{{ID: 1, Name: "k", Type: types.KindInt}, {ID: 2, Name: "s", Type: types.KindString}, {ID: 3, Name: "v", Type: types.KindFloat}}
	pCols := []algebra.ColumnMeta{{ID: 4, Name: "fk", Type: types.KindInt}, {ID: 5, Name: "fs", Type: types.KindString}, {ID: 6, Name: "x", Type: types.KindFloat}}
	eq := func(a, b algebra.ColumnMeta) algebra.Scalar {
		return &algebra.Binary{Op: sqlparser.OpEq, L: algebra.NewColRef(a), R: algebra.NewColRef(b)}
	}
	get := func(name string, cols []algebra.ColumnMeta) *algebra.Tree {
		tbl := benchTable(cols)
		tbl.Name = name
		return algebra.NewTree(&algebra.Get{Table: tbl, Alias: name, Cols: cols})
	}
	tree := algebra.NewTree(
		&algebra.Join{Kind: algebra.JoinInner, On: &algebra.Binary{Op: sqlparser.OpAnd, L: eq(pCols[0], bCols[0]), R: eq(pCols[1], bCols[1])}},
		get("p", pCols), get("b", bCols))
	tables := map[string]*vec.Table{
		"b": vec.FromRows([]string{"k", "s", "v"}, build),
		"p": vec.FromRows([]string{"fk", "fs", "x"}, probe),
	}
	return func(t string) (*vec.Table, error) { return tables[t], nil }, tree
}

func BenchmarkJoinVecCompositeKey(b *testing.B) {
	colSrc, tree := benchCompositeJoinTree()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunColumns(tree, colSrc, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// benchKeyJoin joins a probe table p(fk INT, fk2 INT, x FLOAT) to a build
// table b(k INT, k2 INT, v FLOAT), both generated by keyRows, on the
// condition on makes of fk, k and k2.
func benchKeyJoin(b *testing.B, probe, build []types.Row, on func(fk, k, k2 algebra.Scalar) algebra.Scalar) {
	pCols := []algebra.ColumnMeta{{ID: 1, Name: "fk", Type: types.KindInt}, {ID: 2, Name: "fk2", Type: types.KindInt}, {ID: 6, Name: "x", Type: types.KindFloat}}
	bCols := []algebra.ColumnMeta{{ID: 3, Name: "k", Type: types.KindInt}, {ID: 4, Name: "k2", Type: types.KindInt}, {ID: 5, Name: "v", Type: types.KindFloat}}
	get := func(name string, cols []algebra.ColumnMeta) *algebra.Tree {
		tbl := benchTable(cols)
		tbl.Name = name
		return algebra.NewTree(&algebra.Get{Table: tbl, Alias: name, Cols: cols})
	}
	tree := algebra.NewTree(&algebra.Join{Kind: algebra.JoinInner,
		On: on(algebra.NewColRef(pCols[0]), algebra.NewColRef(bCols[0]), algebra.NewColRef(bCols[1]))},
		get("p", pCols), get("b", bCols))
	tables := map[string]*vec.Table{
		"p": vec.FromRows([]string{"fk", "fk2", "x"}, probe),
		"b": vec.FromRows([]string{"k", "k2", "v"}, build),
	}
	colSrc := func(t string) (*vec.Table, error) { return tables[t], nil }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunColumns(tree, colSrc, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// keyRows generates n rows (key, the same key, a float), row i's key
// being key(i).
func keyRows(r *rand.Rand, n int, key func(i int) int) []types.Row {
	rows := make([]types.Row, n)
	for i := range rows {
		k := types.NewInt(int64(key(i)))
		rows[i] = types.Row{k, k, types.NewFloat(r.Float64())}
	}
	return rows
}

// BenchmarkJoinVecRepeatedKey is the q18 shape the transitivity closure
// leaves: one probe INT column equated to two build columns
// (fk = k AND fk = k2), 15k unique build keys probed by 60k rows. The
// first pair is the INT table key; the second is confirmed, not hashed.
func BenchmarkJoinVecRepeatedKey(b *testing.B) {
	r := rand.New(rand.NewSource(31))
	build := keyRows(r, 15000, func(i int) int { return i })
	probe := keyRows(r, 60000, func(int) int { return r.Intn(15000) })
	benchKeyJoin(b, probe, build, func(fk, k, k2 algebra.Scalar) algebra.Scalar {
		return &algebra.Binary{Op: sqlparser.OpAnd,
			L: &algebra.Binary{Op: sqlparser.OpEq, L: fk, R: k},
			R: &algebra.Binary{Op: sqlparser.OpEq, L: fk, R: k2}}
	})
}

// BenchmarkJoinVecDupBuild builds on 60k rows with about 4 rows per key,
// as lineitem does on l_orderkey, probed by 15k unique keys: the table
// holds 15k keys, and every probe walks a chain.
func BenchmarkJoinVecDupBuild(b *testing.B) {
	r := rand.New(rand.NewSource(37))
	build := keyRows(r, 60000, func(int) int { return r.Intn(15000) })
	probe := keyRows(r, 15000, func(i int) int { return i })
	benchKeyJoin(b, probe, build, func(fk, k, _ algebra.Scalar) algebra.Scalar {
		return &algebra.Binary{Op: sqlparser.OpEq, L: fk, R: k}
	})
}

// BenchmarkInListVec filters 60k rows on `mode IN ('MAIL', 'SHIP')`, the
// q12 / q19 predicate shape.
func BenchmarkInListVec(b *testing.B) {
	r := rand.New(rand.NewSource(19))
	modes := []string{"AIR", "AIR REG", "FOB", "MAIL", "RAIL", "SHIP", "TRUCK"}
	rows := make([]types.Row, 60000)
	for i := range rows {
		rows[i] = types.Row{types.NewString(modes[r.Intn(len(modes))]), types.NewFloat(r.Float64())}
	}
	cols := []algebra.ColumnMeta{{ID: 1, Name: "mode", Type: types.KindString}, {ID: 2, Name: "v", Type: types.KindFloat}}
	tbl := vec.FromRows([]string{"mode", "v"}, rows)
	pred := &algebra.InList{E: algebra.NewColRef(cols[0]), List: []algebra.Scalar{
		&algebra.Const{Val: types.NewString("MAIL")}, &algebra.Const{Val: types.NewString("SHIP")}}}
	tree := algebra.NewTree(&algebra.Select{Filter: pred},
		algebra.NewTree(&algebra.Get{Table: benchTable(cols), Alias: "t", Cols: cols}))
	colSrc := func(string) (*vec.Table, error) { return tbl, nil }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunColumns(tree, colSrc, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCaseVec sums `CASE WHEN mode IN ('MAIL', 'SHIP') THEN price
// ELSE 0 END` over 60k rows, q12's shape: the IN narrows, the THEN and
// the ELSE each run over the rows they take, and their FLOAT and INT
// results are placed as one column.
func BenchmarkCaseVec(b *testing.B) {
	r := rand.New(rand.NewSource(23))
	modes := []string{"AIR", "AIR REG", "FOB", "MAIL", "RAIL", "SHIP", "TRUCK"}
	rows := make([]types.Row, 60000)
	for i := range rows {
		rows[i] = types.Row{types.NewString(modes[r.Intn(len(modes))]), types.NewFloat(r.Float64() * 1e5)}
	}
	cols := []algebra.ColumnMeta{{ID: 1, Name: "mode", Type: types.KindString}, {ID: 2, Name: "price", Type: types.KindFloat}}
	tbl := vec.FromRows([]string{"mode", "price"}, rows)
	mailOrShip := &algebra.InList{E: algebra.NewColRef(cols[0]), List: []algebra.Scalar{
		&algebra.Const{Val: types.NewString("MAIL")}, &algebra.Const{Val: types.NewString("SHIP")}}}
	sum := &algebra.Case{Whens: []algebra.CaseWhen{{Cond: mailOrShip, Then: algebra.NewColRef(cols[1])}}, Else: &algebra.Const{Val: types.NewInt(0)}}
	tree := algebra.NewTree(&algebra.GroupBy{
		Aggs:  []algebra.AggDef{{Func: algebra.AggSum, Arg: sum, ID: 10, Name: "s"}},
		Phase: algebra.AggComplete,
	}, algebra.NewTree(&algebra.Get{Table: benchTable(cols), Alias: "t", Cols: cols}))
	colSrc := func(string) (*vec.Table, error) { return tbl, nil }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunColumns(tree, colSrc, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// benchAggTree mirrors e20's agg shape: two low-cardinality string keys,
// two float SUMs and a COUNT(*) over the k column's table.
func benchAggData() (TableSource, ColSource, *algebra.Tree) {
	r := rand.New(rand.NewSource(13))
	flags := []string{"A", "N", "R"}
	stats := []string{"F", "O"}
	n := 60000
	rows := make([]types.Row, n)
	for i := range rows {
		rows[i] = types.Row{
			types.NewString(flags[r.Intn(len(flags))]),
			types.NewString(stats[r.Intn(len(stats))]),
			types.NewFloat(r.Float64() * 50),
			types.NewFloat(r.Float64() * 1e5),
		}
	}
	names := []string{"f", "s", "q", "p"}
	cols := []algebra.ColumnMeta{
		{ID: 1, Name: "f", Type: types.KindString},
		{ID: 2, Name: "s", Type: types.KindString},
		{ID: 3, Name: "q", Type: types.KindFloat},
		{ID: 4, Name: "p", Type: types.KindFloat},
	}
	tab := benchTable(cols)
	tree := algebra.NewTree(&algebra.GroupBy{
		Keys: []algebra.ColumnID{1, 2},
		Aggs: []algebra.AggDef{
			{Func: algebra.AggSum, Arg: algebra.NewColRef(cols[2]), ID: 21, Name: "sq"},
			{Func: algebra.AggSum, Arg: algebra.NewColRef(cols[3]), ID: 22, Name: "sp"},
			{Func: algebra.AggCount, ID: 23, Name: "n"},
		},
		Phase: algebra.AggComplete,
	}, algebra.NewTree(&algebra.Get{Table: tab, Alias: "t", Cols: cols}))
	rowSrc := func(string) ([]types.Row, []string, error) { return rows, names, nil }
	mirror := vec.FromRows(names, rows)
	colSrc := func(string) (*vec.Table, error) { return mirror, nil }
	return rowSrc, colSrc, tree
}

func BenchmarkAggRow(b *testing.B) {
	rowSrc, _, tree := benchAggData()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(tree, rowSrc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAggVec(b *testing.B) {
	_, colSrc, tree := benchAggData()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunVec(tree, colSrc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAggVecManyGroups groups 60k rows by one INT key into ≈ 8k
// groups with a float SUM and a COUNT(*) — the q18 / q03 shape, whose
// group table grows several times, where BenchmarkAggVec's has 6 groups.
func BenchmarkAggVecManyGroups(b *testing.B) {
	r := rand.New(rand.NewSource(23))
	rows := make([]types.Row, 60000)
	for i := range rows {
		rows[i] = types.Row{types.NewInt(int64(r.Intn(8192))), types.NewFloat(r.Float64() * 50)}
	}
	cols := []algebra.ColumnMeta{{ID: 1, Name: "k", Type: types.KindInt}, {ID: 2, Name: "q", Type: types.KindFloat}}
	tree := algebra.NewTree(&algebra.GroupBy{
		Keys: []algebra.ColumnID{1},
		Aggs: []algebra.AggDef{
			{Func: algebra.AggSum, Arg: algebra.NewColRef(cols[1]), ID: 21, Name: "sq"},
			{Func: algebra.AggCount, ID: 22, Name: "n"},
		},
		Phase: algebra.AggComplete,
	}, algebra.NewTree(&algebra.Get{Table: benchTable(cols), Alias: "t", Cols: cols}))
	tbl := vec.FromRows([]string{"k", "q"}, rows)
	colSrc := func(string) (*vec.Table, error) { return tbl, nil }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunColumns(tree, colSrc, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFilterRow(b *testing.B) {
	rowSrc, _, cols := benchData(60000)
	tree := benchFilterTree(cols)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(tree, rowSrc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFilterVec(b *testing.B) {
	_, colSrc, cols := benchData(60000)
	tree := benchFilterTree(cols)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunVec(tree, colSrc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuildInPlace times join build sides the executor keeps in
// place rather than copying: a scan → filter → rename-only projection
// (the DSQL derived-table shape) → INT-key join build over a 15k-row
// table, and an ≈ 8k-group INT-key group-by result over 60k rows as the
// build side; each is probed by 15k rows.
func BenchmarkBuildInPlace(b *testing.B) {
	r := rand.New(rand.NewSource(29))
	fill := func(n, keys int) *vec.Table {
		rows := make([]types.Row, n)
		for i := range rows {
			rows[i] = types.Row{types.NewInt(int64(r.Intn(keys))), types.NewFloat(r.Float64() * 50)}
		}
		return vec.FromRows([]string{"k", "v"}, rows)
	}
	tables := map[string]*vec.Table{"dim": fill(15000, 15000), "facts": fill(60000, 8192), "probe": fill(15000, 15000)}
	colSrc := func(t string) (*vec.Table, error) { return tables[t], nil }
	get := func(name string, base algebra.ColumnID) (*algebra.Tree, algebra.Scalar, algebra.Scalar) {
		cols := []algebra.ColumnMeta{{ID: base, Name: "k", Type: types.KindInt}, {ID: base + 1, Name: "v", Type: types.KindFloat}}
		tbl := benchTable(cols)
		tbl.Name = name
		return algebra.NewTree(&algebra.Get{Table: tbl, Alias: name, Cols: cols}), algebra.NewColRef(cols[0]), algebra.NewColRef(cols[1])
	}
	probe, pk, _ := get("probe", 1)
	dim, dk, dv := get("dim", 11)
	facts, fk, fv := get("facts", 21)
	renamed := algebra.NewTree(&algebra.Project{Defs: []algebra.ProjDef{
		{Expr: dv, ID: 31, Name: "c0"},
		{Expr: dk, ID: 32, Name: "c1"},
	}}, algebra.NewTree(&algebra.Select{Filter: &algebra.Binary{Op: sqlparser.OpLt, L: dv, R: &algebra.Const{Val: types.NewFloat(25)}}}, dim))
	grouped := algebra.NewTree(&algebra.GroupBy{
		Keys:  []algebra.ColumnID{21},
		Aggs:  []algebra.AggDef{{Func: algebra.AggSum, Arg: fv, ID: 41, Name: "s"}},
		Phase: algebra.AggComplete,
	}, facts)
	join := func(build *algebra.Tree, key algebra.Scalar) *algebra.Tree {
		return algebra.NewTree(&algebra.Join{Kind: algebra.JoinInner, On: &algebra.Binary{Op: sqlparser.OpEq, L: pk, R: key}}, probe, build)
	}
	for _, bc := range []struct {
		name string
		tree *algebra.Tree
	}{
		{"renamed filter", join(renamed, algebra.NewColRef(algebra.ColumnMeta{ID: 32, Type: types.KindInt}))},
		{"group-by result", join(grouped, fk)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := RunColumns(bc.tree, colSrc, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
