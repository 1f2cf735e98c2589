// Command pdwbench is the experiment harness: it regenerates every figure
// and claim of the paper (see DESIGN.md's per-experiment index and
// EXPERIMENTS.md for recorded outcomes).
//
// Usage:
//
//	pdwbench [-sf 0.01] [-nodes 8] [-seed 42] [-trace-out t.json] [experiment ...]
//
// Experiments: e1 e2 e3 e4 e5 e6 e7 e8 e9 e10 e11 e12 e13 e14 e15 e16 e17 e18 e19 e20 e21 e22 e23 calibrate all
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"time"

	"pdwqo"
	"pdwqo/internal/catalog"
	"pdwqo/internal/cost"
	"pdwqo/internal/dsql"
	"pdwqo/internal/engine"
	"pdwqo/internal/normalize"
	"pdwqo/internal/stats"
	"pdwqo/internal/tpch"
	"pdwqo/internal/types"
)

var (
	sf       = flag.Float64("sf", 0.01, "TPC-H scale factor")
	nodes    = flag.Int("nodes", 8, "compute nodes")
	seed     = flag.Int64("seed", 42, "generator seed")
	parallel = flag.Int("parallel", 0, "worker parallelism for enumeration and execution (0 = GOMAXPROCS, 1 = serial)")
	sessions = flag.Int("sessions", 1000, "peak concurrent sessions for the e21 server load sweep")
	traceOut = flag.String("trace-out", "", `trace mode: record spans/counters across all experiments and write JSON to this file ("-" = stdout)`)

	// tracer is non-nil in trace mode; mustPlan and run feed it.
	tracer *pdwqo.Tracer
)

func main() {
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		args = []string{"all"}
	}
	experiments := map[string]func(*pdwqo.DB){
		"e1": e1, "e2": e2, "e3": e3, "e4": e4, "e5": e5, "e6": e6,
		"e7": e7, "e8": e8, "e9": e9, "e10": e10, "e11": e11, "e12": e12,
		"e13": e13, "e14": e14, "e15": e15, "e16": e16, "e17": e17, "e18": e18, "e19": e19, "e20": e20, "e21": e21, "e22": e22, "e23": e23, "calibrate": calibrate,
	}
	order := []string{"e1", "e2", "e3", "e4", "calibrate", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12", "e13", "e14", "e15", "e16", "e17", "e18", "e19", "e20", "e21", "e22", "e23"}

	db, err := pdwqo.OpenTPCH(*sf, *nodes, *seed)
	if err != nil {
		fatal(err)
	}
	if *traceOut != "" {
		tracer = pdwqo.NewTracer()
	}
	fmt.Printf("appliance: TPC-H sf=%g, %d compute nodes, seed %d\n\n", *sf, *nodes, *seed)

	for _, a := range args {
		if a == "all" {
			for _, name := range order {
				experiments[name](db)
			}
			continue
		}
		fn, ok := experiments[a]
		if !ok {
			fatal(fmt.Errorf("unknown experiment %q", a))
		}
		fn(db)
	}
	dumpTrace(db)
}

// dumpTrace writes the accumulated trace (spans plus the appliance's
// exported exec.* totals) as JSON when trace mode is on.
func dumpTrace(db *pdwqo.DB) {
	if tracer == nil {
		return
	}
	db.Appliance().Metrics.Export(tracer.Counters())
	data, err := tracer.JSON()
	if err != nil {
		fatal(err)
	}
	if *traceOut == "-" {
		fmt.Println(string(data))
		return
	}
	if err := os.WriteFile(*traceOut, append(data, '\n'), 0o644); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "pdwbench: trace written to %s\n", *traceOut)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pdwbench:", err)
	os.Exit(1)
}

func header(id, title string) {
	fmt.Printf("== %s: %s ==\n", id, title)
}

func mustPlan(db *pdwqo.DB, sql string, opts pdwqo.Options) *pdwqo.QueryPlan {
	if tracer != nil && opts.Tracer == nil {
		opts.Tracer = tracer
	}
	p, err := db.Optimize(sql, opts)
	if err != nil {
		fatal(err)
	}
	return p
}

// mustExplain renders p's EXPLAIN text: the distributed plan and its DSQL.
func mustExplain(p *pdwqo.QueryPlan) string {
	out, err := p.ExplainText()
	if err != nil {
		fatal(err)
	}
	return out
}

// runConfig is the execution configuration the -parallel and -trace-out
// flags select for the main appliance; experiments extend it per arm.
func runConfig() pdwqo.ExecConfig {
	return pdwqo.ExecConfig{Parallelism: *parallel, Tracer: tracer}
}

// run executes p on the main appliance under runConfig.
func run(db *pdwqo.DB, p *pdwqo.QueryPlan) (*pdwqo.Result, error) {
	return db.Run(context.Background(), p, runConfig())
}

func movesString(p *pdwqo.QueryPlan) string {
	counts := p.Moves()
	kinds := make([]string, 0, len(counts))
	for k := range counts {
		kinds = append(kinds, k.String())
	}
	sort.Strings(kinds)
	parts := make([]string, len(kinds))
	for i, k := range kinds {
		n := 0
		for kk, c := range counts {
			if kk.String() == k {
				n = c
			}
		}
		parts[i] = fmt.Sprintf("%s×%d", k, n)
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, " ")
}

// --- E1: Figure 3 — serial memo and its augmentation ---

func e1(db *pdwqo.DB) {
	header("E1", "Figure 3 — serial MEMO and distributed augmentation")
	sql := `SELECT * FROM CUSTOMER C, ORDERS O
	        WHERE C.c_custkey = O.o_custkey AND O.o_totalprice > 1000`
	p := mustPlan(db, sql, pdwqo.Options{})
	fmt.Println("query:", strings.Join(strings.Fields(sql), " "))
	fmt.Println("\nserial memo (logical expressions):")
	fmt.Println(p.Memo)
	fmt.Printf("exported MEMO XML: %d bytes\n", len(p.MemoXML))
	fmt.Println("\naugmented (distributed) plan chosen by PDW QO, and its DSQL:")
	fmt.Println(mustExplain(p))
	fmt.Printf("options considered %d, retained %d across %d groups\n\n",
		p.Distributed.OptionsConsidered, p.Distributed.OptionsRetained, p.Distributed.Groups)
}

// --- E2: §2.4 — the two-step DSQL plan ---

func e2(db *pdwqo.DB) {
	header("E2", "§2.4 — DSQL plan for the Customer⋈Orders example")
	sql := `SELECT * FROM customer c, orders o
	        WHERE c.c_custkey = o.o_custkey AND o.o_totalprice > 1000`
	p := mustPlan(db, sql, pdwqo.Options{})
	fmt.Println(p.DSQL)
	res, err := run(db, p)
	if err != nil {
		fatal(err)
	}
	ref, err := db.ExecuteSerial(sql)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("executed: %d rows (serial reference: %d)\n\n", len(res.Rows), len(ref.Rows))
}

// --- E3: §3.2 — serial-best vs parallel-best join order ---

func e3(db *pdwqo.DB) {
	header("E3", "§3.2 — parallelizing the best serial plan is not enough")
	queries := []struct{ name, sql string }{
		{"C⋈O⋈L", `SELECT c_name, SUM(l_extendedprice) AS s FROM customer, orders, lineitem
			WHERE c_custkey = o_custkey AND o_orderkey = l_orderkey GROUP BY c_name`},
		{"q10", mustTPCH("q10")},
		{"q18", mustTPCH("q18")},
	}
	fmt.Printf("%-8s %-14s %-14s %-8s %-28s %s\n", "query", "full cost", "baseline", "ratio", "full moves", "baseline moves")
	for _, q := range queries {
		full := mustPlan(db, q.sql, pdwqo.Options{Mode: pdwqo.ModeFull})
		base := mustPlan(db, q.sql, pdwqo.Options{Mode: pdwqo.ModeSerialBaseline})
		fmt.Printf("%-8s %-14.6g %-14.6g %-8.2f %-28s %s\n",
			q.name, full.Cost(), base.Cost(), ratio(base.Cost(), full.Cost()),
			movesString(full), movesString(base))
	}
	fmt.Println()
}

func mustTPCH(name string) string {
	sql, ok := pdwqo.TPCHQuery(name)
	if !ok {
		fatal(fmt.Errorf("missing query %s", name))
	}
	return sql
}

func ratio(a, b float64) float64 {
	if b == 0 {
		if a == 0 {
			return 1
		}
		return -1
	}
	return a / b
}

// --- E4: Figure 7 — TPC-H Q20 ---

func e4(db *pdwqo.DB) {
	header("E4", "Figure 7 — parallel plan for TPC-H Q20")
	p := mustPlan(db, mustTPCH("q20"), pdwqo.Options{})
	fmt.Println(p.DSQL)
	fmt.Println("moves:", movesString(p))
	var local, global int
	p.Distributed.Root.Visit(func(o *pdwqo.PlanOption) {
		if o.Op == nil {
			return
		}
		switch o.Op.OpName() {
		case "PartialGroupBy":
			local++
		case "FinalGroupBy":
			global++
		}
	})
	fmt.Printf("aggregation phases: %d local, %d global\n", local, global)
	res, err := run(db, p)
	if err != nil {
		fatal(err)
	}
	ref, err := db.ExecuteSerial(mustTPCH("q20"))
	if err != nil {
		fatal(err)
	}
	fmt.Printf("executed: %d qualifying suppliers (serial reference: %d)\n\n", len(res.Rows), len(ref.Rows))
}

// --- Calibration (§3.3.3) ---

var calibrated *cost.Lambda

func calibrate(db *pdwqo.DB) {
	header("CAL", "§3.3.3 — λ calibration against the simulator")
	l := engine.Calibrate(200000)
	calibrated = &l
	fmt.Printf("%-14s %12s\n", "component", "λ (ns/byte)")
	fmt.Printf("%-14s %12.3f\n", "reader", l.ReaderDirect)
	fmt.Printf("%-14s %12.3f\n", "reader+hash", l.ReaderHash)
	fmt.Printf("%-14s %12.3f\n", "network", l.Network)
	fmt.Printf("%-14s %12.3f\n", "writer", l.Writer)
	fmt.Printf("%-14s %12.3f\n", "bulk copy", l.BulkCopy)
	if l.ReaderHash <= l.ReaderDirect {
		fmt.Println("note: hashing overhead not observable at this volume")
	}
	fmt.Println()
}

// --- E5: cost model validation — linearity and fitted-λ prediction ---

// e5 validates the §3.3.3 model shape against the simulator: DMS step
// response time must be linear in bytes moved (C = B·λ). An effective λ is
// fitted per move kind from small volumes and used to predict the largest
// volume (held out from the fit).
func e5(db *pdwqo.DB) {
	header("E5", "§3.3 — DMS cost: response time is linear in bytes (C = B·λ)")
	if calibrated == nil {
		calibrate(db)
	}
	type obs struct {
		bytes float64
		dur   float64 // ms
	}
	measure := func(scale float64, sql string, kind cost.MoveKind) obs {
		db2, err := pdwqo.OpenTPCH(*sf*scale, *nodes, *seed)
		if err != nil {
			fatal(err)
		}
		p := mustPlan(db2, sql, pdwqo.Options{})
		var best *engine.StepMetric
		for i := 0; i < 3; i++ {
			a := db2.Appliance()
			before := a.Metrics.StepCount()
			if _, err := db2.ExecutePlan(p); err != nil {
				fatal(err)
			}
			for _, m := range a.Metrics.Snapshot()[before:] {
				m := m
				if m.IsMove && m.Move == kind && (best == nil || m.Duration < best.Duration) {
					best = &m
				}
			}
		}
		if best == nil {
			fatal(fmt.Errorf("no %s step for %q at scale %g", kind, sql, scale))
		}
		return obs{bytes: float64(best.Bytes), dur: float64(best.Duration.Nanoseconds()) / 1e6}
	}

	workloads := []struct {
		name string
		sql  string
		kind cost.MoveKind
	}{
		{"shuffle", `SELECT * FROM customer c, orders o WHERE c.c_custkey = o.o_custkey`, cost.Shuffle},
		{"broadcast", `SELECT l_quantity FROM part, lineitem WHERE p_partkey = l_partkey AND p_name LIKE 'forest%'`, cost.Broadcast},
	}
	scales := []float64{0.25, 0.5, 1, 2}
	fmt.Printf("%-10s %-7s %14s %12s %14s\n", "move", "scale", "bytes", "time(ms)", "ns/byte")
	for _, w := range workloads {
		var pts []obs
		for _, sc := range scales {
			o := measure(sc, w.sql, w.kind)
			pts = append(pts, o)
			fmt.Printf("%-10s %-7g %14.0f %12.3f %14.3f\n", w.name, sc, o.bytes, o.dur, o.dur*1e6/o.bytes)
		}
		// Fit λ on all but the largest scale; predict the largest.
		var num, den float64
		for _, o := range pts[:len(pts)-1] {
			num += o.bytes * o.dur
			den += o.bytes * o.bytes
		}
		lambda := num / den
		last := pts[len(pts)-1]
		pred := lambda * last.bytes
		fmt.Printf("%-10s fitted λ=%.3f ns/byte; predicted %0.3fms vs measured %0.3fms (ratio %.2f)\n",
			w.name, lambda*1e6, pred, last.dur, ratio(last.dur, pred))
	}

	fmt.Println("\nmodeled-cost linearity (analytic check):")
	model := cost.NewModel(*nodes, *calibrated)
	base := model.MoveCost(cost.Shuffle, 1000, 100)
	for _, mult := range []float64{1, 2, 4, 8, 16} {
		c := model.MoveCost(cost.Shuffle, 1000*mult, 100)
		fmt.Printf("  bytes ×%-4g cost ×%.3f\n", mult, c/base)
	}
	fmt.Println()
}

// --- E6: the seven DMS operations across topologies ---

func e6(db *pdwqo.DB) {
	header("E6", "§3.3.2 — modeled cost of the seven DMS operations vs topology")
	l := cost.DefaultLambda()
	if calibrated != nil {
		l = *calibrated
	}
	kinds := []cost.MoveKind{
		cost.Shuffle, cost.PartitionMove, cost.ControlNodeMove, cost.Broadcast,
		cost.Trim, cost.ReplicatedBroadcast, cost.RemoteCopySingle,
	}
	const rows, width = 1e6, 50
	fmt.Printf("%-22s", "operation")
	ns := []int{2, 4, 8, 16, 32}
	for _, n := range ns {
		fmt.Printf(" %12s", fmt.Sprintf("N=%d", n))
	}
	fmt.Println()
	for _, k := range kinds {
		fmt.Printf("%-22s", k)
		for _, n := range ns {
			m := cost.NewModel(n, l)
			fmt.Printf(" %12.4g", m.MoveCost(k, rows, width))
		}
		fmt.Println()
	}
	fmt.Println("(cost units: λ·bytes; shuffle/trim scale with N, broadcast and gathers do not)")
	fmt.Println()
}

// --- E7: plan quality, full vs parallelized-serial baseline ---

func e7(db *pdwqo.DB) {
	header("E7", "headline claim — PDW QO vs parallelizing the best serial plan")
	fmt.Printf("%-6s %-13s %-13s %-7s %-11s %-11s %-7s %s\n",
		"query", "cost(full)", "cost(base)", "ratio", "time(full)", "time(base)", "speedup", "rows")
	var worse, equal int
	for _, name := range pdwqo.TPCHQueryNames() {
		sql := mustTPCH(name)
		full := mustPlan(db, sql, pdwqo.Options{Mode: pdwqo.ModeFull})
		base := mustPlan(db, sql, pdwqo.Options{Mode: pdwqo.ModeSerialBaseline})
		tf, rf := timeExec(db, full)
		tb, rb := timeExec(db, base)
		if rf != rb {
			fatal(fmt.Errorf("%s: result mismatch %d vs %d", name, rf, rb))
		}
		r := ratio(base.Cost(), full.Cost())
		if r > 1.001 {
			worse++
		} else {
			equal++
		}
		fmt.Printf("%-6s %-13.6g %-13.6g %-7.2f %-11s %-11s %-7.2f %d\n",
			name, full.Cost(), base.Cost(), r,
			tf.Round(time.Millisecond), tb.Round(time.Millisecond),
			ratio(float64(tb), float64(tf)), rf)
	}
	fmt.Printf("baseline strictly worse on %d queries, tied on %d; never better.\n\n", worse, equal)
}

func timeExec(db *pdwqo.DB, p *pdwqo.QueryPlan) (time.Duration, int) {
	best := time.Duration(1 << 62)
	rows := 0
	for i := 0; i < 3; i++ {
		start := time.Now()
		res, err := run(db, p)
		if err != nil {
			fatal(err)
		}
		if d := time.Since(start); d < best {
			best = d
		}
		rows = len(res.Rows)
	}
	return best, rows
}

// --- E8: interesting-property retention ablation ---

func e8(db *pdwqo.DB) {
	header("E8", "Figure 4 step 06.ii — pruning with vs without interesting properties")
	fmt.Printf("%-6s %-13s %-13s %-7s %-9s %s\n", "query", "cost(on)", "cost(off)", "ratio", "opts(on)", "opts(off)")
	for _, name := range pdwqo.TPCHQueryNames() {
		sql := mustTPCH(name)
		on := mustPlan(db, sql, pdwqo.Options{})
		off := mustPlan(db, sql, pdwqo.Options{DisableInterestingRetention: true})
		fmt.Printf("%-6s %-13.6g %-13.6g %-7.2f %-9d %d\n",
			name, on.Cost(), off.Cost(), ratio(off.Cost(), on.Cost()),
			on.Distributed.OptionsRetained, off.Distributed.OptionsRetained)
	}
	fmt.Println()
}

// --- E9: partial/final aggregation split ablation ---

func e9(db *pdwqo.DB) {
	header("E9", "§4 — partial/final aggregation split ablation")
	queries := []struct{ name, sql string }{
		{"widegb", `SELECT l_partkey, COUNT(*) AS c, SUM(l_extendedprice) AS s,
			MIN(l_shipdate) AS d, MAX(l_quantity) AS q FROM lineitem GROUP BY l_partkey`},
		{"scalar", `SELECT SUM(l_extendedprice) AS s, COUNT(*) AS c FROM lineitem`},
		{"q01", mustTPCH("q01")},
		{"q20", mustTPCH("q20")},
	}
	fmt.Printf("%-8s %-13s %-13s %-7s %-14s %s\n", "query", "cost(split)", "cost(off)", "ratio", "bytes(split)", "bytes(off)")
	for _, q := range queries {
		on := mustPlan(db, q.sql, pdwqo.Options{})
		off := mustPlan(db, q.sql, pdwqo.Options{DisableAggSplit: true})
		bOn := bytesMoved(db, on)
		bOff := bytesMoved(db, off)
		fmt.Printf("%-8s %-13.6g %-13.6g %-7.2f %-14d %d\n",
			q.name, on.Cost(), off.Cost(), ratio(off.Cost(), on.Cost()), bOn, bOff)
	}
	fmt.Println()
}

func bytesMoved(db *pdwqo.DB, p *pdwqo.QueryPlan) int64 {
	a := db.Appliance()
	before := a.Metrics.TotalBytesMoved()
	if _, err := run(db, p); err != nil {
		fatal(err)
	}
	return a.Metrics.TotalBytesMoved() - before
}

// --- E10: optimization budget (timeout) sweep ---

func e10(db *pdwqo.DB) {
	header("E10", "§3.1 — optimizer timeout: plan quality vs budget, with/without seeding")
	// q05's join graph with a deliberately scrambled FROM order: the
	// normalized initial plan starts from cross joins, so a starved search
	// depends entirely on what the memo was seeded with — SeedCollocated
	// seeds normalize.GreedyJoinOrder's tree.
	sql := `SELECT n_name, SUM(l_extendedprice * (1 - l_discount)) AS revenue
	        FROM customer, region, lineitem, supplier, orders, nation
	        WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey
	          AND l_suppkey = s_suppkey AND c_nationkey = s_nationkey
	          AND s_nationkey = n_nationkey AND n_regionkey = r_regionkey
	          AND r_name = 'ASIA'
	          AND o_orderdate >= '1994-01-01'
	          AND o_orderdate < DATEADD(year, 1, '1994-01-01')
	        GROUP BY n_name`
	fmt.Printf("%-8s %-9s %-13s %-13s %-8s %s\n", "budget", "groups", "cost", "cost(seeded)", "ratio", "exhausted")
	for _, budget := range []int{50, 200, 1000, 5000, 20000} {
		p := mustPlan(db, sql, pdwqo.Options{Budget: budget})
		ps := mustPlan(db, sql, pdwqo.Options{Budget: budget, SeedCollocated: true})
		fmt.Printf("%-8d %-9d %-13.6g %-13.6g %-8.2f %v\n",
			budget, p.Memo.NumGroups(), p.Cost(), ps.Cost(), ratio(p.Cost(), ps.Cost()), p.Memo.Exhausted())
	}
	fmt.Println("(the paper's seeding: the greedy join order, placed in the memo beside the normalized")
	fmt.Println(" plan, keeps quality when the timeout bites before exploration reaches collocated orders)")
	fmt.Println()
}

// --- E11: end-to-end correctness ---

func e11(db *pdwqo.DB) {
	header("E11", "Figure 2 pipeline — distributed results ≡ single-node reference")
	fmt.Printf("%-6s %-8s %-8s %s\n", "query", "dist", "serial", "match")
	for _, name := range pdwqo.TPCHQueryNames() {
		sql := mustTPCH(name)
		plan, err := db.Optimize(sql, pdwqo.Options{})
		if err != nil {
			fatal(fmt.Errorf("%s: %w", name, err))
		}
		dist, err := run(db, plan)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", name, err))
		}
		ref, err := db.ExecuteSerial(sql)
		if err != nil {
			fatal(fmt.Errorf("%s serial: %w", name, err))
		}
		match := len(dist.Rows) == len(ref.Rows)
		fmt.Printf("%-6s %-8d %-8d %v\n", name, len(dist.Rows), len(ref.Rows), match)
		if !match {
			fatal(fmt.Errorf("%s: result mismatch", name))
		}
	}
	fmt.Println()
}

// --- E12: statistics merge quality ---

func e12(db *pdwqo.DB) {
	header("E12", "§2.2 — local→global statistics merge accuracy")
	shell, data, err := tpch.BuildShell(*sf, *nodes, *seed)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%-12s %-14s %12s %12s %8s\n", "table", "column", "true NDV", "merged NDV", "err%")
	for _, tbl := range tpch.Tables() {
		if tbl.Dist.Kind != catalog.DistHash {
			// Replicated tables are not merged (one replica's stats are
			// used directly).
			continue
		}
		rows := data[tbl.Name]
		for ci, col := range tbl.Columns {
			vals := make([]types.Value, len(rows))
			for ri, r := range rows {
				vals[ri] = r[ci]
			}
			direct := stats.BuildColumn(vals)
			merged := shell.Table(tbl.Name).Stats.Column(col.Name)
			if merged == nil || direct.NDV == 0 {
				continue
			}
			errPct := 100 * (merged.NDV - direct.NDV) / direct.NDV
			fmt.Printf("%-12s %-14s %12.0f %12.1f %8.1f\n", tbl.Name, col.Name, direct.NDV, merged.NDV, errPct)
		}
	}
	// Cardinality estimation vs actual for the suite roots.
	fmt.Printf("\n%-6s %14s %14s %8s\n", "query", "estimated", "actual", "q-error")
	for _, q := range tpch.Queries() {
		est, actual, err := rootCardinality(db, q.SQL)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", q.Name, err))
		}
		qe := qerror(est, actual)
		fmt.Printf("%-6s %14.4g %14d %8.2f\n", q.Name, est, actual, qe)
	}
	fmt.Println()
}

// --- E13: the uniformity assumption under skew ---

// e13 violates the §3.3.1 uniformity assumption with power-law foreign
// keys: the modeled shuffle cost (which divides bytes evenly by N) stays
// flat while the real per-node maximum share — the actual response-time
// bound — grows toward the full volume.
func e13(db *pdwqo.DB) {
	header("E13", "§3.3.1 — uniformity assumption under foreign-key skew")
	// A raw shuffle of orders on the (skewed) o_custkey: the narrow
	// projection makes the shuffle cheaper than broadcasting customer, and
	// no aggregation below the move absorbs the imbalance.
	sql := `SELECT c_name, o_orderkey FROM customer, orders WHERE c_custkey = o_custkey`
	fmt.Printf("%-6s %-13s %-12s %-14s %-10s %s\n",
		"skew", "modeled", "bytes", "max-node", "imbalance", "time(ms)")
	for _, skew := range []float64{1, 1.5, 2, 4, 8} {
		dbs, err := pdwqo.OpenTPCHSkewed(*sf, *nodes, *seed, skew)
		if err != nil {
			fatal(err)
		}
		p := mustPlan(dbs, sql, pdwqo.Options{})
		a := dbs.Appliance()
		before := a.Metrics.StepCount()
		var best time.Duration = 1 << 62
		var m engine.StepMetric
		for i := 0; i < 3; i++ {
			if _, err := dbs.ExecutePlan(p); err != nil {
				fatal(err)
			}
		}
		for _, sm := range a.Metrics.Snapshot()[before:] {
			if sm.IsMove && sm.Duration < best {
				best, m = sm.Duration, sm
			}
		}
		imbalance := 0.0
		if m.Bytes > 0 {
			imbalance = float64(m.MaxNodeBytes) * float64(*nodes) / float64(m.Bytes)
		}
		fmt.Printf("%-6g %-13.6g %-12d %-14d %-10.2f %.3f\n",
			skew, p.Cost(), m.Bytes, m.MaxNodeBytes, imbalance, float64(best.Nanoseconds())/1e6)
	}
	fmt.Println("(imbalance = max-node share ÷ uniform share; the model assumes 1.0)")
	fmt.Println()
}

// --- E14: parallel appliance — per-node fan-out speedup ---

// e14 measures the wall-clock effect of fanning one step's node-local work
// out across workers. A simulated per-node dispatch latency makes the
// overlap observable on any host: a serial appliance pays N round trips
// per step, the parallel one pays ~1.
func e14(db *pdwqo.DB) {
	header("E14", "parallel appliance — per-node fan-out speedup")
	queries := []string{"q01", "q06", "q12", "q14"}
	plans := make([]*pdwqo.QueryPlan, len(queries))
	for i, name := range queries {
		plans[i] = mustPlan(db, mustTPCH(name), pdwqo.Options{})
	}
	cfg := runConfig()
	cfg.NodeLatency = 5 * time.Millisecond

	timeAt := func(par int) time.Duration {
		cfg.Parallelism = par
		best := time.Duration(1 << 62)
		for i := 0; i < 3; i++ {
			start := time.Now()
			for _, p := range plans {
				if _, err := db.Run(context.Background(), p, cfg); err != nil {
					fatal(err)
				}
			}
			if d := time.Since(start); d < best {
				best = d
			}
		}
		return best
	}
	serial := timeAt(1)
	fmt.Printf("workload: %s, %d nodes, simulated dispatch latency %s\n",
		strings.Join(queries, "+"), *nodes, cfg.NodeLatency)
	fmt.Printf("%-12s %-12s %s\n", "parallelism", "time", "speedup")
	fmt.Printf("%-12d %-12s %.2f\n", 1, serial.Round(time.Millisecond), 1.0)
	for _, par := range []int{2, 4, 8} {
		d := timeAt(par)
		fmt.Printf("%-12d %-12s %.2f\n", par, d.Round(time.Millisecond), ratio(float64(serial), float64(d)))
	}
	fmt.Println("(results stay byte-identical at every setting; see internal/difftest)")
	fmt.Println()
}

// --- E15: robustness — execution under injected faults ---

// e15 perturbs the TPC-H suite with seeded random fault plans and
// measures the robustness contract: with per-step retries enabled, every
// absorbed fault still yields the fault-free row count (determinism under
// perturbation) at a bounded latency overhead; schedules that exhaust the
// retry budget surface as typed StepErrors, never panics or leaks.
func e15(db *pdwqo.DB) {
	header("E15", "robustness — per-step retry under injected faults")
	a := db.Appliance()
	const maxRetries = 3
	fmt.Printf("%-6s %-7s %-8s %-7s %-11s %-11s %s\n",
		"query", "faults", "retries", "rows", "clean", "chaos", "outcome")
	var absorbed, failed int
	for i, name := range pdwqo.TPCHQueryNames() {
		sql := mustTPCH(name)
		p := mustPlan(db, sql, pdwqo.Options{})
		cleanT, cleanRows := timeExec(db, p)

		cfg := runConfig()
		cfg.MaxRetries = maxRetries
		cfg.Faults = pdwqo.RandomFaultPlan(int64(1000+i), len(p.DSQL.Steps), *nodes)
		retries0, faults0 := a.Metrics.RetryCount(), a.Metrics.FaultCount()
		start := time.Now()
		res, err := db.Run(context.Background(), p, cfg)
		chaosT := time.Since(start)
		nFaults := a.Metrics.FaultCount() - faults0
		nRetries := a.Metrics.RetryCount() - retries0

		outcome := "absorbed"
		rows := 0
		switch {
		case err != nil:
			var se *pdwqo.StepError
			if !errors.As(err, &se) {
				fatal(fmt.Errorf("%s: untyped chaos failure: %w", name, err))
			}
			outcome = fmt.Sprintf("typed failure (%v on step %d)", se.Kind, se.Step)
			failed++
		case len(res.Rows) != cleanRows:
			fatal(fmt.Errorf("%s: chaos run returned %d rows, clean run %d", name, len(res.Rows), cleanRows))
		default:
			rows = len(res.Rows)
			absorbed++
		}
		fmt.Printf("%-6s %-7d %-8d %-7d %-11s %-11s %s\n",
			name, nFaults, nRetries, rows,
			cleanT.Round(time.Millisecond), chaosT.Round(time.Millisecond), outcome)
	}
	fmt.Printf("absorbed by retries on %d queries, typed failures on %d; no panics, no leaked temps.\n\n",
		absorbed, failed)
}

// --- E16: cost-model accuracy — predicted vs measured movement (q-error) ---

// e16 quantifies the §3.3 cost model's accuracy the way EXPLAIN ANALYZE
// does: every move step's predicted rows×width is reconciled against the
// bytes DMS actually moved, summarized per query as the geometric mean
// and max q-error (q = max(pred/act, act/pred), 1 = perfect). See
// EXPERIMENTS.md E16 for methodology.
func e16(db *pdwqo.DB) {
	header("E16", "§3.3 — cost-model accuracy: predicted vs actual movement (q-error)")
	a := db.Appliance()
	fmt.Printf("%-6s %-6s %14s %14s %9s %9s %9s %9s\n",
		"query", "moves", "est bytes", "act bytes", "qB mean", "qB max", "qR mean", "qR max")
	var suiteB, suiteR []float64
	for _, name := range pdwqo.TPCHQueryNames() {
		p := mustPlan(db, mustTPCH(name), pdwqo.Options{})
		before := a.Metrics.StepCount()
		if _, err := run(db, p); err != nil {
			fatal(fmt.Errorf("%s: %w", name, err))
		}
		acts := map[int]engine.StepMetric{}
		for _, m := range a.Metrics.Snapshot()[before:] {
			acts[m.StepID] = m
		}
		var qB, qR []float64
		var estB, actB float64
		for _, s := range p.DSQL.Steps {
			if s.Kind != dsql.StepMove {
				continue
			}
			m, ok := acts[s.ID]
			if !ok {
				continue
			}
			estB += s.EstBytes()
			actB += float64(m.Bytes)
			qB = append(qB, cost.QError(s.EstBytes(), float64(m.Bytes)))
			qR = append(qR, cost.QError(s.Rows, float64(m.Rows)))
		}
		if len(qB) == 0 {
			fmt.Printf("%-6s %-6d %14s %14s (no data movement)\n", name, 0, "-", "-")
			continue
		}
		suiteB = append(suiteB, qB...)
		suiteR = append(suiteR, qR...)
		fmt.Printf("%-6s %-6d %14.6g %14.0f %9.3g %9.3g %9.3g %9.3g\n",
			name, len(qB), estB, actB,
			geoMean(qB), maxOf(qB), geoMean(qR), maxOf(qR))
	}
	finB, infB := splitFinite(suiteB)
	finR, _ := splitFinite(suiteR)
	fmt.Printf("suite: %d move steps (%d with a zero-side estimate, excluded from aggregates)\n",
		len(suiteB), infB)
	fmt.Printf("  bytes q-error mean %.3g max %.3g; rows q-error mean %.3g max %.3g\n",
		geoMean(finB), maxOf(finB), geoMean(finR), maxOf(finR))
	fmt.Println("(q = max(pred/act, act/pred); 1 = perfect estimate. Same metric as EXPLAIN ANALYZE.)")
	fmt.Println()
}

// splitFinite drops the +Inf q-errors (a zero on exactly one side —
// typically an anti-join the model estimates empty) and counts them, so
// the geometric mean stays meaningful while the misses stay visible.
func splitFinite(xs []float64) (finite []float64, inf int) {
	for _, x := range xs {
		if math.IsInf(x, 0) {
			inf++
			continue
		}
		finite = append(finite, x)
	}
	return finite, inf
}

// geoMean is the geometric mean — the standard q-error aggregate.
func geoMean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

func maxOf(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

func rootCardinality(db *pdwqo.DB, sql string) (float64, int, error) {
	p, err := db.Optimize(sql, pdwqo.Options{})
	if err != nil {
		return 0, 0, err
	}
	res, err := run(db, p)
	if err != nil {
		return 0, 0, err
	}
	return p.Distributed.Root.Rows, len(res.Rows), nil
}

func qerror(est float64, actual int) float64 {
	a := float64(actual)
	if a < 1 {
		a = 1
	}
	if est < 1 {
		est = 1
	}
	if est > a {
		return est / a
	}
	return a / est
}

// e17 measures the shared plan cache on a repeated parameterized
// workload: each TPC-H query is compiled cold once, then re-optimized
// over a stream of same-shape instances with rotating constants. A
// production control node serves such a stream almost entirely from its
// cache; the table reports how much compile time that saves and which
// queries re-bind as templates versus pinning to exact constants
// (a value-dependent fold consumed a literal slot).
func e17(db *pdwqo.DB) {
	header("E17", "shared plan cache — hit rate and compile-time savings on a repeated workload")
	const reps = 10
	db.SetPlanCache(4096)
	defer db.SetPlanCache(-1)
	fmt.Printf("%-6s %5s %12s %12s %9s  %s\n",
		"query", "slots", "cold", "cached/op", "speedup", "statuses (m=miss h=hit)")
	var coldTotal, cachedTotal time.Duration
	for _, name := range pdwqo.TPCHQueryNames() {
		sql := mustTPCH(name)
		pq, err := normalize.Parameterize(sql)
		if err != nil {
			fatal(fmt.Errorf("%s: parameterize: %w", name, err))
		}
		db.PlanCache().Purge()

		start := time.Now()
		if _, err := db.Optimize(sql, pdwqo.Options{}); err != nil {
			fatal(fmt.Errorf("%s: %w", name, err))
		}
		cold := time.Since(start)
		coldTotal += cold

		var cached time.Duration
		statuses := map[string]int{}
		for rep := 1; rep <= reps; rep++ {
			variant, err := pq.Splice(variantTexts(pq, rep))
			if err != nil {
				fatal(fmt.Errorf("%s: splice: %w", name, err))
			}
			start := time.Now()
			plan, err := db.Optimize(variant, pdwqo.Options{})
			if err != nil {
				fatal(fmt.Errorf("%s rep %d: %w", name, rep, err))
			}
			cached += time.Since(start)
			statuses[plan.CacheStatus]++
		}
		cachedTotal += cached
		fmt.Printf("%-6s %5d %12v %12v %8.0fx  m=%d h=%d\n",
			name, len(pq.Lits), cold.Round(time.Microsecond),
			(cached / reps).Round(time.Microsecond),
			float64(cold)/(float64(cached)/reps), statuses["miss"], statuses["hit"])
	}
	m := db.PlanCache().Metrics()
	fmt.Printf("suite: cold compile %v total; cached re-optimize %v/op mean\n",
		coldTotal.Round(time.Millisecond),
		(cachedTotal / time.Duration(len(pdwqo.TPCHQueryNames())*reps)).Round(time.Microsecond))
	fmt.Printf("cache: hits=%d shared=%d misses=%d compiles=%d evictions=%d invalidations=%d\n",
		m.Hits, m.Shared, m.Misses, m.Compiles, m.Evictions, m.Invalidations)
	fmt.Println("(a miss column > 1 means the query pins to exact constants: a fold consumed a literal slot)")
	fmt.Println()
}

// variantTexts renders a same-shape constant vector for rep: integers
// shift by rep and floats scale slightly (both preserve pairwise
// distinctness between slots, so the slot pattern — and the shape
// fingerprint — is unchanged), strings keep their original value.
func variantTexts(pq *normalize.ParamQuery, rep int) []string {
	out := make([]string, len(pq.Lits))
	for i, l := range pq.Lits {
		switch l.Kind {
		case normalize.LitInt:
			out[i] = fmt.Sprint(l.Val.Int() + int64(rep))
		case normalize.LitFloat:
			out[i] = fmt.Sprintf("%g", l.Val.Float()*(1+0.001*float64(rep)))
		default:
			out[i] = l.Val.SQLLiteral()
		}
	}
	return out
}

// e18 measures the cost of static plan verification: every TPC-H query
// is compiled cold with and without Options.Verify, and the table
// reports the delta as a fraction of the cold compile. Verification
// re-derives the optimizer's distribution, dataflow, and MEMO
// invariants from scratch (an independent N-version of the core
// rules), so a clean sweep here is also a correctness statement: no
// shipped plan violates them.
func e18(db *pdwqo.DB) {
	header("E18", "static plan verification — overhead vs a cold compile")
	const reps = 5
	db.SetPlanCache(-1)
	fmt.Printf("%-6s %12s %12s %9s\n", "query", "cold", "verified", "overhead")
	var coldTotal, verifiedTotal time.Duration
	for _, name := range pdwqo.TPCHQueryNames() {
		sql := mustTPCH(name)
		var cold, verified time.Duration
		for rep := 0; rep < reps; rep++ {
			start := time.Now()
			if _, err := db.Optimize(sql, pdwqo.Options{}); err != nil {
				fatal(fmt.Errorf("%s: %w", name, err))
			}
			cold += time.Since(start)
			start = time.Now()
			if _, err := db.Optimize(sql, pdwqo.Options{Verify: true}); err != nil {
				fatal(fmt.Errorf("%s (verify): %w", name, err))
			}
			verified += time.Since(start)
		}
		coldTotal += cold
		verifiedTotal += verified
		fmt.Printf("%-6s %12v %12v %8.1f%%\n",
			name, (cold / reps).Round(time.Microsecond),
			(verified / reps).Round(time.Microsecond),
			100*(float64(verified)-float64(cold))/float64(cold))
	}
	fmt.Printf("suite: cold %v, verified %v, overhead %.1f%% (bar: <5%%)\n",
		coldTotal.Round(time.Millisecond), verifiedTotal.Round(time.Millisecond),
		100*(float64(verifiedTotal)-float64(coldTotal))/float64(coldTotal))
	fmt.Println("(every verified run returned cleanly: no TPC-H plan violates the invariants)")
	fmt.Println()
}

// --- E19: partial-aggregate pushdown — shuffle bytes and wall clock ---

// e19 quantifies what the split buys at execution time on the
// aggregate-heavy slice of TPC-H: every query whose winning plan adopts
// a partial aggregation runs with the split enumerated and
// force-disabled, and the table reports the DMS bytes actually moved
// and the wall clock of both arms. The metamorphic suite in
// internal/difftest certifies the two arms return identical relations;
// this experiment shows why the split wins — the shuffle carries
// per-node aggregate states instead of raw rows.
func e19(db *pdwqo.DB) {
	header("E19", "§4 — partial-aggregate pushdown: DMS bytes and wall clock, split vs unsplit")
	const reps = 3
	fmt.Printf("%-6s %-13s %-13s %-10s %-12s %s\n",
		"query", "bytes(split)", "bytes(off)", "reduction", "time(split)", "time(off)")
	var adopted, reduced int
	var totalOn, totalOff int64
	for _, name := range pdwqo.TPCHQueryNames() {
		sql := mustTPCH(name)
		on := mustPlan(db, sql, pdwqo.Options{})
		if !strings.Contains(mustExplain(on), "PartialGroupBy") {
			continue
		}
		adopted++
		off := mustPlan(db, sql, pdwqo.Options{DisableAggSplit: true})
		bOn, tOn := runMeasured(db, on, reps)
		bOff, tOff := runMeasured(db, off, reps)
		totalOn += bOn
		totalOff += bOff
		if bOn < bOff {
			reduced++
		}
		fmt.Printf("%-6s %-13d %-13d %9.1f%% %-12v %v\n",
			name, bOn, bOff, 100*(1-ratio(float64(bOn), float64(bOff))),
			tOn.Round(time.Microsecond), tOff.Round(time.Microsecond))
	}
	fmt.Printf("%d/%d TPC-H plans adopt the split; %d of them move fewer DMS bytes "+
		"(suite: %d vs %d bytes, %.1f%% less)\n",
		adopted, len(pdwqo.TPCHQueryNames()), reduced,
		totalOn, totalOff, 100*(1-ratio(float64(totalOn), float64(totalOff))))
	fmt.Println()
}

// runMeasured executes the plan reps times and reports the DMS bytes
// one execution moves plus the mean wall clock.
func runMeasured(db *pdwqo.DB, p *pdwqo.QueryPlan, reps int) (int64, time.Duration) {
	a := db.Appliance()
	var total time.Duration
	var bytes int64
	for i := 0; i < reps; i++ {
		before := a.Metrics.TotalBytesMoved()
		start := time.Now()
		if _, err := run(db, p); err != nil {
			fatal(err)
		}
		total += time.Since(start)
		bytes = a.Metrics.TotalBytesMoved() - before
	}
	return bytes, total / time.Duration(reps)
}
