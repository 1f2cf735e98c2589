package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"

	"pdwqo/internal/cost"
)

// config is one run of one workload. The zero value of a size field means
// the workload's default.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// passes, when positive, fixes the number of measured passes and the
	// clock is not consulted.
	passes int
	// sf is the TPC-H scale factor.
	sf float64
	// small cuts the query sets to the ones that compile in milliseconds.
	// Only the package's own test sets it.
	small  bool
	outDir string
}

// nodes is the number of compute nodes of every appliance the benchmark
// opens. dataSeed fixes the generated data and the generated large-join
// queries: they are the same for every -seed, which decides only the order
// of the operations, so that plan cost and bytes moved repeat exactly and
// compare with the recorded baseline.
const (
	nodes    = 8
	dataSeed = 42
)

// sample is one measured operation. slot is its place in the pass's list
// of operations: samples of one slot are repetitions of one operation.
type sample struct {
	slot     int
	ms       float64
	analytic bool // serve_mixed: a multi-step TPC-H query, not a point query
	prepared bool // serve_mixed: sent through a prepared statement
}

// runStats is what a set of passes produced.
type runStats struct {
	samples      []sample
	failed       int
	firstFailure string
	wall         time.Duration
	dmsBytes     int64 // bytes DMS moved while the passes ran
}

func (s *runStats) fail(format string, args ...any) {
	s.failed++
	if s.firstFailure == "" {
		s.firstFailure = fmt.Sprintf(format, args...)
	}
}

func (s *runStats) merge(o runStats) {
	s.samples = append(s.samples, o.samples...)
	s.failed += o.failed
	if s.firstFailure == "" {
		s.firstFailure = o.firstFailure
	}
}

func (s *runStats) opsPerS() float64 {
	return float64(len(s.samples)-s.failed) / s.wall.Seconds()
}

func (s *runStats) meanMS() float64 {
	var sum float64
	for _, x := range s.samples {
		sum += x.ms
	}
	return sum / float64(len(s.samples))
}

// percentile is the nearest-rank percentile of the samples keep selects.
func (s *runStats) percentile(p float64, keep func(sample) bool) float64 {
	var ms []float64
	for _, x := range s.samples {
		if keep == nil || keep(x) {
			ms = append(ms, x.ms)
		}
	}
	return nearestRank(ms, p)
}

func nearestRank(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	return xs[max(int(math.Ceil(p*float64(len(xs))))-1, 0)]
}

// opMedians is the latency of each operation of a pass, taken as the
// median of its repetitions. A pass is a fixed list of operations, so every
// operation is repeated once per pass and client, and a collection or a
// descheduled thread that lands on one repetition does not move its
// median. The end-to-end latencies are taken over these: their 90th
// percentile by nearest rank, and their geometric mean, the usual summary
// of a fixed query suite, in which every query weighs the same however
// long it takes. (A median across 8 or 22 queries would sit on one query
// beside a gap in the suite's spread of times, and jump by tens of percent
// when two queries swap ranks.) Percentiles over raw samples, which
// collections and scheduling do move, are per-layer metrics.
func (s *runStats) opMedians() []float64 {
	bySlot := map[int][]float64{}
	for _, x := range s.samples {
		bySlot[x.slot] = append(bySlot[x.slot], x.ms)
	}
	meds := make([]float64, 0, len(bySlot))
	for _, ms := range bySlot {
		meds = append(meds, median(ms))
	}
	return meds
}

// setupTimes splits set-up into the layers that do the work.
type setupTimes struct {
	buildShell, open, reference time.Duration
}

// workload is one of the four benchmark workloads. Every client of a
// workload runs whole passes: a pass is a fixed multiset of operations in
// an order the seed decides, so two runs of any length execute the same
// mix.
type workload interface {
	// setup generates the data, opens the appliance, compiles what the
	// measured phase does not compile itself, and checks every query's
	// result against the serial reference.
	setup(tm *setupTimes) error
	// setups is how often set-up is repeated for the median; warmup is how
	// many passes run before the measured ones.
	setups() int
	warmup() int
	// run has every client execute passes for as long as more(passes it
	// has done) holds, recording spans when rec is not nil. It never
	// cancels a context: a run ends between two passes.
	run(more func(done int) bool, rec *recorder) runStats
	// planCosts are the modeled DMS costs of the workload's plans.
	planCosts() []float64
	// dmsKBPerOp is what the plans moved, per operation.
	dmsKBPerOp(measured runStats) float64
	// traced runs the workload's per-layer instrumentation and fills in
	// the per-layer metrics it owns.
	traced(more func(done int) bool, rec *recorder, untraced runStats, layer map[string]float64) runStats
	close()
}

func newWorkload(cfg *config) (workload, error) {
	switch cfg.workload {
	case "compile_tpch":
		return &compileWorkload{cfg: cfg}, nil
	case "compile_largejoin":
		return &compileWorkload{cfg: cfg, large: true}, nil
	case "exec_tpch":
		return &execWorkload{cfg: cfg}, nil
	case "serve_mixed":
		return &serveWorkload{cfg: cfg}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", cfg.workload, strings.Join(workloadNames, ", "))
}

var workloadNames = []string{"compile_tpch", "compile_largejoin", "exec_tpch", "serve_mixed"}

// metricDef names a metric and its unit; BENCHMARK.json lists the same
// names, which the package's test checks.
type metricDef struct{ name, unit string }

var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_ms_geomean", "ms"},
	{"op_ms_p90", "ms"},
	{"alloc_mb_per_op", "MB"},
	{"live_heap_mb", "MB"},
	{"plan_cost_geomean", "cost"},
	{"dms_kb_per_op", "KB"},
}

var perLayerMetrics = []metricDef{
	{"sqlparser.parse_ms", "ms"}, {"algebra.bind_ms", "ms"}, {"normalize.normalize_ms", "ms"},
	{"dsql.generate_ms", "ms"}, {"planverify.check_ms", "ms"}, {"planverify.transval_ms", "ms"},
	{"memoxml.encode_ms", "ms"}, {"memoxml.decode_ms", "ms"}, {"memoxml.doc_kb", "KB"}, {"memoxml.roundtrips", "count"},
	{"memo.explore_ms", "ms"}, {"core.enumerate_ms", "ms"}, {"core.options_considered", "count"}, {"core.groups", "count"},
	{"core.greedy_fallbacks", "count"}, {"normalize.greedy_order_ms", "ms"}, {"memo.fixed_ms", "ms"},
	{"pdwqo.replica_coverage", "share"}, {"trace.overhead_share", "share"},
	{"engine.execute_ms", "ms"}, {"engine.return_ms", "ms"}, {"engine.shuffle_ms", "ms"}, {"engine.broadcast_ms", "ms"},
	{"engine.partition_move_ms", "ms"}, {"engine.other_move_ms", "ms"}, {"engine.orchestration_ms", "ms"},
	{"engine.steps", "count"}, {"engine.dms_kb", "KB"}, {"engine.dms_rows", "count"}, {"engine.hashed_rows", "count"},
	{"engine.max_node_share", "share"}, {"engine.retries", "count"},
	{"exec.runvec_ms", "ms"}, {"exec.ops", "count"}, {"exec.rows_out", "count"}, {"exec.scan_rows", "count"}, {"exec.batches", "count"},
	{"storage.scan_columns_ms", "ms"}, {"storage.bulk_insert_ms", "ms"}, {"vec.from_rows_ms", "ms"},
	{"runtime.allocs_per_op", "count"}, {"runtime.gc_cpu_share", "share"}, {"runtime.gc_cycles", "count"},
	{"engine.step_compile_ms", "ms"}, {"normalize.parameterize_us", "us"}, {"plancache.get_us", "us"}, {"dsql.bind_us", "us"},
	{"pdwqo.optimize_hit_us", "us"}, {"plancache.hit_share", "share"}, {"plancache.compiles", "count"}, {"plancache.evictions", "count"},
	{"server.wire_overhead_us", "us"}, {"server.frame_rt_us", "us"},
	{"server.point_ms_p50", "ms"}, {"server.point_ms_p90", "ms"}, {"server.analytic_ms_p50", "ms"}, {"server.analytic_ms_p90", "ms"},
	{"server.prepared_ms_p50", "ms"}, {"server.adhoc_ms_p50", "ms"}, {"server.op_ms_p99", "ms"},
	{"server.admitted", "count"}, {"server.rejected", "count"}, {"server.scaling_c_v_1", "x"},
	{"tpch.build_shell_s", "s"}, {"pdwqo.open_s", "s"}, {"bench.reference_s", "s"}, {"runtime.peak_rss_mb", "MB"},
	{"op_ms_p50", "ms"}, {"failed_share", "share"},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// clients is the number of load-generating sessions: one per processor,
// at most four, so the generator does not starve the server it measures.
func clients() int { return min(runtime.NumCPU(), 4) }

// runtimeSample reads the process-wide allocation and collector counters.
type runtimeSample struct {
	allocBytes, allocObjects, gcCycles float64
	gcCPU, totalCPU                    float64
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeSample{val(0), val(1), val(2), val(3), val(4)}
}

// liveHeapMB is the heap still reachable after a forced collection.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// peakRSSMB reads the process's resident-set high-water mark; 0 where
// /proc does not offer it.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// geomean is the geometric mean of xs.
func geomean(xs []float64) float64 {
	g, _ := cost.RatioSummary(xs)
	return g
}

// costGeomean is the geometric mean of the plans' modeled costs, each
// smoothed by one cost unit as cost.PlanCostRatio does, so that a plan that
// moves nothing stays finite.
func costGeomean(costs []float64) float64 {
	smoothed := make([]float64, len(costs))
	for i, c := range costs {
		smoothed[i] = cost.PlanCostRatio(c, 0)
	}
	return geomean(smoothed)
}

// until builds the loop condition of a set of passes: a fixed count when
// passes is positive, otherwise the clock, checked between passes only.
// Another pass starts if, at the pace so far, at least half of it fits in
// the time left: the pass count is the run time rounded to whole passes,
// so a workload whose pass takes nearly the whole run time does not flip
// between one pass and two on timing noise.
func until(passes int, d time.Duration) func(done int) bool {
	start := time.Now()
	return func(done int) bool {
		if passes > 0 {
			return done < passes
		}
		elapsed := time.Since(start)
		return done == 0 || elapsed+elapsed/time.Duration(2*done) < d
	}
}

// runWorkload runs one workload in this process and reports its metrics:
// the end-to-end ones from an untraced run, or with cfg.trace the
// per-layer ones.
func runWorkload(cfg *config, log io.Writer) (*result, error) {
	w, err := newWorkload(cfg)
	if err != nil {
		return nil, err
	}
	defer w.close()

	// Set-up, repeated where it is cheap enough, reported as the median.
	var tm setupTimes
	var setups []float64
	n := w.setups()
	if cfg.trace {
		n = 1
	}
	for i := 0; i < n; i++ {
		if i > 0 {
			w.close()
			runtime.GC()
		}
		tm = setupTimes{}
		t := time.Now()
		if err := w.setup(&tm); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", cfg.workload, err)
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	if w.warmup() > 0 {
		w.run(until(w.warmup(), 0), nil)
	}

	measured := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		// The traced run splits its time between an untraced phase, which
		// gives the base the overhead and coverage are taken against, and
		// the instrumented phases.
		measured /= 2
	}
	before := readRuntime()
	st := w.run(until(cfg.passes, measured), nil)
	after := readRuntime()
	ops := float64(len(st.samples))
	opMS := st.opMedians()
	if p := os.Getenv("BENCH_DUMP"); p != "" { // TEMPORARY
		var sb strings.Builder
		fmt.Fprintf(&sb, "{\"wall\": %v, \"setups\": %v, \"samples\": [", st.wall.Seconds(), strings.ReplaceAll(fmt.Sprint(setups), " ", ","))
		for i, x := range st.samples {
			if i > 0 {
				sb.WriteString(",")
			}
			fmt.Fprintf(&sb, "[%d,%v]", x.slot, x.ms)
		}
		sb.WriteString("]}")
		os.WriteFile(p, []byte(sb.String()), 0o644)
	}

	res := &result{Metrics: map[string]metric{}}
	put := func(defs []metricDef, vals map[string]float64) {
		for _, d := range defs {
			res.Metrics[d.name] = metric{Value: vals[d.name], Unit: d.unit}
		}
	}
	if !cfg.trace {
		put(endToEndMetrics, map[string]float64{
			"setup_s":           median(setups),
			"ops_per_s":         st.opsPerS(),
			"op_ms_geomean":     geomean(opMS),
			"op_ms_p90":         nearestRank(opMS, 0.90),
			"alloc_mb_per_op":   (after.allocBytes - before.allocBytes) / ops / (1 << 20),
			"live_heap_mb":      liveHeapMB(),
			"plan_cost_geomean": costGeomean(w.planCosts()),
			"dms_kb_per_op":     w.dmsKBPerOp(st),
		})
	} else {
		layer := map[string]float64{
			"tpch.build_shell_s":    tm.buildShell.Seconds(),
			"pdwqo.open_s":          tm.open.Seconds(),
			"bench.reference_s":     tm.reference.Seconds(),
			"runtime.allocs_per_op": (after.allocObjects - before.allocObjects) / ops,
			"runtime.gc_cpu_share":  (after.gcCPU - before.gcCPU) / (after.totalCPU - before.totalCPU),
			"runtime.gc_cycles":     after.gcCycles - before.gcCycles,
		}
		rec := newRecorder()
		tst := w.traced(until(cfg.passes, measured), rec, st, layer)
		layer["runtime.peak_rss_mb"] = peakRSSMB()
		layer["op_ms_p50"] = st.percentile(0.50, nil)
		st.merge(tst)
		layer["failed_share"] = float64(st.failed) / float64(len(st.samples))
		put(perLayerMetrics, layer)
		path := filepath.Join(cfg.outDir, "trace_"+cfg.workload+".json")
		if err := rec.write(path); err != nil {
			return nil, err
		}
		fmt.Fprintf(log, "%s: %d spans written to %s\n", cfg.workload, len(rec.spans), path)
	}
	res.Attempted = len(st.samples)
	res.Failed = st.failed
	res.Correct = st.failed == 0
	if st.failed > 0 {
		fmt.Fprintf(log, "%s: %d of %d operations failed; first: %s\n", cfg.workload, st.failed, len(st.samples), st.firstFailure)
	}
	fmt.Fprintf(log, "%s: %d operations measured in %.2f s (%d set-ups, %d warm-up passes)\n",
		cfg.workload, res.Attempted, st.wall.Seconds(), len(setups), w.warmup())
	if slots := len(opMS); !cfg.trace && slots/10 < 10 {
		// The query set is fixed, so no run length gives it more operations.
		fmt.Fprintf(log, "%s: op_ms_p90 ranks %d operations, %d of them beyond it: fewer than ten, so read it as the time of the slow fifth of a fixed query set, not as an estimate of a tail\n",
			cfg.workload, slots, slots/10)
	}
	return res, nil
}
