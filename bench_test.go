package pdwqo

// Benchmarks backing the experiment harness (cmd/pdwbench); one per paper
// artifact. Run with:
//
//	go test -bench=. -benchmem
//
// Each benchmark reports domain-specific metrics alongside ns/op:
// modeled DMS cost (cost/op), bytes moved (moved-B/op), memo size.

import (
	"context"
	"fmt"
	"testing"
	"time"

	"pdwqo/internal/cost"
	"pdwqo/internal/engine"
	"pdwqo/internal/stats"
	"pdwqo/internal/tpch"
	"pdwqo/internal/types"
)

var benchDB *DB

func benchOpen(b *testing.B) *DB {
	b.Helper()
	if benchDB == nil {
		db, err := OpenTPCH(0.005, 8, 42)
		if err != nil {
			b.Fatal(err)
		}
		benchDB = db
	}
	return benchDB
}

// BenchmarkE1MemoFigure3 measures serial memo construction + export for the
// Figure 3 query.
func BenchmarkE1MemoFigure3(b *testing.B) {
	db := benchOpen(b)
	sql := `SELECT * FROM CUSTOMER C, ORDERS O
	        WHERE C.c_custkey = O.o_custkey AND O.o_totalprice > 1000`
	var groups, exprs int
	for i := 0; i < b.N; i++ {
		p, err := db.Optimize(sql, Options{})
		if err != nil {
			b.Fatal(err)
		}
		groups, exprs = p.Memo.NumGroups(), p.Memo.NumExprs()
	}
	b.ReportMetric(float64(groups), "groups")
	b.ReportMetric(float64(exprs), "exprs")
}

// BenchmarkE2Section24Pipeline measures the full optimize+execute pipeline
// for the paper's §2.4 two-step plan.
func BenchmarkE2Section24Pipeline(b *testing.B) {
	db := benchOpen(b)
	sql := `SELECT * FROM customer c, orders o
	        WHERE c.c_custkey = o.o_custkey AND o.o_totalprice > 1000`
	for i := 0; i < b.N; i++ {
		if _, err := db.Execute(sql, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE3JoinOrder compares optimization in full-search and serial-
// baseline modes on the §3.2 three-way join.
func BenchmarkE3JoinOrder(b *testing.B) {
	db := benchOpen(b)
	sql := `SELECT c_name, SUM(l_extendedprice) AS s FROM customer, orders, lineitem
	        WHERE c_custkey = o_custkey AND o_orderkey = l_orderkey GROUP BY c_name`
	for _, mode := range []struct {
		name string
		m    OptimizerMode
	}{{"full", ModeFull}, {"baseline", ModeSerialBaseline}} {
		b.Run(mode.name, func(b *testing.B) {
			var c float64
			for i := 0; i < b.N; i++ {
				p, err := db.Optimize(sql, Options{Mode: mode.m})
				if err != nil {
					b.Fatal(err)
				}
				c = p.Cost()
			}
			b.ReportMetric(c, "cost/op")
		})
	}
}

// BenchmarkE4Q20 measures Figure 7's full pipeline: Q20 optimize + execute.
func BenchmarkE4Q20(b *testing.B) {
	db := benchOpen(b)
	sql, _ := TPCHQuery("q20")
	plan, err := db.Optimize(sql, Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("optimize", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := db.Optimize(sql, Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("execute", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := db.ExecutePlan(plan); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE5MoveCost measures the analytic cost model itself.
func BenchmarkE5MoveCost(b *testing.B) {
	m := cost.NewModel(8, cost.DefaultLambda())
	var s float64
	for i := 0; i < b.N; i++ {
		s += m.MoveCost(cost.Shuffle, float64(i%1000)*1000, 50)
	}
	_ = s
}

// BenchmarkE5Calibrate measures the λ calibration pass.
func BenchmarkE5Calibrate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		engine.Calibrate(20000)
	}
}

// BenchmarkE6MoveKinds executes each DMS operation shape on the appliance.
func BenchmarkE6MoveKinds(b *testing.B) {
	db := benchOpen(b)
	workloads := []struct{ name, sql string }{
		{"shuffle", `SELECT * FROM customer c, orders o WHERE c.c_custkey = o.o_custkey`},
		{"broadcast", `SELECT l_quantity FROM part, lineitem WHERE p_partkey = l_partkey AND p_name LIKE 'forest%'`},
		{"gather", `SELECT SUM(l_quantity) FROM lineitem`},
		{"collocated", `SELECT o_orderdate FROM orders, lineitem WHERE o_orderkey = l_orderkey`},
	}
	for _, w := range workloads {
		plan, err := db.Optimize(w.sql, Options{})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(w.name, func(b *testing.B) {
			a := db.Appliance()
			before := a.Metrics.TotalBytesMoved()
			for i := 0; i < b.N; i++ {
				if _, err := db.ExecutePlan(plan); err != nil {
					b.Fatal(err)
				}
			}
			moved := a.Metrics.TotalBytesMoved() - before
			b.ReportMetric(float64(moved)/float64(b.N), "moved-B/op")
		})
	}
}

// BenchmarkE7Suite optimizes every TPC-H query in both modes, reporting
// the aggregate modeled-cost ratio (the headline plan-quality claim).
func BenchmarkE7Suite(b *testing.B) {
	db := benchOpen(b)
	var fullCost, baseCost float64
	for i := 0; i < b.N; i++ {
		fullCost, baseCost = 0, 0
		for _, name := range TPCHQueryNames() {
			sql, _ := TPCHQuery(name)
			f, err := db.Optimize(sql, Options{})
			if err != nil {
				b.Fatal(err)
			}
			s, err := db.Optimize(sql, Options{Mode: ModeSerialBaseline})
			if err != nil {
				b.Fatal(err)
			}
			fullCost += f.Cost()
			baseCost += s.Cost()
		}
	}
	b.ReportMetric(baseCost/fullCost, "baseline-cost-ratio")
}

// BenchmarkE8PruningAblation measures enumeration with and without
// interesting-property retention.
func BenchmarkE8PruningAblation(b *testing.B) {
	db := benchOpen(b)
	sql, _ := TPCHQuery("q18")
	for _, cfg := range []struct {
		name    string
		disable bool
	}{{"retention-on", false}, {"retention-off", true}} {
		b.Run(cfg.name, func(b *testing.B) {
			var c float64
			var retained int
			for i := 0; i < b.N; i++ {
				p, err := db.Optimize(sql, Options{DisableInterestingRetention: cfg.disable})
				if err != nil {
					b.Fatal(err)
				}
				c, retained = p.Cost(), p.Distributed.OptionsRetained
			}
			b.ReportMetric(c, "cost/op")
			b.ReportMetric(float64(retained), "options")
		})
	}
}

// BenchmarkE9AggSplit measures execution with and without the
// aggregation split, reporting bytes moved.
func BenchmarkE9AggSplit(b *testing.B) {
	db := benchOpen(b)
	sql := `SELECT l_partkey, COUNT(*) AS c, SUM(l_extendedprice) AS s,
	        MIN(l_shipdate) AS d FROM lineitem GROUP BY l_partkey`
	for _, cfg := range []struct {
		name    string
		disable bool
	}{{"split", false}, {"complete", true}} {
		plan, err := db.Optimize(sql, Options{DisableAggSplit: cfg.disable})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(cfg.name, func(b *testing.B) {
			a := db.Appliance()
			before := a.Metrics.TotalBytesMoved()
			for i := 0; i < b.N; i++ {
				if _, err := db.ExecutePlan(plan); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(a.Metrics.TotalBytesMoved()-before)/float64(b.N), "moved-B/op")
		})
	}
}

// BenchmarkE10Budget sweeps the optimizer timeout on the widest join (q05).
func BenchmarkE10Budget(b *testing.B) {
	db := benchOpen(b)
	sql, _ := TPCHQuery("q05")
	for _, budget := range []int{200, 1000, 5000} {
		b.Run(fmt.Sprintf("budget-%d", budget), func(b *testing.B) {
			var c float64
			for i := 0; i < b.N; i++ {
				p, err := db.Optimize(sql, Options{Budget: budget})
				if err != nil {
					b.Fatal(err)
				}
				c = p.Cost()
			}
			b.ReportMetric(c, "cost/op")
		})
	}
}

// BenchmarkE11EndToEnd runs the whole suite distributed, the E11 workload.
func BenchmarkE11EndToEnd(b *testing.B) {
	db := benchOpen(b)
	plans := map[string]*QueryPlan{}
	for _, name := range TPCHQueryNames() {
		sql, _ := TPCHQuery(name)
		p, err := db.Optimize(sql, Options{})
		if err != nil {
			b.Fatal(err)
		}
		plans[name] = p
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, name := range TPCHQueryNames() {
			if _, err := db.ExecutePlan(plans[name]); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkE12StatsMerge measures local-statistics building and merging.
func BenchmarkE12StatsMerge(b *testing.B) {
	vals := make([]types.Value, 20000)
	for i := range vals {
		vals[i] = types.NewInt(int64(i % 3000))
	}
	locals := make([]*stats.Table, 8)
	for n := range locals {
		t, err := stats.BuildTable(map[string][]types.Value{"c": vals[n*2500 : (n+1)*2500]})
		if err != nil {
			b.Fatal(err)
		}
		locals[n] = t
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stats.MergeTables(locals, "")
	}
}

// BenchmarkE14ParallelSpeedup measures the wall-clock effect of the
// per-node fan-out on an 8-node TPC-H run: the same plans execute with
// Parallelism=1 (the serial reference path) and Parallelism=8, and the
// ratio is reported as "speedup". A simulated per-node dispatch latency
// stands in for the network round trip each DSQL step pays per node, so
// the overlap is observable regardless of the host's core count; results
// remain byte-identical at every setting (internal/difftest certifies
// this).
func BenchmarkE14ParallelSpeedup(b *testing.B) {
	db, err := OpenTPCH(0.002, 8, 42)
	if err != nil {
		b.Fatal(err)
	}
	queries := []string{"q01", "q06", "q12", "q14"}
	plans := make([]*QueryPlan, len(queries))
	for i, name := range queries {
		sql, _ := TPCHQuery(name)
		if plans[i], err = db.Optimize(sql, Options{}); err != nil {
			b.Fatal(err)
		}
	}
	run := func(par int) time.Duration {
		cfg := ExecConfig{Parallelism: par, NodeLatency: 5 * time.Millisecond}
		start := time.Now()
		for _, p := range plans {
			if _, err := db.Run(context.Background(), p, cfg); err != nil {
				b.Fatal(err)
			}
		}
		return time.Since(start)
	}
	b.ResetTimer()
	var serial, parallel time.Duration
	for i := 0; i < b.N; i++ {
		serial += run(1)
		parallel += run(8)
	}
	b.ReportMetric(float64(serial)/float64(parallel), "speedup")
	b.ReportMetric(float64(parallel.Nanoseconds())/float64(b.N)/1e6, "parallel-ms/op")
}

// BenchmarkTPCHGenerate measures the dbgen-like generator.
func BenchmarkTPCHGenerate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tpch.Generate(0.002, int64(i))
	}
}

// BenchmarkOptimizeSuite is the overall optimizer-latency benchmark: full
// pipeline (parse→…→DSQL) across the suite.
func BenchmarkOptimizeSuite(b *testing.B) {
	db := benchOpen(b)
	for i := 0; i < b.N; i++ {
		for _, name := range TPCHQueryNames() {
			sql, _ := TPCHQuery(name)
			if _, err := db.Optimize(sql, Options{}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkPlanCacheCold measures a full cold compile of a mid-size query
// — the baseline the cached path is compared against.
func BenchmarkPlanCacheCold(b *testing.B) {
	db := benchOpen(b)
	db.SetPlanCache(-1)
	sql, _ := TPCHQuery("q05")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Optimize(sql, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlanCacheHit measures Optimize through a warm plan cache:
// parameterize, fingerprint, and re-bind the cached template. The PR's
// acceptance bar is >=10x faster than BenchmarkPlanCacheCold.
func BenchmarkPlanCacheHit(b *testing.B) {
	db := benchOpen(b)
	db.SetPlanCache(0)
	defer db.SetPlanCache(-1)
	sql, _ := TPCHQuery("q05")
	if _, err := db.Optimize(sql, Options{}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan, err := db.Optimize(sql, Options{})
		if err != nil {
			b.Fatal(err)
		}
		if plan.CacheStatus != "hit" {
			b.Fatalf("CacheStatus = %q, want hit", plan.CacheStatus)
		}
	}
	m := db.PlanCache().Metrics()
	b.ReportMetric(float64(m.Hits)/float64(m.Hits+m.Misses+m.Shared), "hit-rate")
}

// BenchmarkE18VerifyOverhead measures what Options.Verify adds to a cold
// compile: the "plain" and "verify" sub-benchmarks run the identical
// optimization with the plan cache off, so their delta is the full cost
// of the planverify pass (plan walk + DSQL dataflow + MEMO invariants).
// The PR's acceptance bar is verify overhead < 5% of the cold compile.
func BenchmarkE18VerifyOverhead(b *testing.B) {
	db := benchOpen(b)
	db.SetPlanCache(-1)
	sql, _ := TPCHQuery("q05")
	for _, bench := range []struct {
		name string
		opts Options
	}{
		{"plain", Options{}},
		{"verify", Options{Verify: true}},
	} {
		b.Run(bench.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := db.Optimize(sql, bench.opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
