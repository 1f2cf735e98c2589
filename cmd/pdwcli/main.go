// Command pdwcli runs ad-hoc SQL against a generated TPC-H appliance,
// printing the distributed plan and/or results — the "client connection"
// of the paper's Figure 1, one query at a time.
//
// Usage:
//
//	pdwcli [-sf 0.01] [-nodes 8] [-seed 42] [-explain] [-explain-json]
//	       [-analyze] [-trace-out trace.json] [-serial] [-baseline]
//	       [-retries 3] [-step-timeout 1s] [-fault "fail:step=1"]
//	       [-plan-cache 128] (-q "SELECT ..." | -tpch q20)
//
// -explain prints the plan without executing; -analyze executes and
// prints EXPLAIN ANALYZE (per-step estimates vs actuals with a q-error
// summary); -trace-out writes the full pipeline trace (spans + counters)
// as JSON to a file, or to stdout with "-".
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"pdwqo"
)

// validateRunFlags checks the resilience and fault-injection flags
// before the expensive appliance construction, so a typo fails in
// milliseconds with a one-line diagnostic instead of after full data
// generation — or as a negative value smuggled into the engine. On
// success they come back as the run's execution configuration.
func validateRunFlags(retries int, timeout time.Duration, faultStr string) (pdwqo.ExecConfig, error) {
	if retries < 0 {
		return pdwqo.ExecConfig{}, fmt.Errorf("-retries must be >= 0, got %d", retries)
	}
	if timeout < 0 {
		return pdwqo.ExecConfig{}, fmt.Errorf("-step-timeout must be >= 0, got %v", timeout)
	}
	faults, err := pdwqo.ParseFaultSpec(faultStr)
	if err != nil {
		return pdwqo.ExecConfig{}, fmt.Errorf("invalid -fault spec: %v", err)
	}
	return pdwqo.ExecConfig{MaxRetries: retries, StepTimeout: timeout, Faults: faults}, nil
}

func main() {
	var (
		sf        = flag.Float64("sf", 0.01, "TPC-H scale factor")
		nodes     = flag.Int("nodes", 8, "compute nodes")
		seed      = flag.Int64("seed", 42, "generator seed")
		query     = flag.String("q", "", "SQL text to run")
		tpchName  = flag.String("tpch", "", "run a named TPC-H query (q01..q20)")
		explain   = flag.Bool("explain", false, "print the plan instead of executing")
		explainJ  = flag.Bool("explain-json", false, "print the plan as JSON instead of executing")
		analyze   = flag.Bool("analyze", false, "execute and print EXPLAIN ANALYZE (estimates vs actuals)")
		traceOut  = flag.String("trace-out", "", `write the pipeline trace as JSON to this file ("-" = stdout)`)
		serial    = flag.Bool("serial", false, "also run the single-node reference and compare")
		baseline  = flag.Bool("baseline", false, "use the parallelized-best-serial-plan mode")
		maxRows   = flag.Int("rows", 20, "max result rows to print")
		parallel  = flag.Int("parallel", 0, "worker parallelism for enumeration and execution (0 = GOMAXPROCS, 1 = serial)")
		retries   = flag.Int("retries", 0, "max per-step retries for transient failures (0 = off)")
		timeout   = flag.Duration("step-timeout", 0, "per-step attempt timeout (0 = unbounded)")
		faultStr  = flag.String("fault", "", `fault-injection spec, e.g. "fail:step=1,node=2" or "seed=42" (see pdwqo.ParseFaultSpec)`)
		planCache = flag.Int("plan-cache", -1, "install a plan cache with this capacity (0 = default capacity, negative = off) and report its metrics")
		noSplit   = flag.Bool("no-agg-split", false, "disable the partial/final aggregation split (ablation control arm)")
		sbudget   = flag.Int("search-budget", 0, "plan in the greedy join-order regime when the query's search space (the weight of its fixpoint memo, counted off the tree) reaches this count (0 = unbounded)")
	)
	flag.Parse()

	sql := *query
	if *tpchName != "" {
		var ok bool
		sql, ok = pdwqo.TPCHQuery(*tpchName)
		if !ok {
			fail(fmt.Errorf("unknown TPC-H query %q (have %v)", *tpchName, pdwqo.TPCHQueryNames()))
		}
	}
	if sql == "" {
		flag.Usage()
		os.Exit(2)
	}
	cfg, err := validateRunFlags(*retries, *timeout, *faultStr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pdwcli:", err)
		os.Exit(2)
	}

	db, err := pdwqo.OpenTPCH(*sf, *nodes, *seed)
	if err != nil {
		fail(err)
	}
	cfg.Parallelism = *parallel
	if *planCache >= 0 {
		db.SetPlanCache(*planCache)
	}
	opts := pdwqo.Options{Parallelism: *parallel}
	if *baseline {
		opts.Mode = pdwqo.ModeSerialBaseline
	}
	opts.DisableAggSplit = *noSplit
	opts.SearchBudget = *sbudget
	var tracer *pdwqo.Tracer
	if *traceOut != "" {
		tracer = pdwqo.NewTracer()
		opts.Tracer = tracer
		cfg.Tracer = tracer
	}
	plan, err := db.Optimize(sql, opts)
	if err != nil {
		fail(err)
	}
	if c := db.PlanCache(); c != nil {
		m := c.Metrics()
		fmt.Printf("-- plan cache: %s (hits=%d shared=%d misses=%d compiles=%d invalidations=%d)\n",
			plan.CacheStatus, m.Hits, m.Shared, m.Misses, m.Compiles, m.Invalidations)
	}
	switch {
	case *explainJ:
		out, err := plan.ExplainJSON()
		if err != nil {
			fail(err)
		}
		fmt.Print(out)
	case *explain:
		out, err := plan.ExplainText()
		if err != nil {
			fail(err)
		}
		fmt.Print(out)
	case *analyze:
		res, report, execErr := db.ExplainAnalyze(plan, cfg, false)
		fmt.Print(report)
		if execErr != nil {
			dumpTrace(db, tracer, *traceOut)
			fail(execErr)
		}
		fmt.Printf("-- %d rows\n", len(res.Rows))
	default:
		res, err := db.Run(context.Background(), plan, cfg)
		if err != nil {
			dumpTrace(db, tracer, *traceOut)
			fail(err)
		}
		if plan.Regime != "" {
			fmt.Printf("-- search regime: %s\n", plan.Regime)
		}
		fmt.Printf("-- %d rows, DMS cost %.6g, moves %v\n", len(res.Rows), plan.Cost(), plan.Moves())
		if cfg.Faults != nil || cfg.MaxRetries > 0 {
			m := &db.Appliance().Metrics
			fmt.Printf("-- resilience: %d faults injected, %d retries\n", m.FaultCount(), m.RetryCount())
		}
		printRows(res, *maxRows)
		if *serial {
			ref, err := db.ExecuteSerial(sql)
			if err != nil {
				fail(err)
			}
			fmt.Printf("-- serial reference: %d rows (match: %v)\n", len(ref.Rows), len(ref.Rows) == len(res.Rows))
		}
	}
	dumpTrace(db, tracer, *traceOut)
}

// dumpTrace writes the trace JSON to path ("-" = stdout). The appliance's
// cumulative metrics are exported into the counter registry first, so the
// file carries both spans and final exec.* totals.
func dumpTrace(db *pdwqo.DB, tracer *pdwqo.Tracer, path string) {
	if tracer == nil || path == "" {
		return
	}
	db.Appliance().Metrics.Export(tracer.Counters())
	data, err := tracer.JSON()
	if err != nil {
		fail(err)
	}
	if path == "-" {
		fmt.Println(string(data))
		return
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		fail(err)
	}
	fmt.Fprintf(os.Stderr, "pdwcli: trace written to %s\n", path)
}

func printRows(res *pdwqo.Result, max int) {
	fmt.Println(joinCols(res.Columns))
	for i, row := range res.Rows {
		if i == max {
			fmt.Printf("... (%d more)\n", len(res.Rows)-max)
			return
		}
		for j, v := range row {
			if j > 0 {
				fmt.Print(" | ")
			}
			fmt.Print(v)
		}
		fmt.Println()
	}
}

func joinCols(cols []string) string {
	out := ""
	for i, c := range cols {
		if i > 0 {
			out += " | "
		}
		out += c
	}
	return out
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "pdwcli:", err)
	os.Exit(1)
}
