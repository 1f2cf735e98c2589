package pdwqo

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"

	"pdwqo/internal/rowcmp"
)

// TestAnalyzeDuringExecution hammers the Metrics accessors and the
// EXPLAIN renderers while EXPLAIN ANALYZE executions are in flight. Run
// under -race this certifies that Snapshot/StepCount/TotalBytesMoved are
// properly synchronized with the engine's concurrent step recording — the
// bug class that motivated unexporting Metrics.steps behind locked
// accessors.
func TestAnalyzeDuringExecution(t *testing.T) {
	db := openTest(t)
	sql, _ := TPCHQuery("q05")
	plan, err := db.Optimize(sql, Options{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}

	const rounds = 8
	var wg sync.WaitGroup
	done := make(chan struct{})

	// The ANALYZE goroutine is the sole executor; the observers below read
	// concurrently.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for i := 0; i < rounds; i++ {
			_, report, execErr := db.ExplainAnalyze(plan, ExecConfig{}, false)
			if execErr != nil {
				t.Error(execErr)
				return
			}
			if !strings.Contains(report, "-- analyze summary") {
				t.Errorf("ANALYZE report missing summary:\n%s", report)
				return
			}
		}
	}()

	// Observer goroutines hammer every locked accessor while steps are
	// being recorded by the in-flight executions.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m := &db.appliance.Metrics
			for {
				select {
				case <-done:
					return
				default:
				}
				snap := m.Snapshot()
				if len(snap) != 0 && m.StepCount() < 0 {
					t.Error("impossible step count")
				}
				_ = m.TotalBytesMoved()
				_ = m.RetryCount()
				_ = m.FaultCount()
			}
		}()
	}

	// A render goroutine re-renders the (read-only) EXPLAIN documents
	// concurrently; these walk the same plan the executor is running.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if _, err := plan.ExplainText(); err != nil {
				t.Error(err)
				return
			}
			if _, err := plan.ExplainJSON(); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	wg.Wait()
}

// analyzeDoc is the part of the EXPLAIN ANALYZE JSON document the tests
// below read.
type analyzeDoc struct {
	Steps []struct {
		Actual *struct {
			Rows int64 `json:"rows"`
		} `json:"actual"`
	} `json:"steps"`
	Analyze struct {
		StepsRun int   `json:"stepsRun"`
		Retries  int64 `json:"retries"`
		Faults   int64 `json:"faults"`
	} `json:"analyze"`
}

// analyze runs EXPLAIN ANALYZE and decodes its JSON report.
func analyze(t *testing.T, db *DB, plan *QueryPlan, cfg ExecConfig) (*Result, analyzeDoc) {
	t.Helper()
	res, report, err := db.ExplainAnalyze(plan, cfg, true)
	if err != nil {
		t.Fatal(err)
	}
	var doc analyzeDoc
	if err := json.Unmarshal([]byte(report), &doc); err != nil {
		t.Fatalf("ANALYZE JSON: %v\n%s", err, report)
	}
	return res, doc
}

func mustOptimize(t *testing.T, db *DB, name string) *QueryPlan {
	t.Helper()
	sql, _ := TPCHQuery(name)
	plan, err := db.Optimize(sql, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// TestAnalyzeReadsItsOwnRun: EXPLAIN ANALYZE reports the steps of the run
// it started, however busy the appliance is. Every report taken while a
// second goroutine executes a different plan must cover exactly the
// analyzed plan's steps with the per-step actual rows of a quiet run.
func TestAnalyzeReadsItsOwnRun(t *testing.T) {
	db := openTest(t)
	plan, other := mustOptimize(t, db, "q03"), mustOptimize(t, db, "q05")
	_, quiet := analyze(t, db, plan, ExecConfig{})

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if _, err := db.ExecutePlan(other); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 50; i++ {
		_, doc := analyze(t, db, plan, ExecConfig{})
		if doc.Analyze.StepsRun != len(plan.DSQL.Steps) {
			t.Errorf("report %d: steps=%d/%d", i, doc.Analyze.StepsRun, len(plan.DSQL.Steps))
		}
		if !reflect.DeepEqual(doc.Steps, quiet.Steps) {
			t.Errorf("report %d: per-step actual rows differ from the quiet run", i)
		}
	}
	close(done)
	wg.Wait()
}

// TestFaultPlanDiesWithItsRun: a run under an always-failing fault plan
// leaves nothing behind — a zero-config run of the same plan on the same
// DB succeeds and reports zero faults.
func TestFaultPlanDiesWithItsRun(t *testing.T) {
	db := openTest(t)
	plan := mustOptimize(t, db, "q03")
	want, err := db.ExecutePlan(plan)
	if err != nil {
		t.Fatal(err)
	}
	always := NewFaultPlan(Fault{Kind: FaultFail, Op: FaultOpAny, Step: FaultAny, Node: FaultAny, Move: FaultAny, Times: 1 << 20})
	if _, err := db.Run(context.Background(), plan, ExecConfig{Faults: always}); !errors.Is(err, ErrFaultInjected) {
		t.Fatalf("run under an always-fail plan: err = %v, want an injected fault", err)
	}
	got, doc := analyze(t, db, plan, ExecConfig{})
	if doc.Analyze.Faults != 0 || doc.Analyze.Retries != 0 {
		t.Errorf("zero-config run reports faults=%d retries=%d, want 0 and 0", doc.Analyze.Faults, doc.Analyze.Retries)
	}
	if err := rowcmp.Exact.Compare(relation(rowcmp.Exact, "before", want), relation(rowcmp.Exact, "after", got)); err != nil {
		t.Errorf("zero-config run after a faulted run: %v", err)
	}
}

// TestMixedConfigIsolation runs one plan from several goroutines on one
// DB, each under its own ExecConfig: serial, parallel, a seeded fault plan
// with retries, and a traced run. Under -race this certifies that a run's
// configuration is its own — every result is byte-identical to the serial
// run, only the faulted runs see faults, and only the traced runs' steps
// reach the tracer.
func TestMixedConfigIsolation(t *testing.T) {
	db := openTest(t)
	plan := mustOptimize(t, db, "q05")
	steps := len(plan.DSQL.Steps)
	serial, err := db.Run(context.Background(), plan, ExecConfig{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := relation(rowcmp.Exact, "serial", serial)

	const rounds = 4
	tracer := NewTracer()
	arms := []struct {
		name    string
		cfg     func() ExecConfig
		faulted bool
	}{
		{name: "serial", cfg: func() ExecConfig { return ExecConfig{Parallelism: 1} }},
		{name: "parallel", cfg: func() ExecConfig { return ExecConfig{Parallelism: 4} }},
		{name: "traced", cfg: func() ExecConfig { return ExecConfig{Tracer: tracer} }},
		// Seed 1 over three steps pins every failing rule to step 0, an
		// idempotent move, so four retries absorb the whole budget.
		{name: "faulted", faulted: true, cfg: func() ExecConfig {
			return ExecConfig{Parallelism: 2, MaxRetries: 4, Faults: RandomFaultPlan(1, steps, 8)}
		}},
	}
	var wg sync.WaitGroup
	for _, arm := range arms {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				run, err := db.appliance.Execute(context.Background(), plan.DSQL, arm.cfg())
				if err != nil {
					t.Errorf("%s: %v", arm.name, err)
					return
				}
				if err := rowcmp.Exact.Compare(want, relation(rowcmp.Exact, arm.name, resultOf(run.Cols, run.Rows))); err != nil {
					t.Errorf("%s: %v", arm.name, err)
				}
				if len(run.Steps) != steps {
					t.Errorf("%s: run recorded %d steps, want %d", arm.name, len(run.Steps), steps)
				}
				if fired := run.Faults > 0 && run.Retries > 0; fired != arm.faulted {
					t.Errorf("%s: run recorded faults=%d retries=%d", arm.name, run.Faults, run.Retries)
				}
			}
		}()
	}
	wg.Wait()
	if got := len(tracer.StepSpans()); got != rounds*steps {
		t.Errorf("traced arm's tracer holds %d step spans, want its own %d", got, rounds*steps)
	}
}
