package difftest

import (
	"fmt"
	"strings"
	"testing"

	"pdwqo"
)

// TestAnalyzeReconcilesWithMetrics is the observability property test:
// for every TPC-H query, the actuals that EXPLAIN ANALYZE reports must
// reconcile exactly with the appliance's Metrics and with the tracer's
// step spans — the three views are projections of the same execution.
//
// Invariants checked per query:
//   - tracer step-span count == Metrics.StepCount() delta
//   - sum of move-step span bytes == Metrics.TotalBytesMoved() delta
//   - the ANALYZE report renders and mentions every executed step
func TestAnalyzeReconcilesWithMetrics(t *testing.T) {
	db := openAppliance(t, 4)
	for _, c := range TPCHCases() {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			checkAnalyzeReconciles(t, db, c, 0, 0)
		})
	}
}

// TestAnalyzeReconcilesUnderChaos re-runs the reconciliation property
// with a seeded random fault plan and retries enabled: retried attempts
// must not double-count rows or bytes in any of the three views.
func TestAnalyzeReconcilesUnderChaos(t *testing.T) {
	db := openAppliance(t, 4)
	cases := TPCHCases()
	if testing.Short() || raceEnabled {
		cases = cases[:6]
	}
	for i, c := range cases {
		c, seed := c, int64(1000+i)
		t.Run(c.Name, func(t *testing.T) {
			checkAnalyzeReconciles(t, db, c, 3, seed)
		})
	}
}

// checkAnalyzeReconciles runs one case through EXPLAIN ANALYZE with a
// fresh tracer and asserts the metric/span/report reconciliation. A
// non-zero faultSeed arms the run with the random fault plan it seeds.
func checkAnalyzeReconciles(t *testing.T, db *pdwqo.DB, c Case, maxRetries int, faultSeed int64) {
	t.Helper()
	tracer := pdwqo.NewTracer()
	plan, err := db.Optimize(c.SQL, pdwqo.Options{Parallelism: 4, Tracer: tracer})
	if err != nil {
		t.Fatalf("%s: optimize: %v", c.Name, err)
	}
	cfg := pdwqo.ExecConfig{MaxRetries: maxRetries, Tracer: tracer}
	if faultSeed != 0 {
		cfg.Faults = pdwqo.RandomFaultPlan(faultSeed, len(plan.DSQL.Steps), 4)
	}

	m := &db.Appliance().Metrics
	stepsBefore := m.StepCount()
	bytesBefore := m.TotalBytesMoved()

	_, report, execErr := db.ExplainAnalyze(plan, cfg, false)
	if execErr != nil {
		// Chaos plans may exhaust retries; the invariants below must
		// still hold over whatever prefix of the plan completed.
		t.Logf("%s: execution failed (reconciling partial run): %v", c.Name, execErr)
	}

	stepsRun := m.StepCount() - stepsBefore
	bytesMoved := m.TotalBytesMoved() - bytesBefore

	// Tracer view: one "step" span per completed step, byte-for-byte the
	// same totals the Metrics accumulated.
	spans := tracer.StepSpans()
	if len(spans) != stepsRun {
		t.Errorf("%s: tracer recorded %d step spans, Metrics recorded %d steps",
			c.Name, len(spans), stepsRun)
	}
	var spanBytes int64
	for _, sp := range spans {
		if sp.Step.IsMove {
			spanBytes += sp.Step.Bytes
		}
	}
	if spanBytes != bytesMoved {
		t.Errorf("%s: move bytes diverge: spans=%d metrics=%d", c.Name, spanBytes, bytesMoved)
	}

	// Counter view: the per-step exec.* counters the engine maintains
	// during execution must agree too.
	counters := tracer.Counters().Snapshot()
	if got := counters["exec.steps"]; got != int64(stepsRun) {
		t.Errorf("%s: exec.steps counter %d != %d steps", c.Name, got, stepsRun)
	}
	if got := counters["exec.bytes_moved"]; got != bytesMoved {
		t.Errorf("%s: exec.bytes_moved counter %d != %d", c.Name, got, bytesMoved)
	}

	// Report view: ANALYZE must render, cover every executed step, and
	// carry the matching totals in its summary line.
	if !strings.Contains(report, "-- analyze summary") {
		t.Fatalf("%s: ANALYZE report missing summary:\n%s", c.Name, report)
	}
	// The report reads the run's own record; on this quiet appliance that
	// is exactly the aggregate Metrics delta.
	if want := fmt.Sprintf("steps=%d/%d bytes_moved=%d ", stepsRun, len(plan.DSQL.Steps), bytesMoved); !strings.Contains(report, want) {
		t.Errorf("%s: ANALYZE summary does not carry %q:\n%s", c.Name, want, report)
	}
	if execErr == nil && strings.Contains(report, "(step did not complete)") {
		t.Errorf("%s: successful run reported incomplete steps:\n%s", c.Name, report)
	}
}
