package engine

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"pdwqo/internal/algebra"
	"pdwqo/internal/catalog"
	"pdwqo/internal/core"
	"pdwqo/internal/cost"
	"pdwqo/internal/dsql"
	"pdwqo/internal/types"
)

// nationMovePlan builds a hand DSQL plan that drives one move kind over
// the nation keys (ControlNodeMove needs a PartitionMove feeder so its
// source table exists on the control node). It returns the plan and the
// ID of the step carrying the move under test.
func nationMovePlan(kind cost.MoveKind, dest string) (*dsql.Plan, int) {
	keyCols := []catalog.Column{{Name: "c1", Type: types.KindInt}}
	out := []algebra.ColumnMeta{{ID: 1, Name: "c1", Type: types.KindInt}}
	nationSQL := "SELECT T1.[n_nationkey] AS c1 FROM [dbo].[nation] AS T1"
	ret := func(id int, where core.DistKind) dsql.Step {
		return dsql.Step{ID: id, Kind: dsql.StepReturn, Where: where,
			SQL: "SELECT T.c1 AS [c1] FROM (SELECT c1 FROM [tempdb].[" + dest + "]) AS T"}
	}
	if kind == cost.ControlNodeMove {
		return &dsql.Plan{Steps: []dsql.Step{
			handStep(0, cost.PartitionMove, core.DistReplicated, nationSQL, dest+"F", "", keyCols),
			handStep(1, cost.ControlNodeMove, core.DistSingle,
				"SELECT T1.c1 AS c1 FROM [tempdb].["+dest+"F] AS T1", dest, "", keyCols),
			ret(2, core.DistReplicated),
		}, OutCols: out}, 1
	}
	hashCol, retWhere := "", core.DistReplicated
	switch kind {
	case cost.Shuffle, cost.Trim:
		hashCol, retWhere = "c1", core.DistHash
	case cost.PartitionMove, cost.RemoteCopySingle:
		retWhere = core.DistSingle
	}
	return &dsql.Plan{Steps: []dsql.Step{
		handStep(0, kind, core.DistReplicated, nationSQL, dest, hashCol, keyCols),
		ret(1, retWhere),
	}, OutCols: out}, 0
}

// assertNoResidue fails if any node still holds the plan's destination
// tables, a staging table, or an engine temp after execution.
func assertNoResidue(t *testing.T, a *Appliance, destPrefix string) {
	t.Helper()
	for _, n := range append(a.Compute, a.Control) {
		for _, name := range n.DB.Names() {
			if strings.HasPrefix(name, destPrefix) ||
				strings.HasPrefix(name, "TEMP") || strings.Contains(name, "__stage") {
				t.Errorf("node %d: residual table %q", n.ID, name)
			}
		}
	}
}

// TestFaultMatrix drives every DMS move kind through every fault kind,
// both with retries enabled (the fault must be absorbed and the result
// complete) and disabled (the failure must surface as the right typed
// StepError). Either way no temp, staging or destination table may leak.
func TestFaultMatrix(t *testing.T) {
	a, data := buildAppliance(t, 4)
	nNation := len(data["nation"])
	moveKinds := []cost.MoveKind{cost.Shuffle, cost.PartitionMove, cost.ControlNodeMove,
		cost.Broadcast, cost.Trim, cost.ReplicatedBroadcast, cost.RemoteCopySingle}
	sentinels := map[FaultKind]error{
		FaultFail:    ErrFaultInjected,
		FaultSlow:    ErrStepTimeout,
		FaultCorrupt: ErrCorruptDelivery,
	}
	wantKind := map[FaultKind]ErrorKind{
		FaultFail:    ErrKindInjected,
		FaultSlow:    ErrKindTimeout,
		FaultCorrupt: ErrKindCorrupt,
	}
	for _, mk := range moveKinds {
		for _, fk := range []FaultKind{FaultFail, FaultSlow, FaultCorrupt} {
			for _, retried := range []bool{true, false} {
				mk, fk, retried := mk, fk, retried
				t.Run(fmt.Sprintf("%s/%s/retried=%v", mk, fk, retried), func(t *testing.T) {
					dest := fmt.Sprintf("T_FX%d%d", int(mk), int(fk))
					plan, faultStep := nationMovePlan(mk, dest)
					f := Fault{Kind: fk, Op: OpDeliver, Step: faultStep, Node: Any, Move: int(mk), Times: 1}
					cfg := ExecConfig{RetryBackoff: time.Microsecond}
					if fk == FaultSlow {
						// A slow delivery only fails by exceeding the step
						// timeout, so give it one it cannot meet.
						f.Delay = 250 * time.Millisecond
						cfg.StepTimeout = 10 * time.Millisecond
					}
					cfg.Faults = NewFaultPlan(f)
					if retried {
						cfg.MaxRetries = 2
					}

					res, err := a.Execute(context.Background(), plan, cfg)
					if retried {
						if err != nil {
							t.Fatalf("retry should absorb the fault: %v", err)
						}
						if len(res.Rows) != nNation {
							t.Errorf("rows after retry: %d, want %d", len(res.Rows), nNation)
						}
					} else {
						if err == nil {
							t.Fatal("fault with retries disabled must fail")
						}
						var se *StepError
						if !errors.As(err, &se) {
							t.Fatalf("failure is not a *StepError: %v", err)
						}
						if se.Step != faultStep {
							t.Errorf("failed step %d, want %d", se.Step, faultStep)
						}
						if se.Kind != wantKind[fk] {
							t.Errorf("error kind %v, want %v", se.Kind, wantKind[fk])
						}
						if !errors.Is(err, sentinels[fk]) {
							t.Errorf("error %v does not match sentinel %v", err, sentinels[fk])
						}
						if !se.Retryable() {
							t.Errorf("%v faults must classify as retryable", fk)
						}
					}
					assertNoResidue(t, a, dest)
				})
			}
		}
	}
}

// TestBackoffDelay pins the capped exponential arithmetic — pure
// function, no clock involved.
func TestBackoffDelay(t *testing.T) {
	cases := []struct {
		base    time.Duration
		max     time.Duration
		attempt int
		want    time.Duration
	}{
		{0, maxRetryBackoff, 1, defaultBackoff},
		{0, maxRetryBackoff, 2, 2 * defaultBackoff},
		{time.Millisecond, maxRetryBackoff, 1, time.Millisecond},
		{time.Millisecond, maxRetryBackoff, 2, 2 * time.Millisecond},
		{time.Millisecond, maxRetryBackoff, 3, 4 * time.Millisecond},
		{time.Millisecond, maxRetryBackoff, 4, 8 * time.Millisecond},
		{time.Millisecond, maxRetryBackoff, 30, maxRetryBackoff},
		{100 * time.Millisecond, maxRetryBackoff, 3, maxRetryBackoff},
		{10 * time.Millisecond, 25 * time.Millisecond, 2, 20 * time.Millisecond},
		{10 * time.Millisecond, 25 * time.Millisecond, 3, 25 * time.Millisecond},
	}
	for _, c := range cases {
		if got := backoffDelay(c.base, c.max, c.attempt); got != c.want {
			t.Errorf("backoffDelay(%v, %v, %d) = %v, want %v",
				c.base, c.max, c.attempt, got, c.want)
		}
	}
}

// TestRetryBackoffFakeClock swaps in a fake clock and checks the retry
// loop requests exactly the doubling waits — no real time.Sleep in the
// assertion path.
func TestRetryBackoffFakeClock(t *testing.T) {
	a, data := buildAppliance(t, 2)
	plan, faultStep := nationMovePlan(cost.Broadcast, "T_FCK")
	var mu sync.Mutex
	var slept []time.Duration
	cfg := ExecConfig{
		MaxRetries:   3,
		RetryBackoff: 8 * time.Millisecond,
		// Pin the fault to node 0 so exactly one delivery fails per
		// attempt: two failed attempts, then success on the third.
		Faults: NewFaultPlan(Fault{
			Kind: FaultFail, Op: OpDeliver, Step: faultStep, Node: 0, Move: Any, Times: 2,
		}),
		sleep: func(ctx context.Context, d time.Duration) error {
			mu.Lock()
			slept = append(slept, d)
			mu.Unlock()
			return nil
		},
	}

	res, err := a.Execute(context.Background(), plan, cfg)
	if err != nil {
		t.Fatalf("third attempt should succeed: %v", err)
	}
	if len(res.Rows) != len(data["nation"]) {
		t.Errorf("rows: %d, want %d", len(res.Rows), len(data["nation"]))
	}
	mu.Lock()
	got := append([]time.Duration(nil), slept...)
	mu.Unlock()
	want := []time.Duration{8 * time.Millisecond, 16 * time.Millisecond}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("backoff waits %v, want %v", got, want)
	}
	// The run's own tallies and the appliance's lifetime aggregate agree
	// on a fresh appliance.
	if res.Retries != 2 || a.Metrics.RetryCount() != 2 {
		t.Errorf("retries: run %d, appliance %d, want 2", res.Retries, a.Metrics.RetryCount())
	}
	if res.Faults != 2 || a.Metrics.FaultCount() != 2 {
		t.Errorf("faults: run %d, appliance %d, want 2", res.Faults, a.Metrics.FaultCount())
	}
	if got := res.Steps[faultStep].Attempts; got != 3 {
		t.Errorf("faulted step took %d attempts, want 3", got)
	}
}

// TestReturnStepNeverRetries: the Return step streams rows to the
// client, so replaying it would duplicate output — a fault there must
// surface even with retries enabled.
func TestReturnStepNeverRetries(t *testing.T) {
	a, _ := buildAppliance(t, 2)
	plan, _ := nationMovePlan(cost.Broadcast, "T_NRT")
	retID := plan.Steps[len(plan.Steps)-1].ID
	_, err := a.Execute(context.Background(), plan, ExecConfig{
		MaxRetries:   5,
		RetryBackoff: time.Microsecond,
		Faults: NewFaultPlan(Fault{
			Kind: FaultFail, Op: OpQuery, Step: retID, Node: Any, Move: Any, Times: 1,
		}),
	})
	if !errors.Is(err, ErrFaultInjected) {
		t.Fatalf("non-idempotent return step must not retry: err = %v", err)
	}
	if n := a.Metrics.RetryCount(); n != 0 {
		t.Errorf("retry count %d, want 0", n)
	}
	assertNoResidue(t, a, "T_NRT")
}

// TestExecErrorNotRetried: deterministic execution failures (bad SQL)
// must fail fast with ErrKindExec instead of burning retries.
func TestExecErrorNotRetried(t *testing.T) {
	a, _ := buildAppliance(t, 2)
	keyCols := []catalog.Column{{Name: "c1", Type: types.KindInt}}
	plan := &dsql.Plan{Steps: []dsql.Step{
		handStep(0, cost.Broadcast, core.DistReplicated,
			"SELECT T1.[no_such_col] AS c1 FROM [dbo].[nation] AS T1", "T_EXE", "", keyCols),
	}, OutCols: []algebra.ColumnMeta{{ID: 1, Name: "c1", Type: types.KindInt}}}
	_, err := a.Execute(context.Background(), plan, ExecConfig{MaxRetries: 5, RetryBackoff: time.Microsecond})
	var se *StepError
	if !errors.As(err, &se) {
		t.Fatalf("want *StepError, got %v", err)
	}
	if se.Kind != ErrKindExec {
		t.Errorf("kind %v, want %v", se.Kind, ErrKindExec)
	}
	if se.Retryable() {
		t.Error("exec errors must not be retryable")
	}
	if n := a.Metrics.RetryCount(); n != 0 {
		t.Errorf("retry count %d, want 0", n)
	}
	assertNoResidue(t, a, "T_EXE")
}

// TestMidShuffleFailureNoLeak injects a delivery failure into a shuffle
// of the orders table (large enough that other nodes' deliveries land
// first) and checks that neither the destination, its staging table nor
// any temp survives — then that a zero-config re-run works: the fault
// plan, which still has budget left, belonged to the failed run alone.
func TestMidShuffleFailureNoLeak(t *testing.T) {
	a, data := buildAppliance(t, 4)
	keyCols := []catalog.Column{{Name: "c1", Type: types.KindInt}}
	plan := &dsql.Plan{Steps: []dsql.Step{
		handStep(0, cost.Shuffle, core.DistHash,
			"SELECT T1.[o_custkey] AS c1 FROM [dbo].[orders] AS T1", "T_LEAK", "c1", keyCols),
		{ID: 1, Kind: dsql.StepReturn, Where: core.DistHash,
			SQL: "SELECT T.c1 AS [c1] FROM (SELECT c1 FROM [tempdb].[T_LEAK]) AS T"},
	}, OutCols: []algebra.ColumnMeta{{ID: 1, Name: "c1", Type: types.KindInt}}}
	faults := NewFaultPlan(Fault{
		Kind: FaultFail, Op: OpDeliver, Step: 0, Node: 1, Move: Any, Times: 1 << 20,
	})

	failed, err := a.Execute(context.Background(), plan, ExecConfig{Faults: faults})
	if err == nil {
		t.Fatal("injected mid-shuffle failure must surface without retries")
	}
	if failed.Faults != 1 || len(failed.Steps) != 0 {
		t.Errorf("failed run recorded %d faults and %d steps, want 1 and 0", failed.Faults, len(failed.Steps))
	}
	assertNoResidue(t, a, "T_LEAK")

	// The failed run must not have polluted catalog, storage or any later
	// run's configuration.
	res, err := a.Execute(context.Background(), plan, ExecConfig{})
	if err != nil {
		t.Fatalf("re-run after failed shuffle: %v", err)
	}
	if res.Faults != 0 || faults.Fired() != 1 {
		t.Errorf("zero-config re-run saw %d faults (plan fired %d in total), want 0 (1)", res.Faults, faults.Fired())
	}
	if len(res.Rows) != len(data["orders"]) {
		t.Errorf("re-run rows: %d, want %d", len(res.Rows), len(data["orders"]))
	}
	assertNoResidue(t, a, "T_LEAK")
}

// TestStepErrorTaxonomy pins the errors.Is/As surface of StepError.
func TestStepErrorTaxonomy(t *testing.T) {
	cause := errors.New("boom")
	se := stepError(3, 2, ErrKindInjected, cause)
	se.Attempt = 1
	if !errors.Is(se, ErrFaultInjected) {
		t.Error("injected StepError must match ErrFaultInjected")
	}
	if errors.Is(se, ErrCorruptDelivery) || errors.Is(se, ErrStepTimeout) {
		t.Error("injected StepError must not match other sentinels")
	}
	if !errors.Is(se, cause) {
		t.Error("StepError must unwrap to its cause")
	}
	var got *StepError
	wrapped := fmt.Errorf("query failed: %w", se)
	if !errors.As(wrapped, &got) || got.Step != 3 || got.Node != 2 || got.Attempt != 1 {
		t.Errorf("errors.As through a wrap: got %+v", got)
	}
	if msg := se.Error(); !strings.Contains(msg, "step 3") || !strings.Contains(msg, "node 2") {
		t.Errorf("error text %q must carry step and node", msg)
	}
	anon := stepError(7, NoNode, ErrKindExec, cause)
	if msg := anon.Error(); strings.Contains(msg, "node") {
		t.Errorf("NoNode error text %q must omit the node", msg)
	}
	retryable := map[ErrorKind]bool{
		ErrKindExec: false, ErrKindInjected: true, ErrKindCorrupt: true,
		ErrKindTimeout: true, ErrKindCancelled: false,
	}
	for k, want := range retryable {
		if got := stepError(0, NoNode, k, cause).Retryable(); got != want {
			t.Errorf("Retryable(%v) = %v, want %v", k, got, want)
		}
	}
}

// TestFaultPlanMatch checks rule addressing, declaration-order priority
// and per-rule firing budgets.
func TestFaultPlanMatch(t *testing.T) {
	p := NewFaultPlan(
		Fault{Kind: FaultFail, Op: OpQuery, Step: 1, Node: 2, Move: Any, Times: 2},
		Fault{Kind: FaultSlow, Op: OpAny, Step: Any, Node: Any, Move: int(cost.Shuffle), Times: 1},
	)
	if _, ok := p.match(OpDeliver, 1, 2, Any); ok {
		t.Error("op filter must reject a deliver site for a query rule without a move match")
	}
	if _, ok := p.match(OpQuery, 0, 2, Any); ok {
		t.Error("step filter must reject step 0")
	}
	if f, ok := p.match(OpQuery, 1, 2, Any); !ok || f.Kind != FaultFail {
		t.Errorf("first rule should claim (query,1,2): %v %v", f, ok)
	}
	if _, ok := p.match(OpQuery, 1, 2, Any); !ok {
		t.Error("rule with times=2 must fire twice")
	}
	if _, ok := p.match(OpQuery, 1, 2, Any); ok {
		t.Error("rule must be spent after its budget")
	}
	if f, ok := p.match(OpDeliver, 5, 9, int(cost.Shuffle)); !ok || f.Kind != FaultSlow {
		t.Errorf("wildcard rule should claim shuffle site: %v %v", f, ok)
	}
	if got := p.Fired(); got != 3 {
		t.Errorf("fired %d, want 3", got)
	}
	p.Reset()
	if got := p.Fired(); got != 0 {
		t.Errorf("fired after reset %d, want 0", got)
	}
	if _, ok := p.match(OpQuery, 1, 2, Any); !ok {
		t.Error("reset must restore firing budgets")
	}
	var nilPlan *FaultPlan
	if _, ok := nilPlan.match(OpQuery, 0, 0, Any); ok {
		t.Error("nil plan must never match")
	}
	if nilPlan.Fired() != 0 {
		t.Error("nil plan Fired must be 0")
	}
	nilPlan.Reset() // must not panic
}

// TestRandomFaultPlanDeterministic: the seeded generator is the chaos
// difftest's reproducibility anchor — same seed, same schedule.
func TestRandomFaultPlanDeterministic(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		r1 := RandomFaultPlan(seed, 4, 8).Rules()
		r2 := RandomFaultPlan(seed, 4, 8).Rules()
		if !reflect.DeepEqual(r1, r2) {
			t.Fatalf("seed %d: rules differ:\n%v\n%v", seed, r1, r2)
		}
		if len(r1) < 1 || len(r1) > 3 {
			t.Fatalf("seed %d: %d rules, want 1..3", seed, len(r1))
		}
		for _, f := range r1 {
			if f.Kind == FaultSlow && f.Delay <= 0 {
				t.Errorf("seed %d: slow rule without delay: %v", seed, f)
			}
		}
	}
	// Degenerate ranges must not panic or produce out-of-range addresses.
	for _, f := range RandomFaultPlan(1, 0, 0).Rules() {
		if f.Step != Any && f.Step != 0 {
			t.Errorf("step %d out of clamped range", f.Step)
		}
	}
}

// TestParseFaultSpec covers the -fault flag grammar and its round trip
// through Fault.String.
func TestParseFaultSpec(t *testing.T) {
	p, err := ParseFaultSpec("fail:step=1,node=2,times=3")
	if err != nil {
		t.Fatal(err)
	}
	want := Fault{Kind: FaultFail, Op: OpAny, Step: 1, Node: 2, Move: Any, Times: 3}
	if got := p.Rules(); len(got) != 1 || got[0] != want {
		t.Errorf("parsed %+v, want %+v", got, want)
	}
	if s := want.String(); s != "fail:step=1,node=2,times=3" {
		t.Errorf("String() = %q", s)
	}

	p, err = ParseFaultSpec("slow:op=deliver,move=shuffle,delay=5ms; corrupt:step=0")
	if err != nil {
		t.Fatal(err)
	}
	rules := p.Rules()
	if len(rules) != 2 {
		t.Fatalf("rules: %d, want 2", len(rules))
	}
	if r := rules[0]; r.Kind != FaultSlow || r.Op != OpDeliver ||
		r.Move != int(cost.Shuffle) || r.Delay != 5*time.Millisecond {
		t.Errorf("rule 0: %+v", r)
	}
	if r := rules[1]; r.Kind != FaultCorrupt || r.Step != 0 || r.Node != Any {
		t.Errorf("rule 1: %+v", r)
	}

	// A bare slow rule gets a default delay.
	p, err = ParseFaultSpec("slow")
	if err != nil {
		t.Fatal(err)
	}
	if r := p.Rules()[0]; r.Delay != time.Millisecond {
		t.Errorf("default slow delay: %v", r.Delay)
	}

	// Empty spec means no plan, not an error.
	if p, err := ParseFaultSpec("  "); p != nil || err != nil {
		t.Errorf("empty spec: %v %v", p, err)
	}

	// Seeded form draws the same schedule as RandomFaultPlan.
	p, err = ParseFaultSpec("seed=42:steps=2,nodes=4")
	if err != nil {
		t.Fatal(err)
	}
	if want := RandomFaultPlan(42, 2, 4).Rules(); !reflect.DeepEqual(p.Rules(), want) {
		t.Errorf("seed spec rules %v, want %v", p.Rules(), want)
	}

	for _, bad := range []string{
		"explode", "fail:bogus=1", "fail:step=x", "fail:op=warp", "fail:op=load",
		"fail:move=sideways", "slow:delay=soon", "seed=abc", "seed=1:depth=3",
		"fail:step", ";",
	} {
		if _, err := ParseFaultSpec(bad); err == nil {
			t.Errorf("spec %q must fail to parse", bad)
		}
	}

	// Round trip: every randomly drawn rule re-parses to itself (Times 1
	// renders implicitly, so normalize before comparing).
	norm := func(f Fault) Fault {
		if f.Times <= 0 {
			f.Times = 1
		}
		return f
	}
	for seed := int64(100); seed < 110; seed++ {
		for _, f := range RandomFaultPlan(seed, 4, 8).Rules() {
			rp, err := ParseFaultSpec(f.String())
			if err != nil {
				t.Fatalf("re-parse %q: %v", f.String(), err)
			}
			if got := rp.Rules()[0]; norm(got) != norm(f) {
				t.Errorf("round trip %q: got %+v, want %+v", f.String(), got, f)
			}
		}
	}
}

// TestMetricsCountersConcurrent hammers the metrics read API while an
// execution with retries and faults is mutating it — a race-detector
// regression test for the counter accessors.
func TestMetricsCountersConcurrent(t *testing.T) {
	a, _ := buildAppliance(t, 4)
	plan, faultStep := nationMovePlan(cost.Broadcast, "T_MRC")
	cfg := ExecConfig{
		MaxRetries:   3,
		RetryBackoff: time.Microsecond,
		Faults: NewFaultPlan(Fault{
			Kind: FaultFail, Op: OpDeliver, Step: faultStep, Node: 0, Move: Any, Times: 2,
		}),
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
					_ = a.Metrics.RetryCount()
					_ = a.Metrics.FaultCount()
					_ = a.Metrics.StepCount()
					_ = a.Metrics.TotalBytesMoved()
					_ = a.Metrics.Snapshot()
				}
			}
		}()
	}
	if _, err := a.Execute(context.Background(), plan, cfg); err != nil {
		t.Errorf("execute under concurrent metric reads: %v", err)
	}
	close(done)
	wg.Wait()
	if a.Metrics.RetryCount() < 1 {
		t.Error("expected at least one retry recorded")
	}
	if a.Metrics.FaultCount() < 1 {
		t.Error("expected at least one fault recorded")
	}
}
