package difftest

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"pdwqo"
	"pdwqo/internal/par"
	"pdwqo/internal/rowcmp"
)

// chaosArm is what one chaos family supplies to runChaos: its fault-free
// reference run, the plan it executes under faults, and the rule the
// faulted result must meet against the reference.
type chaosArm struct {
	ref  func() (*pdwqo.Result, error)
	plan *pdwqo.QueryPlan
	rule rowcmp.Rule
}

// runChaos certifies the engine's robustness contract for one case and
// one family: run the arm's fault-free reference, run its plan again
// under a seeded random fault plan, and assert that
//
//   - no temp or staging table is left behind on any node;
//   - when retries absorb every fault, the chaos result meets the arm's
//     rule against the reference (determinism under perturbation);
//   - when they don't, the failure is a clean *pdwqo.StepError — never a
//     panic.
//
// Every run passes its own ExecConfig, so a shared DB serves other tests
// at the same time.
func runChaos(db *pdwqo.DB, c Case, arm chaosArm, par int, seed int64, maxRetries int) error {
	ref, err := arm.ref()
	if err != nil {
		return fmt.Errorf("%s: fault-free reference execute: %w", c.Name, err)
	}
	cfg := ChaosConfig(db, arm.plan, par, seed, maxRetries)
	res, err := runRecovered(db, arm.plan, cfg)
	if leaks := LeakedTables(db); len(leaks) > 0 {
		return fmt.Errorf("%s: leaked tables after chaos run (seed %d): %v", c.Name, seed, leaks)
	}
	if err != nil {
		var se *pdwqo.StepError
		if !errors.As(err, &se) {
			return fmt.Errorf("%s: chaos failure (seed %d) is not a typed StepError: %w", c.Name, seed, err)
		}
		return nil // clean typed failure is an accepted outcome
	}
	if derr := compare(arm.rule, c.Name, "reference", ref, "chaos", res); derr != nil {
		return fmt.Errorf("chaos (seed %d, %d faults fired, retries %d): %w",
			seed, cfg.Faults.Fired(), maxRetries, derr)
	}
	return nil
}

// Chaos is the serial-reference family: the plan compiled at
// Parallelism=1 runs fault-free on one worker, then under faults at par,
// and the two results must agree exactly.
func Chaos(db *pdwqo.DB, c Case, par int, seed int64, maxRetries int) error {
	plan, err := db.Optimize(c.SQL, pdwqo.Options{Parallelism: 1})
	if err != nil {
		return fmt.Errorf("%s: optimize: %w", c.Name, err)
	}
	return runChaos(db, c, chaosArm{
		ref:  func() (*pdwqo.Result, error) { return runAt(db, plan, 1) },
		plan: plan,
		rule: rowcmp.Exact,
	}, par, seed, maxRetries)
}

// ChaosConfig is a chaos arm's execution configuration: a fault plan
// seeded over the plan's steps and the appliance's nodes, parallel
// fan-out, and a fast backoff so retry storms don't dominate test wall
// clock.
func ChaosConfig(db *pdwqo.DB, plan *pdwqo.QueryPlan, par int, seed int64, maxRetries int) pdwqo.ExecConfig {
	return pdwqo.ExecConfig{
		Parallelism:  par,
		MaxRetries:   maxRetries,
		RetryBackoff: 50 * time.Microsecond,
		Faults:       pdwqo.RandomFaultPlan(seed, len(plan.DSQL.Steps), db.Shell().Topology.ComputeNodes),
	}
}

// runRecovered executes the plan under cfg, converting any panic — on this
// goroutine, or caught by the engine's fan-out and handed back inside a
// StepError — into an error the harness reports as a contract violation.
func runRecovered(db *pdwqo.DB, plan *pdwqo.QueryPlan, cfg pdwqo.ExecConfig) (res *pdwqo.Result, err error) {
	func() {
		defer par.Recover(&err)
		res, err = db.Run(context.Background(), plan, cfg)
	}()
	var pe *par.PanicError
	if errors.As(err, &pe) {
		return nil, panicError{fmt.Sprintf("panic under injected faults: %v\n%s", pe.Value, pe.Stack)}
	}
	return res, err
}

// panicError deliberately does not unwrap to *StepError, so a recovered
// panic always fails the typed-error assertion.
type panicError struct{ msg string }

func (e panicError) Error() string { return e.msg }

// LeakedTables scans every node for temp or staging tables; after any
// execution — successful, failed or retried — there must be none.
func LeakedTables(db *pdwqo.DB) []string {
	a := db.Appliance()
	var leaks []string
	check := func(nodeID int, names []string) {
		for _, n := range names {
			if strings.HasPrefix(n, "TEMP") || strings.Contains(n, "__stage") {
				leaks = append(leaks, fmt.Sprintf("node %d: %s", nodeID, n))
			}
		}
	}
	check(a.Control.ID, a.Control.DB.Names())
	for _, n := range a.Compute {
		check(n.ID, n.DB.Names())
	}
	return leaks
}
