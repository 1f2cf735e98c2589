package difftest

// Vectorized-vs-row metamorphic arm: the vectorized node-local executor
// must be observationally indistinguishable from the row-at-a-time
// executor behind the DSQL step contract. Plan selection is engine
// independent, so one optimized plan runs under both engines and the
// client-visible relations must match byte for byte. Errors must agree in
// kind (both engines fail, or neither); exact error *text* is compared
// only when both fail, modulo the documented multi-error corner (a batch
// kernel may surface a different row's error than the row engine when one
// batch holds several independently erroring rows).

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"pdwqo"
)

// VecDiff optimizes one case once and executes the plan under the
// vectorized engine and the row engine, asserting byte-identical results.
func VecDiff(db *pdwqo.DB, c Case, par int) error {
	plan, err := db.Optimize(c.SQL, pdwqo.Options{Parallelism: par})
	if err != nil {
		return fmt.Errorf("%s: optimize: %w", c.Name, err)
	}
	vres, verr := runAt(db, plan, par)
	rres, rerr := db.Run(context.Background(), plan, pdwqo.ExecConfig{Parallelism: par, RowExec: true})
	if (verr == nil) != (rerr == nil) {
		return fmt.Errorf("%s: engines diverged on failure: vectorized err=%v, row err=%v",
			c.Name, verr, rerr)
	}
	if verr != nil {
		// Both failed; accept it as agreement (error choice inside one
		// batch is the documented divergence corner).
		return nil
	}
	return diffEngines(c.Name, rres, vres)
}

// VecChaos certifies the vectorized engine's robustness contract: execute
// the case fault-free on the row engine as reference, then run the
// vectorized engine under a seeded random fault plan with retries, and
// assert byte-identical recovery (or a clean typed StepError) with no
// leaked temp tables. This is the vectorized mirror of Chaos — the
// reference deliberately crosses engines so a fault-path divergence in
// either engine shows up as a diff.
func VecChaos(db *pdwqo.DB, c Case, par int, seed int64, maxRetries int) error {
	// Fault-free row-engine reference.
	plan, err := db.Optimize(c.SQL, pdwqo.Options{Parallelism: 1})
	if err != nil {
		return fmt.Errorf("%s: optimize: %w", c.Name, err)
	}
	ref, err := db.Run(context.Background(), plan, pdwqo.ExecConfig{Parallelism: 1, RowExec: true})
	if err != nil {
		return fmt.Errorf("%s: fault-free row reference execute: %w", c.Name, err)
	}

	// Vectorized chaos run: same plan, seeded faults, parallel fan-out.
	cfg := ChaosConfig(db, plan, par, seed, maxRetries)
	res, err := runRecovered(db, plan, cfg)

	if leaks := leakedTables(db); len(leaks) > 0 {
		return fmt.Errorf("%s: leaked tables after vectorized chaos run (seed %d): %v", c.Name, seed, leaks)
	}
	if err != nil {
		var se *pdwqo.StepError
		if !errors.As(err, &se) {
			return fmt.Errorf("%s: vectorized chaos failure (seed %d) is not a typed StepError: %w", c.Name, seed, err)
		}
		return nil // clean typed failure is an accepted outcome
	}
	if derr := diffEngines(c.Name, ref, res); derr != nil {
		return fmt.Errorf("vectorized chaos (seed %d, %d faults fired, retries %d): %w",
			seed, cfg.Faults.Fired(), maxRetries, derr)
	}
	return nil
}

// diffEngines asserts exact row-for-row equality between the row engine's
// result and the vectorized engine's.
func diffEngines(name string, row, vect *pdwqo.Result) error {
	if rc, vc := strings.Join(row.Columns, "|"), strings.Join(vect.Columns, "|"); rc != vc {
		return fmt.Errorf("%s: result columns diverged: row %q, vectorized %q", name, rc, vc)
	}
	if len(row.Rows) != len(vect.Rows) {
		return fmt.Errorf("%s: row count diverged: row engine %d, vectorized %d", name, len(row.Rows), len(vect.Rows))
	}
	for i := range row.Rows {
		a, b := canonRow(row.Rows[i]), canonRow(vect.Rows[i])
		if a != b {
			return fmt.Errorf("%s: row %d diverged:\n  row engine: %s\n  vectorized: %s", name, i, a, b)
		}
	}
	return nil
}
