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
	"fmt"

	"pdwqo"
	"pdwqo/internal/rowcmp"
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
	return compare(rowcmp.Exact, c.Name, "row engine", rres, "vectorized", vres)
}

// VecChaos certifies the vectorized engine's robustness contract: the
// case runs fault-free on the row engine as the reference, then on the
// vectorized engine under a seeded random fault plan with retries, and
// recovery must reproduce the reference exactly. The reference
// deliberately crosses engines, so a fault-path divergence in either
// engine shows up as a diff.
func VecChaos(db *pdwqo.DB, c Case, par int, seed int64, maxRetries int) error {
	plan, err := db.Optimize(c.SQL, pdwqo.Options{Parallelism: 1})
	if err != nil {
		return fmt.Errorf("%s: optimize: %w", c.Name, err)
	}
	return runChaos(db, c, chaosArm{
		ref: func() (*pdwqo.Result, error) {
			return db.Run(context.Background(), plan, pdwqo.ExecConfig{Parallelism: 1, RowExec: true})
		},
		plan: plan,
		rule: rowcmp.Exact,
	}, par, seed, maxRetries)
}
