package difftest

// Vectorized-vs-row arm: the nodes run only the vectorized executor, and
// the row-at-a-time executor is the oracle, run by ExecuteSerial as one
// instance over the whole database. Every distributed result must agree
// with it under the serial rule (serialAgrees): sorted rows with a
// relative float tolerance, since the two sides run different plans.

import (
	"fmt"

	"pdwqo"
	"pdwqo/internal/rowcmp"
)

// VecDiff optimizes one case at par, executes the plan on the nodes'
// vectorized engine, and checks the result against the row engine's
// oracle.
func VecDiff(db *pdwqo.DB, c Case, par int) error {
	plan, err := db.Optimize(c.SQL, pdwqo.Options{Parallelism: par})
	if err != nil {
		return fmt.Errorf("%s: optimize: %w", c.Name, err)
	}
	res, err := runAt(db, plan, par)
	if err != nil {
		return fmt.Errorf("%s: execute: %w", c.Name, err)
	}
	return serialAgrees(db, c, res)
}

// VecChaos certifies the vectorized engine's robustness contract against
// the oracle: the row engine's fault-free ExecuteSerial run is the
// reference, the plan then runs on the nodes under a seeded random fault
// plan with retries, and recovery must reproduce the reference under the
// serial rule. The reference crosses engines, so a fault-path divergence
// on the nodes that the vectorized engine repeats in its fault-free runs
// still shows up as a diff.
func VecChaos(db *pdwqo.DB, c Case, par int, seed int64, maxRetries int) error {
	plan, err := db.Optimize(c.SQL, pdwqo.Options{Parallelism: 1})
	if err != nil {
		return fmt.Errorf("%s: optimize: %w", c.Name, err)
	}
	return runChaos(db, c, chaosArm{
		ref:  func() (*pdwqo.Result, error) { return db.ExecuteSerial(c.SQL) },
		plan: plan,
		rule: rowcmp.Serial(false).AcrossPlans(c.SQL),
	}, par, seed, maxRetries)
}
