// Package difftest is the differential harness certifying that the
// parallel enumeration and execution paths are observationally identical
// to the serial references: for every query in the corpus the cheapest
// plan cost, the generated DSQL step sequence, and the executed result
// relation must match byte-for-byte between Parallelism=1 and any higher
// setting. The corpus is the full adapted TPC-H suite plus a seeded
// stream of random schema-valid queries from tpch.RandomQuery. The
// comparison rules are internal/rowcmp's; the chaos families share one
// runner (runChaos).
package difftest

import (
	"context"
	"fmt"
	"math/rand"
	"strings"

	"pdwqo"
	"pdwqo/internal/rowcmp"
	"pdwqo/internal/tpch"
)

// Case is one corpus entry.
type Case struct {
	Name string
	SQL  string
}

// TPCHCases returns the full adapted TPC-H suite in name order.
func TPCHCases() []Case {
	var out []Case
	for _, name := range pdwqo.TPCHQueryNames() {
		sql, _ := pdwqo.TPCHQuery(name)
		out = append(out, Case{Name: name, SQL: sql})
	}
	return out
}

// FuzzCases generates n random schema-valid queries, deterministic under
// seed, from tpch.RandomQuery: the generator the root package's fuzz test
// draws from.
func FuzzCases(n int, seed int64) []Case {
	r := rand.New(rand.NewSource(seed))
	out := make([]Case, n)
	for i := range out {
		out[i] = Case{Name: fmt.Sprintf("fuzz-%03d", i), SQL: tpch.RandomQuery(r)}
	}
	return out
}

// Diff optimizes and executes one case through the serial path
// (Parallelism=1) and the parallel path (Parallelism=par) and returns a
// descriptive error on the first divergence. Equality is exact — same
// cost bits, same DSQL text, same rows in the same order — because both
// paths are required to be fully deterministic. Agreement with the row
// engine's oracle is VecDiff's check.
func Diff(db *pdwqo.DB, c Case, par int) error {
	serial, err := db.Optimize(c.SQL, pdwqo.Options{Parallelism: 1})
	if err != nil {
		return fmt.Errorf("%s: serial optimize: %w", c.Name, err)
	}
	parallel, err := db.Optimize(c.SQL, pdwqo.Options{Parallelism: par})
	if err != nil {
		return fmt.Errorf("%s: parallel optimize: %w", c.Name, err)
	}
	if s, p := serial.Cost(), parallel.Cost(); s != p {
		return fmt.Errorf("%s: plan cost diverged: serial %v, parallel(%d) %v", c.Name, s, par, p)
	}
	sdsql, pdsql := serial.DSQL.String(), parallel.DSQL.String()
	if sdsql != pdsql {
		return fmt.Errorf("%s: DSQL steps diverged:\n--- serial ---\n%s--- parallel(%d) ---\n%s%s",
			c.Name, sdsql, par, pdsql, firstDiffLine(sdsql, pdsql))
	}

	sres, err := runAt(db, serial, 1)
	if err != nil {
		return fmt.Errorf("%s: serial execute: %w", c.Name, err)
	}
	pres, err := runAt(db, parallel, par)
	if err != nil {
		return fmt.Errorf("%s: parallel execute: %w", c.Name, err)
	}
	return compare(rowcmp.Exact, c.Name, "serial", sres, fmt.Sprintf("parallel(%d)", par), pres)
}

// compare applies rule to two results of the case named name; aName and
// bName label the sides in a divergence report.
func compare(rule rowcmp.Rule, name, aName string, a *pdwqo.Result, bName string, b *pdwqo.Result) error {
	if err := rule.Compare(rule.Render(aName, a.Columns, a.Rows), rule.Render(bName, b.Columns, b.Rows)); err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	return nil
}

// serialAgrees compares a distributed result against ExecuteSerial, the
// engine's ground truth, under the serial rule: sorted rows with a
// relative float tolerance (distributed plans sum in a different order),
// and for a TOP query the row count only, since the two engines may keep
// different rows tied at the cut.
func serialAgrees(db *pdwqo.DB, c Case, dist *pdwqo.Result) error {
	serial, err := db.ExecuteSerial(c.SQL)
	if err != nil {
		return fmt.Errorf("%s: serial reference: %w", c.Name, err)
	}
	return compare(rowcmp.Serial(false).AcrossPlans(c.SQL), c.Name, "distributed", dist, "serial", serial)
}

// runAt executes plan with the step fan-out bounded to par workers and
// every other execution knob at its default.
func runAt(db *pdwqo.DB, plan *pdwqo.QueryPlan, par int) (*pdwqo.Result, error) {
	return db.Run(context.Background(), plan, pdwqo.ExecConfig{Parallelism: par})
}

// Verify compiles one case with the static plan verifier enabled under
// each option variant and returns the first verification failure. The
// verifier cross-checks the optimized tree, the DSQL step sequence and
// the serialized memo without executing, so a failure here is a planner
// soundness bug, not a data bug.
func Verify(db *pdwqo.DB, c Case, variants ...pdwqo.Options) error {
	for _, opts := range variants {
		opts.Verify = true
		if _, err := db.Optimize(c.SQL, opts); err != nil {
			return fmt.Errorf("%s (mode=%v budget=%d seeded=%v): %w",
				c.Name, opts.Mode, opts.Budget, opts.SeedCollocated, err)
		}
	}
	return nil
}

// firstDiffLine points at the first differing DSQL line, to keep large
// plan dumps readable.
func firstDiffLine(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("first divergence at line %d:\n  serial:   %s\n  parallel: %s", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("plans diverge in length: %d vs %d lines", len(al), len(bl))
}
