package difftest

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"pdwqo"
	"pdwqo/internal/types"
)

// AggSplitDiff certifies the metamorphic equivalence contract of the
// partial-aggregate split for one case: the same query compiled with the
// split enumerated (the default) and force-disabled (DisableAggSplit)
// must produce identical result relations. Both compilations run under
// the static plan verifier, so every emitted plan is invariant-checked
// as a side effect of the sweep.
//
// The two winning plans legitimately differ, which relaxes two corners
// of the serial-vs-parallel contract:
//
//   - Row order: the engine yields groups in first-seen input order, and
//     the two plans feed their aggregations in different orders. Queries
//     with a final ORDER BY must still agree row-for-row; the rest
//     compare as a sorted multiset.
//   - Float low bits: splitting reassociates SUM (per-node partial sums
//     merged afterwards), so IEEE addition order changes. Floats render
//     at 12 significant digits — wide enough that any real aggregation
//     bug shows, tight enough to absorb reassociation error — and every
//     other kind must match byte-for-byte.
func AggSplitDiff(db *pdwqo.DB, c Case, par int) error {
	split, err := db.Optimize(c.SQL, pdwqo.Options{Parallelism: par, Verify: true})
	if err != nil {
		return fmt.Errorf("%s: optimize with split: %w", c.Name, err)
	}
	unsplit, err := db.Optimize(c.SQL, pdwqo.Options{Parallelism: par, DisableAggSplit: true, Verify: true})
	if err != nil {
		return fmt.Errorf("%s: optimize without split: %w", c.Name, err)
	}
	sres, err := runAt(db, split, par)
	if err != nil {
		return fmt.Errorf("%s: execute with split: %w", c.Name, err)
	}
	ures, err := runAt(db, unsplit, par)
	if err != nil {
		return fmt.Errorf("%s: execute without split: %w", c.Name, err)
	}
	return diffRelations(c, sres, ures)
}

// AggSplitChaos runs the chaos variant of the metamorphic contract: the
// force-disabled plan executes fault-free as the reference, then the
// split plan executes under a seeded random fault plan. Either the
// retries absorb every fault and the relations agree, or the failure is
// a clean typed *pdwqo.StepError — and no temp table survives on any
// node in either outcome.
func AggSplitChaos(db *pdwqo.DB, c Case, par int, seed int64, maxRetries int) error {
	// Fault-free reference through the unsplit arm.
	unsplit, err := db.Optimize(c.SQL, pdwqo.Options{Parallelism: par, DisableAggSplit: true})
	if err != nil {
		return fmt.Errorf("%s: optimize without split: %w", c.Name, err)
	}
	ref, err := runAt(db, unsplit, par)
	if err != nil {
		return fmt.Errorf("%s: fault-free unsplit execute: %w", c.Name, err)
	}

	split, err := db.Optimize(c.SQL, pdwqo.Options{Parallelism: par})
	if err != nil {
		return fmt.Errorf("%s: optimize with split: %w", c.Name, err)
	}
	cfg := ChaosConfig(db, split, par, seed, maxRetries)
	res, err := runRecovered(db, split, cfg)

	if leaks := leakedTables(db); len(leaks) > 0 {
		return fmt.Errorf("%s: leaked tables after chaos run (seed %d): %v", c.Name, seed, leaks)
	}
	if err != nil {
		var se *pdwqo.StepError
		if !errors.As(err, &se) {
			return fmt.Errorf("%s: chaos failure (seed %d) is not a typed StepError: %w", c.Name, seed, err)
		}
		return nil // clean typed failure is an accepted outcome
	}
	if derr := diffRelations(c, res, ref); derr != nil {
		return fmt.Errorf("chaos (seed %d, %d faults fired, retries %d): %w",
			seed, cfg.Faults.Fired(), maxRetries, derr)
	}
	return nil
}

// diffRelations compares the split and unsplit result relations under
// the metamorphic contract described on AggSplitDiff.
func diffRelations(c Case, split, unsplit *pdwqo.Result) error {
	if sc, uc := strings.Join(split.Columns, "|"), strings.Join(unsplit.Columns, "|"); sc != uc {
		return fmt.Errorf("%s: result columns diverged: split %q, unsplit %q", c.Name, sc, uc)
	}
	if len(split.Rows) != len(unsplit.Rows) {
		return fmt.Errorf("%s: row count diverged: split %d, unsplit %d",
			c.Name, len(split.Rows), len(unsplit.Rows))
	}
	s, u := canonRelation(split.Rows), canonRelation(unsplit.Rows)
	if !hasOrderBy(c.SQL) {
		sort.Strings(s)
		sort.Strings(u)
	}
	for i := range s {
		if s[i] != u[i] {
			return fmt.Errorf("%s: row %d diverged:\n  split:   %s\n  unsplit: %s", c.Name, i, s[i], u[i])
		}
	}
	return nil
}

// canonRelation renders every row with floats at 12 significant digits
// and all other kinds exactly.
func canonRelation(rows []pdwqo.Row) []string {
	out := make([]string, len(rows))
	for i, row := range rows {
		parts := make([]string, len(row))
		for j, v := range row {
			if v.Kind() == types.KindFloat {
				parts[j] = strconv.FormatFloat(v.Float(), 'g', 12, 64)
			} else {
				parts[j] = v.String()
			}
		}
		out[i] = strings.Join(parts, "|")
	}
	return out
}

// hasOrderBy reports whether the query imposes a result order. The
// corpus never nests ORDER BY in subqueries, so a substring probe is
// exact here.
func hasOrderBy(sql string) bool {
	return strings.Contains(strings.ToUpper(sql), "ORDER BY")
}
