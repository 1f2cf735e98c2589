package difftest

import (
	"fmt"

	"pdwqo"
	"pdwqo/internal/rowcmp"
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
//     compare as a sorted multiset. A TOP query compares row counts only,
//     since the two plans may keep different rows tied at its cut.
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
	return compare(splitRule(c.SQL), c.Name, "split", sres, "unsplit", ures)
}

// AggSplitChaos runs the chaos variant of the metamorphic contract: the
// force-disabled plan executes fault-free as the reference, then the
// split plan executes under a seeded random fault plan, and the relations
// must meet the split rule.
func AggSplitChaos(db *pdwqo.DB, c Case, par int, seed int64, maxRetries int) error {
	unsplit, err := db.Optimize(c.SQL, pdwqo.Options{Parallelism: par, DisableAggSplit: true})
	if err != nil {
		return fmt.Errorf("%s: optimize without split: %w", c.Name, err)
	}
	split, err := db.Optimize(c.SQL, pdwqo.Options{Parallelism: par})
	if err != nil {
		return fmt.Errorf("%s: optimize with split: %w", c.Name, err)
	}
	return runChaos(db, c, chaosArm{
		ref:  func() (*pdwqo.Result, error) { return runAt(db, unsplit, par) },
		plan: split,
		rule: splitRule(c.SQL),
	}, par, seed, maxRetries)
}

// splitRule is the rule between a split and an unsplit plan of sql (see
// AggSplitDiff). The plans differ, so a TOP query compares row counts
// only: its cut may keep different tied rows.
func splitRule(sql string) rowcmp.Rule {
	return rowcmp.Split(rowcmp.HasOrderBy(sql)).AcrossPlans(sql)
}
