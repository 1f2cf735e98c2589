// Package planverify statically verifies optimized distributed plans
// without executing them. It is an independent re-derivation of the
// invariants the PDW optimizer (internal/core) and the DSQL generator
// (internal/dsql) are supposed to establish — deliberately *not* a call
// back into their code paths — so a corrupted enumeration, a broken
// enforcer or a bad DSQL cut surfaces as a typed Violation at compile
// time instead of as wrong rows much later in difftest.
//
// The placement rules — which input placements a join, group-by or
// union accepts without movement, and what each data movement consumes
// and produces — are stated once, in placement.go, and each fact has one
// owner. Three layers are checked:
//
//   - Placement soundness over the winning plan tree (CheckPlan): the
//     rules must accept every option's inputs as recorded (hash-hash
//     joins collocated on an equijoin conjunct, replicated sides only
//     where the join kind tolerates them, complete/finalizing group-bys
//     placed so all rows of a group live on one node, movements over the
//     placement they consume) and give exactly the placement the option
//     records; every partial/final aggregation split must pair correctly
//     across its data movement.
//
//   - Dataflow soundness over the DSQL step sequence (CheckDSQL):
//     exactly one Return step and it comes last, every temp table is
//     defined by an earlier step than any use, no orphan temp tables,
//     move steps are well-formed for their kind, and base tables exist
//     in the catalog. Whether each step computes what its plan fragment
//     says is the translation validator's (package transval).
//
//   - MEMO-side invariants (CheckMemo / CheckInteresting): no empty
//     group, winner extraction references live group expressions,
//     estimates are non-negative, and the interesting-column derivation
//     is closed under equijoin transitivity, group-by keys and parent
//     demand.
//
// Check bundles all layers over one query's artifacts and returns a
// *Report whose Err is a typed *Error carrying every Violation.
package planverify

import (
	"pdwqo/internal/algebra"
	"pdwqo/internal/catalog"
	"pdwqo/internal/core"
	"pdwqo/internal/dsql"
	"pdwqo/internal/memoxml"
)

// Artifacts is one optimized query's set of verifiable outputs. Any nil
// field skips that layer; Interesting additionally requires Memo.
type Artifacts struct {
	// Plan is the PDW optimizer's winning distributed plan.
	Plan *core.Plan
	// DSQL is the generated step sequence cut from Plan.
	DSQL *dsql.Plan
	// Memo is the decoded serial search space the plan was derived from.
	Memo *memoxml.Decoded
	// Shell resolves base-table references in DSQL text; nil skips the
	// catalog consistency checks.
	Shell *catalog.Shell
	// Interesting exposes the optimizer's interesting-column derivation
	// per group (core.Optimizer.Interesting). Only meaningful for
	// ModeFull runs: the serial-baseline mode derives from the winner
	// slice of the memo, which this check cannot observe.
	Interesting func(group int) []algebra.ColumnID
}

// Check runs every applicable layer and collects the violations.
func Check(a Artifacts) *Report {
	r := &Report{}
	if a.Plan != nil {
		r.add(CheckPlan(a.Plan)...)
	}
	if a.DSQL != nil {
		r.add(CheckDSQL(a.DSQL, a.Plan, a.Shell)...)
	}
	if a.Memo != nil {
		r.add(CheckMemo(a.Memo)...)
		if a.Interesting != nil {
			r.add(CheckInteresting(a.Memo, a.Interesting)...)
		}
	}
	return r
}
