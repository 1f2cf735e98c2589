package planverify

import (
	"fmt"
	"strings"
)

// Code is the typed class of one invariant violation. Codes are stable
// identifiers: tests and callers switch on them, and the README's
// violation taxonomy documents them.
type Code string

// Violation codes, grouped by layer.
const (
	// --- Plan-tree placement soundness (CheckPlan) ---

	// CodeMalformedOption: an Option node is neither a relational
	// operator nor a data movement (or both), its input arity is wrong
	// for its payload, or its payload has no placement rule (an unknown
	// movement kind).
	CodeMalformedOption Code = "malformed-option"
	// CodeJoinNotCollocated: both join children are hash-distributed but
	// no equijoin conjunct pairs their partitioning column classes.
	CodeJoinNotCollocated Code = "join-not-collocated"
	// CodeJoinPlacement: the children's placement kinds cannot produce a
	// correct join of this kind without movement (e.g. a single-node
	// side against a distributed side, a replicated left under an outer
	// join, a full-outer join over a replicated right).
	CodeJoinPlacement Code = "join-placement"
	// CodeGroupByPlacement: a complete or global aggregation over a
	// placement that can split one group's rows across nodes.
	CodeGroupByPlacement Code = "groupby-placement"
	// CodeUnionPlacement: UNION ALL branches with different placement
	// kinds, or hash classes that share no column.
	CodeUnionPlacement Code = "union-placement"
	// CodeMoveSource: a movement applied to a placement its kind cannot
	// consume (e.g. a Trim over a hash-distributed input).
	CodeMoveSource Code = "move-source"
	// CodePlacementMismatch: an option records a placement other than
	// the one its inputs' recorded placements give under the placement
	// rules, restricted to its output columns (e.g. a Shuffle not placed
	// on its routing column, a Broadcast not replicated, a hash class
	// naming a column the option does not output).
	CodePlacementMismatch Code = "placement-mismatch"
	// CodeEstimateNegative: a negative or NaN row count, width or cost
	// estimate, or a cost smaller than one of its inputs' costs.
	CodeEstimateNegative Code = "estimate-negative"
	// CodeAggFinalInput: a finalizing aggregation whose input is not a
	// data movement over a matching partial aggregation — finalizing
	// already-complete input double-counts every group.
	CodeAggFinalInput Code = "agg-final-input"
	// CodeAggPartialOrphan: a partial aggregation that does not reach
	// exactly one finalizing aggregation through data movements — its
	// per-node states escape unmerged.
	CodeAggPartialOrphan Code = "agg-partial-orphan"
	// CodeAggSplitMismatch: a partial/final pair whose grouping keys,
	// state columns or merge functions disagree, or a non-decomposable
	// (DISTINCT) aggregate that was split anyway.
	CodeAggSplitMismatch Code = "agg-split-mismatch"

	// --- DSQL dataflow soundness (CheckDSQL) ---

	// CodeReturnMissing: the plan has no Return step.
	CodeReturnMissing Code = "return-missing"
	// CodeReturnNotLast: a Return step that is not the final step, or
	// more than one Return step.
	CodeReturnNotLast Code = "return-not-last"
	// CodeStepIDOrder: step IDs are not the dense sequence 0..n-1.
	CodeStepIDOrder Code = "step-id-order"
	// CodeTempUseBeforeDef: step SQL reads a temp table a strictly
	// later step produces.
	CodeTempUseBeforeDef Code = "temp-use-before-def"
	// CodeTempUnknown: step SQL reads a temp table no step produces —
	// a dangling reference.
	CodeTempUnknown Code = "temp-unknown"
	// CodeTempRedefined: two steps claim the same destination temp.
	CodeTempRedefined Code = "temp-redefined"
	// CodeTempOrphan: a produced temp table no later step reads.
	CodeTempOrphan Code = "temp-orphan"
	// CodeUnknownBaseTable: step SQL references a [dbo] table absent
	// from the shell catalog.
	CodeUnknownBaseTable Code = "unknown-base-table"
	// CodeMoveStepShape: a move step whose fields are inconsistent with
	// its kind (missing destination, routing column missing or absent
	// from the destination schema, a routing column on a non-hashing
	// kind, or a non-idempotent move).
	CodeMoveStepShape Code = "move-step-shape"

	// --- MEMO-side invariants (CheckMemo / CheckInteresting) ---
	//
	// A missing root, an unknown child group and a reference cycle never
	// reach here: memoxml.Decode rejects them.

	// CodeMemoEmptyGroup: a group with no expressions.
	CodeMemoEmptyGroup Code = "memo-empty-group"
	// CodeWinnerDangling: a winner expression references a child group
	// with no expressions to extract from.
	CodeWinnerDangling Code = "winner-dangling"
	// CodeWinnerDuplicate: a group with more than one winner.
	CodeWinnerDuplicate Code = "winner-duplicate"
	// CodeMemoEstimate: a negative or NaN group cardinality, width,
	// column statistic or expression cost.
	CodeMemoEstimate Code = "memo-estimate"
	// CodeInterestingNotClosed: the interesting-column sets are not
	// closed under equijoin transitivity, group-by keys or parent
	// demand.
	CodeInterestingNotClosed Code = "interesting-not-closed"
)

// Violation is one detected invariant breach. Step and Group locate it
// when the layer has such a coordinate; -1 means not applicable.
type Violation struct {
	Code   Code
	Step   int
	Group  int
	Detail string
}

// String renders the violation with its coordinates.
func (v Violation) String() string {
	var b strings.Builder
	b.WriteString(string(v.Code))
	if v.Step >= 0 {
		fmt.Fprintf(&b, " step=%d", v.Step)
	}
	if v.Group >= 0 {
		fmt.Fprintf(&b, " group=%d", v.Group)
	}
	b.WriteString(": ")
	b.WriteString(v.Detail)
	return b.String()
}

// violation builds a coordinate-free violation.
func violation(code Code, format string, args ...any) Violation {
	return Violation{Code: code, Step: -1, Group: -1, Detail: fmt.Sprintf(format, args...)}
}

// stepViolation locates a violation at a DSQL step.
func stepViolation(code Code, step int, format string, args ...any) Violation {
	return Violation{Code: code, Step: step, Group: -1, Detail: fmt.Sprintf(format, args...)}
}

// groupViolation locates a violation at a memo group.
func groupViolation(code Code, group int, format string, args ...any) Violation {
	return Violation{Code: code, Step: -1, Group: group, Detail: fmt.Sprintf(format, args...)}
}

// Report collects the violations of one verification run.
type Report struct {
	Violations []Violation
}

func (r *Report) add(vs ...Violation) { r.Violations = append(r.Violations, vs...) }

// OK reports a clean run.
func (r *Report) OK() bool { return len(r.Violations) == 0 }

// Has reports whether any violation carries the code.
func (r *Report) Has(code Code) bool {
	for _, v := range r.Violations {
		if v.Code == code {
			return true
		}
	}
	return false
}

// Err returns a typed *Error carrying the violations, or nil when the
// run was clean. The concrete type is recoverable with errors.As.
func (r *Report) Err() error {
	if r.OK() {
		return nil
	}
	return &Error{Violations: r.Violations}
}

// Error is the typed failure of a verification run.
type Error struct {
	Violations []Violation
}

// Error renders every violation, one per line after the summary.
func (e *Error) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "planverify: %d violation(s)", len(e.Violations))
	for _, v := range e.Violations {
		b.WriteString("\n  ")
		b.WriteString(v.String())
	}
	return b.String()
}
