package core

import (
	"fmt"

	"pdwqo/internal/memo"
)

// BudgetError reports that PDW-side enumeration stopped because the
// search budget (Config.SearchBudget) was exhausted. The budget is
// checked only at wave barriers — between topological waves of the
// bottom-up enumeration — so the trip point is deterministic and the
// recorded counter is exact at any Parallelism setting: every option
// created by completed waves is counted, and no wave is half-counted.
//
// Callers (pdwqo.DB.Optimize) treat a BudgetError as the signal to
// switch regimes: re-plan the query with the greedy join-order heuristic
// over a fixed memo instead of exhaustive enumeration.
type BudgetError struct {
	// Budget is the configured cap on options considered.
	Budget int
	// Considered is the exact number of options created by the waves
	// that completed before the barrier tripped.
	Considered int64
	// Wave is the barrier index that tripped; Waves is the total number
	// of topological waves the enumeration would have run.
	Wave, Waves int
	// Groups is the total number of memo groups under enumeration.
	Groups int
}

// Error renders the exhaustion diagnostics.
func (e *BudgetError) Error() string {
	return fmt.Sprintf(
		"core: search budget exhausted: %d options considered >= budget %d at wave %d/%d (%d groups)",
		e.Considered, e.Budget, e.Wave, e.Waves, e.Groups)
}

// SearchLowerBound returns a lower bound on the options a ModeFull
// enumeration of the serial memo m will have considered when it reaches
// its last budget barrier. A caller holding SearchBudget ≤ bound therefore
// knows, before exporting m, that the enumeration would end in a
// *BudgetError, and can go straight to the greedy regime. The proof reads
// off the counting in enumerate.go:
//
//  1. Every finished group holds a replicated and a single-node option:
//     enforce derives both kinds from any option (hash → Broadcast and
//     PartitionMove, replicated → RemoteCopySingle, single →
//     ControlNodeMove) and pruneOptions keeps the best of class R and of
//     class S under every Config.
//  2. So a logical expression over finished children creates at least two
//     options — one per R and per S child option for Select, Sort, Project
//     and GroupBy; the R×R and S×S pairs, which joinDist and enumUnion
//     always accept, for Join and UnionAll — a leaf creates one, and the
//     enforcer step of each group at least one movement.
//  3. The root reaches every group, so it is alone in the last wave and
//     every other group is finished at the last barrier: the sum over them
//     is at most the counter there, which only grows from barrier to
//     barrier.
//
// ModeSerialBaseline enumerates one expression per group and is not
// covered; the ablation switches (DisableAggSplit,
// DisableInterestingRetention) only remove options the bound never counted.
func SearchLowerBound(m *memo.Memo) int {
	seen := make([]bool, len(m.Groups))
	bound := 0
	var visit func(id memo.GroupID)
	visit = func(id memo.GroupID) {
		if seen[id] {
			return
		}
		seen[id] = true
		options := 1 // the enforcer step
		for _, e := range m.Group(id).Exprs {
			if e.Physical {
				continue
			}
			if options += 2; len(e.Children) == 0 {
				options--
			}
			for _, c := range e.Children {
				visit(c)
			}
		}
		if id != m.Root {
			bound += options
		}
	}
	visit(m.Root)
	return bound
}
