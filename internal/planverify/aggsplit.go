package planverify

import (
	"pdwqo/internal/algebra"
	"pdwqo/internal/core"
)

// checkAggSplit verifies the partial/final aggregation pairing over the
// whole plan tree — the paper's §4 local-global transformation restated
// as structural invariants, independent of the enumerator's splitAggs:
//
//   - A finalizing GroupBy must sit over one or more data movements
//     whose base is a partial GroupBy (never over already-complete
//     input, which would re-aggregate finished groups).
//   - The pair must agree on grouping keys, the finalizer must read
//     exactly its partner's state columns, and each finalizing function
//     must be the correct merge of its partial function (SUM and COUNT
//     states merge by SUM, MIN/MAX by themselves; DISTINCT aggregates
//     are not decomposable and must never appear in a split).
//   - Every partial GroupBy must reach exactly one finalizing GroupBy,
//     and only through data movements — any other consumer observes
//     unmerged per-node states.
func checkAggSplit(p *core.Plan) []Violation {
	var out []Violation

	// One pass builds the upward (consumer) edges in walk order, so the
	// report's order is the plan's. Shared subplans alias the same
	// *Option and are walked once; the climb skips a consumer it has
	// already seen.
	parents := map[*core.Option][]*core.Option{}
	var partials []*core.Option
	seen := map[*core.Option]bool{}
	var walk func(o *core.Option)
	walk = func(o *core.Option) {
		if o == nil || seen[o] {
			return
		}
		seen[o] = true
		if gb, ok := o.Op.(*algebra.GroupBy); ok {
			switch gb.Phase {
			case algebra.AggPartial:
				partials = append(partials, o)
			case algebra.AggFinal:
				out = append(out, checkAggFinal(o, gb)...)
			}
		}
		for _, in := range o.Inputs {
			parents[in] = append(parents[in], o)
			walk(in)
		}
	}
	walk(p.Root)

	for _, partial := range partials {
		out = append(out, checkAggPartialReach(partial, parents)...)
	}
	return out
}

// checkAggFinal descends from a finalizing aggregation through the data
// movements below it and verifies the base is a matching partial.
func checkAggFinal(o *core.Option, final *algebra.GroupBy) []Violation {
	if len(o.Inputs) != 1 {
		return nil // arity violation already reported by checkOption
	}
	base, moves := o.Inputs[0], 0
	for base.Move != nil && len(base.Inputs) == 1 {
		base = base.Inputs[0]
		moves++
	}
	partial, ok := base.Op.(*algebra.GroupBy)
	if !ok || partial.Phase != algebra.AggPartial {
		return []Violation{violation(CodeAggFinalInput,
			"finalizing aggregation over %s, not a partial aggregation", describe(base))}
	}
	if moves == 0 {
		return []Violation{violation(CodeAggFinalInput,
			"finalizing aggregation directly over its partial, with no data movement between")}
	}
	return checkAggPair(final, partial)
}

// checkAggPair verifies one final/partial pair agrees on keys, state
// columns and merge functions.
func checkAggPair(final, partial *algebra.GroupBy) []Violation {
	var out []Violation
	if !sameKeys(final.Keys, partial.Keys) {
		out = append(out, violation(CodeAggSplitMismatch,
			"final keys %v disagree with partial keys %v", final.Keys, partial.Keys))
	}
	if len(final.Aggs) != len(partial.Aggs) {
		return append(out, violation(CodeAggSplitMismatch,
			"final carries %d aggregates, partial %d", len(final.Aggs), len(partial.Aggs)))
	}
	for i := range final.Aggs {
		f, p := final.Aggs[i], partial.Aggs[i]
		if f.Distinct || p.Distinct {
			out = append(out, violation(CodeAggSplitMismatch,
				"DISTINCT aggregate %s is not decomposable but was split", p.Name))
			continue
		}
		ref, ok := f.Arg.(*algebra.ColRef)
		if !ok || ref.ID != p.ID {
			out = append(out, violation(CodeAggSplitMismatch,
				"finalizer %s does not read its partner's state column c%d", f.Name, p.ID))
			continue
		}
		want, decomposable := mergeFunc(p.Func)
		if !decomposable || f.Func != want {
			out = append(out, violation(CodeAggSplitMismatch,
				"finalizer %s merges %v state with %v", f.Name, p.Func, f.Func))
		}
	}
	return out
}

// mergeFunc is the finalizing function for one partial state: SUM and
// COUNT states both merge by summation, MIN/MAX by themselves. Any
// other partial function has no sound merge.
func mergeFunc(p algebra.AggFunc) (algebra.AggFunc, bool) {
	switch p {
	case algebra.AggSum, algebra.AggCount:
		return algebra.AggSum, true
	case algebra.AggMin:
		return algebra.AggMin, true
	case algebra.AggMax:
		return algebra.AggMax, true
	default:
		return p, false
	}
}

// checkAggPartialReach climbs from a partial aggregation through its
// consumers: movements pass states along unchanged, a finalizing
// GroupBy terminates the climb, anything else observes raw states.
func checkAggPartialReach(partial *core.Option, parents map[*core.Option][]*core.Option) []Violation {
	var out []Violation
	finals := map[*core.Option]bool{}
	visited := map[*core.Option]bool{}
	var climb func(o *core.Option)
	climb = func(o *core.Option) {
		for _, c := range parents[o] {
			if visited[c] {
				continue
			}
			visited[c] = true
			switch {
			case c.Move != nil:
				climb(c)
			case isFinalGroupBy(c):
				finals[c] = true
			default:
				out = append(out, violation(CodeAggPartialOrphan,
					"partial aggregation consumed by %s, which cannot merge its states", describe(c)))
			}
		}
	}
	climb(partial)
	if len(finals) != 1 {
		out = append(out, violation(CodeAggPartialOrphan,
			"partial aggregation reaches %d finalizing aggregations, want exactly 1", len(finals)))
	}
	return out
}

func isFinalGroupBy(o *core.Option) bool {
	gb, ok := o.Op.(*algebra.GroupBy)
	return ok && gb.Phase == algebra.AggFinal
}

// sameKeys compares grouping-key lists positionally: the enumerator
// builds the final over the partial's own key order, so order matters.
func sameKeys(a, b []algebra.ColumnID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
