package planverify

import (
	"math"
	"slices"
	"sort"

	"pdwqo/internal/algebra"
	"pdwqo/internal/memoxml"
)

// CheckMemo verifies the decoded search space the PDW optimizer
// consumed: no empty group, at most one winner per group, winners
// extracting only from groups with expressions, and non-negative
// estimates throughout. The graph itself — a live root, resolvable child
// references, no reference cycle — is memoxml.Decode's to reject, so a
// *Decoded has one.
func CheckMemo(dec *memoxml.Decoded) []Violation {
	if dec == nil {
		return nil
	}
	var out []Violation
	for _, id := range sortedGroupIDs(dec) {
		out = append(out, checkGroup(dec, dec.Groups[id])...)
	}
	return out
}

// checkGroup verifies one group's expressions and statistics.
func checkGroup(dec *memoxml.Decoded, g *memoxml.DecodedGroup) []Violation {
	var out []Violation
	bad := func(v float64) bool { return v < 0 || math.IsNaN(v) }
	if bad(g.Rows) || bad(g.Width) {
		out = append(out, groupViolation(CodeMemoEstimate, g.ID,
			"rows=%g width=%g", g.Rows, g.Width))
	}
	for _, id := range sortedStatIDs(g) {
		cs := g.ColStats[id]
		if bad(cs.NDV) || bad(cs.Width) || cs.NullFrac < 0 || cs.NullFrac > 1 || math.IsNaN(cs.NullFrac) {
			out = append(out, groupViolation(CodeMemoEstimate, g.ID,
				"column c%d stats ndv=%g nullFrac=%g width=%g", id, cs.NDV, cs.NullFrac, cs.Width))
		}
	}
	if len(g.Exprs) == 0 {
		out = append(out, groupViolation(CodeMemoEmptyGroup, g.ID, "group has no expressions"))
	}
	winners := 0
	for _, e := range g.Exprs {
		if bad(e.Cost) {
			out = append(out, groupViolation(CodeMemoEstimate, g.ID,
				"%s expression cost %g", e.Op.OpName(), e.Cost))
		}
		for _, c := range e.Children {
			if child := dec.Groups[c]; e.Winner && child != nil && len(child.Exprs) == 0 {
				// Winner extraction descends the marked expressions; a
				// winner over an expressionless group has nothing to
				// extract.
				out = append(out, groupViolation(CodeWinnerDangling, g.ID,
					"winner %s references group %d with no expressions", e.Op.OpName(), c))
			}
		}
		if e.Winner {
			winners++
		}
	}
	if winners > 1 {
		out = append(out, groupViolation(CodeWinnerDuplicate, g.ID, "%d winner expressions", winners))
	}
	return out
}

// CheckInteresting verifies the optimizer's interesting-column sets
// satisfy the fixpoint conditions of the paper's Figure 4 step 04 over
// the full logical memo: equijoin columns are interesting in every
// child that outputs them (transitivity through the conjunct list),
// group-by keys are interesting in the aggregation's child, and parent
// demand restricted to a child's output is interesting in the child.
// Only meaningful for ModeFull runs — the serial-baseline mode derives
// from the winner slice, a subset of the expressions examined here.
func CheckInteresting(dec *memoxml.Decoded, interesting func(group int) []algebra.ColumnID) []Violation {
	sets := map[int]algebra.ColSet{}
	outSets := map[int]algebra.ColSet{}
	for id, g := range dec.Groups {
		sets[id] = algebra.NewColSet(interesting(id)...)
		outSets[id] = algebra.ColSetOf(g.OutCols)
	}
	var out []Violation
	// require records a single missing-column violation per (group, col).
	reported := map[[2]int]bool{}
	require := func(group int, col algebra.ColumnID, why string) {
		if !outSets[group].Has(col) || sets[group].Has(col) {
			return
		}
		key := [2]int{group, int(col)}
		if reported[key] {
			return
		}
		reported[key] = true
		out = append(out, groupViolation(CodeInterestingNotClosed, group,
			"column c%d missing from interesting set (%s)", col, why))
	}
	for _, id := range sortedGroupIDs(dec) {
		g := dec.Groups[id]
		for _, e := range g.Exprs {
			switch op := e.Op.(type) {
			case *algebra.Join:
				for _, conj := range algebra.Conjuncts(op.On) {
					a, b, ok := algebra.EquiJoinSides(conj)
					if !ok {
						continue
					}
					for _, c := range e.Children {
						require(c, a, "equijoin column")
						require(c, b, "equijoin column")
					}
				}
			case *algebra.GroupBy:
				if len(e.Children) == 1 {
					for _, k := range op.Keys {
						require(e.Children[0], k, "group-by key")
					}
				}
			}
			for _, c := range e.Children {
				for _, col := range sets[id].Sorted() {
					require(c, col, "parent demand")
				}
			}
		}
	}
	return out
}

func sortedGroupIDs(dec *memoxml.Decoded) []int {
	ids := make([]int, 0, len(dec.Groups))
	for id := range dec.Groups {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

func sortedStatIDs(g *memoxml.DecodedGroup) []algebra.ColumnID {
	ids := make([]algebra.ColumnID, 0, len(g.ColStats))
	for id := range g.ColStats {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}
