package memo

import (
	"fmt"
	"math"

	"pdwqo/internal/algebra"
)

// Serial cost model constants (arbitrary CPU-ish units per row). Only
// relative magnitudes matter: they steer join-order and algorithm choice
// in the serial plan, which the E3/E7 baselines compare against. The memo
// holds no physical expressions: an expression is costed as the cheapest
// algorithm that could run it, and the PDW side plans over the logical
// expressions alone.
const (
	costScanRow    = 1.0
	costScanByte   = 0.01
	costFilterRow  = 0.2
	costComputeRow = 0.2
	costBuildRow   = 2.0
	costProbeRow   = 1.0
	costOutRow     = 0.3
	costNLPair     = 0.8
	costAggRow     = 2.0
	costSortRow    = 0.4
)

// hasCrossEquiConjunct reports whether the join has at least one equality
// pairing a left column with a right column — the hash join requirement.
func (m *Memo) hasCrossEquiConjunct(e *GroupExpr) bool {
	l, r := m.Groups[e.Children[0]].outCols, m.Groups[e.Children[1]].outCols
	for _, id := range e.conj {
		if a, b, ok := algebra.EquiJoinSides(m.conjS[id]); ok {
			if (l.Has(a) && r.Has(b)) || (l.Has(b) && r.Has(a)) {
				return true
			}
		}
	}
	return false
}

// CostSerial costs every expression bottom-up over the group DAG and
// records each group's winner, the cheapest: an expression costs the
// cheapest algorithm that could run it plus its children's winners. Only
// the serial baseline (core.ModeSerialBaseline) reads the result.
func (m *Memo) CostSerial() error {
	state := make([]int8, len(m.Groups)) // 0 new, 1 in progress, 2 done
	var costGroup func(id GroupID) float64
	costGroup = func(id GroupID) float64 {
		g := m.Groups[id]
		switch state[id] {
		case 1:
			return math.Inf(1) // cycle guard
		case 2:
			if w := g.Winner(); w != nil {
				return w.Cost
			}
			return math.Inf(1)
		}
		state[id] = 1
		best := math.Inf(1)
		bestIdx := -1
		for i, e := range g.Exprs {
			total := m.ownCost(g, e)
			ok := true
			for _, c := range e.Children {
				cc := costGroup(c)
				if math.IsInf(cc, 1) {
					ok = false
					break
				}
				total += cc
			}
			if !ok {
				continue
			}
			e.Cost = total
			if total < best {
				best = total
				bestIdx = i
			}
		}
		g.winner = bestIdx
		state[id] = 2
		return best
	}
	for gi := 1; gi < len(m.Groups); gi++ {
		costGroup(GroupID(gi))
	}
	if m.Groups[m.Root].Winner() == nil {
		return fmt.Errorf("memo: no plan found for root group")
	}
	return nil
}

// ownCost is the expression's own serial cost, excluding children: that of
// the cheapest algorithm able to run it.
func (m *Memo) ownCost(g *Group, e *GroupExpr) float64 {
	out := g.Props
	var in0, in1 *LogicalProps
	if len(e.Children) > 0 {
		in0 = m.Groups[e.Children[0]].Props
	}
	if len(e.Children) > 1 {
		in1 = m.Groups[e.Children[1]].Props
	}
	switch op := e.Op.(type) {
	case *algebra.Get: // table scan
		return out.Rows*costScanRow + out.Rows*out.Width*costScanByte
	case *algebra.Values:
		return out.Rows * costScanRow
	case *algebra.Select: // filter
		return in0.Rows * costFilterRow
	case *algebra.Project: // compute scalar
		return in0.Rows * costComputeRow
	case *algebra.Join:
		// A hash join — build on the right input, probe with the left —
		// needs an equality pairing the two sides; nested loops run any
		// join but a full outer join that can hash.
		hash, loop := math.Inf(1), math.Inf(1)
		hashable := m.hasCrossEquiConjunct(e)
		if hashable {
			hash = in1.Rows*costBuildRow + in0.Rows*costProbeRow + out.Rows*costOutRow
		}
		if !hashable || op.Kind != algebra.JoinFullOuter {
			loop = in0.Rows*in1.Rows*costNLPair + out.Rows*costOutRow
		}
		return min(hash, loop)
	case *algebra.GroupBy: // hash aggregate
		return in0.Rows*costAggRow + out.Rows*costOutRow
	case *algebra.Sort:
		n := math.Max(in0.Rows, 1)
		return n * math.Log2(n+1) * costSortRow
	case *algebra.UnionAll: // concatenation
		return (in0.Rows + in1.Rows) * 0.01
	}
	return math.Inf(1)
}
