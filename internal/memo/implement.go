package memo

import (
	"fmt"
	"math"

	"pdwqo/internal/algebra"
	"pdwqo/internal/catalog"
)

// Serial cost model constants (arbitrary CPU-ish units per row). Only
// relative magnitudes matter: they steer join-order and algorithm choice
// in the serial plan, which the E3/E7 baselines compare against.
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

// Implement adds physical alternatives for every logical expression.
func (m *Memo) Implement() {
	for gi := 1; gi < len(m.Groups); gi++ {
		g := m.Groups[gi]
		for ei := 0; ei < len(g.Exprs); ei++ {
			e := g.Exprs[ei]
			if e.Physical {
				continue
			}
			for _, p := range m.implementations(e) {
				m.InsertExpr(p, g.ID)
			}
		}
	}
}

// implementations returns the physical expressions implementing e.
func (m *Memo) implementations(e *GroupExpr) []*GroupExpr {
	phys := func(algo string) *GroupExpr {
		return &GroupExpr{
			Op:       algebra.NewPhys(algo, e.Op),
			Children: append([]GroupID{}, e.Children...),
			Physical: true,
			conj:     e.conj,
		}
	}
	switch op := e.Op.(type) {
	case *algebra.Get:
		return []*GroupExpr{phys(algebra.AlgoTableScan)}
	case *algebra.Values:
		return []*GroupExpr{phys(algebra.AlgoValuesScan)}
	case *algebra.Select:
		return []*GroupExpr{phys(algebra.AlgoFilter)}
	case *algebra.Project:
		return []*GroupExpr{phys(algebra.AlgoCompute)}
	case *algebra.Join:
		out := []*GroupExpr{}
		if m.hasCrossEquiConjunct(e) {
			out = append(out, phys(algebra.AlgoHashJoin))
		}
		if op.Kind != algebra.JoinFullOuter {
			out = append(out, phys(algebra.AlgoLoopJoin))
		} else if len(out) == 0 {
			out = append(out, phys(algebra.AlgoLoopJoin))
		}
		return out
	case *algebra.GroupBy:
		return []*GroupExpr{phys(algebra.AlgoHashAgg)}
	case *algebra.Sort:
		return []*GroupExpr{phys(algebra.AlgoSort)}
	case *algebra.UnionAll:
		return []*GroupExpr{phys(algebra.AlgoConcat)}
	}
	return nil
}

// hasCrossEquiConjunct reports whether the join has at least one equality
// pairing a left column with a right column — the hash join requirement.
func (m *Memo) hasCrossEquiConjunct(e *GroupExpr) bool {
	l, r := m.Groups[e.Children[0]].outCols, m.Groups[e.Children[1]].outCols
	for _, c := range e.conj {
		if a, b, ok := algebra.EquiJoinSides(c.s); ok {
			if (l.has(int(a)) && r.has(int(b))) || (l.has(int(b)) && r.has(int(a))) {
				return true
			}
		}
	}
	return false
}

// CostSerial computes the serial cost of every group's best physical
// expression (bottom-up over the group DAG) and records winners.
func (m *Memo) CostSerial() {
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
			if !e.Physical {
				continue
			}
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
}

// ownCost is the expression's own serial cost, excluding children.
func (m *Memo) ownCost(g *Group, e *GroupExpr) float64 {
	p, ok := e.Op.(*algebra.Phys)
	if !ok {
		return math.Inf(1)
	}
	out := g.Props
	var in0, in1 *LogicalProps
	if len(e.Children) > 0 {
		in0 = m.Groups[e.Children[0]].Props
	}
	if len(e.Children) > 1 {
		in1 = m.Groups[e.Children[1]].Props
	}
	switch p.Algo {
	case algebra.AlgoTableScan:
		return out.Rows*costScanRow + out.Rows*out.Width*costScanByte
	case algebra.AlgoValuesScan:
		return out.Rows * costScanRow
	case algebra.AlgoFilter:
		return in0.Rows * costFilterRow
	case algebra.AlgoCompute:
		return in0.Rows * costComputeRow
	case algebra.AlgoHashJoin:
		// Build on the right input, probe with the left.
		return in1.Rows*costBuildRow + in0.Rows*costProbeRow + out.Rows*costOutRow
	case algebra.AlgoLoopJoin:
		return in0.Rows*in1.Rows*costNLPair + out.Rows*costOutRow
	case algebra.AlgoHashAgg:
		return in0.Rows*costAggRow + out.Rows*costOutRow
	case algebra.AlgoSort:
		n := math.Max(in0.Rows, 1)
		return n * math.Log2(n+1) * costSortRow
	case algebra.AlgoConcat:
		return (in0.Rows + in1.Rows) * 0.01
	}
	return math.Inf(1)
}

// PhysPlan is an extracted physical plan tree with per-node properties.
type PhysPlan struct {
	Op       algebra.Operator
	Children []*PhysPlan
	Props    *LogicalProps
	Cost     float64
}

// String renders an indented plan.
func (p *PhysPlan) String() string {
	var b []byte
	var walk func(n *PhysPlan, depth int)
	walk = func(n *PhysPlan, depth int) {
		for i := 0; i < depth; i++ {
			b = append(b, ' ', ' ')
		}
		b = append(b, n.Op.Fingerprint()...)
		b = append(b, fmt.Sprintf("  (rows=%.5g)", n.Props.Rows)...)
		b = append(b, '\n')
		for _, c := range n.Children {
			walk(c, depth+1)
		}
	}
	walk(p, 0)
	return string(b)
}

// BestPlan extracts the cheapest physical plan for the root group.
func (m *Memo) BestPlan() (*PhysPlan, error) {
	return m.extract(m.Root, map[GroupID]bool{})
}

func (m *Memo) extract(id GroupID, inProgress map[GroupID]bool) (*PhysPlan, error) {
	if inProgress[id] {
		return nil, fmt.Errorf("memo: cyclic plan extraction at group %d", id)
	}
	g := m.Groups[id]
	w := g.Winner()
	if w == nil {
		return nil, fmt.Errorf("memo: group %d has no physical winner", id)
	}
	inProgress[id] = true
	defer delete(inProgress, id)
	children := make([]*PhysPlan, len(w.Children))
	for i, c := range w.Children {
		cp, err := m.extract(c, inProgress)
		if err != nil {
			return nil, err
		}
		children[i] = cp
	}
	return &PhysPlan{Op: w.Op, Children: children, Props: g.Props, Cost: w.Cost}, nil
}

// Optimize runs the full serial pipeline over a normalized tree: insert,
// explore, implement, cost. budget caps exploration (0 = unlimited).
func Optimize(shell *catalog.Shell, tree *algebra.Tree, budget int) (*Memo, error) {
	return OptimizeSeeded(shell, tree, budget)
}

// OptimizeFixed runs the serial pipeline WITHOUT exploration: the tree's
// own shape is the only logical plan in the memo. This is the greedy
// large-join regime's lowering path — the join order was already fixed
// upstream (normalize.GreedyJoinOrder), so exploring alternatives would
// re-open exactly the search space the budget trip just abandoned. The
// PDW-side enumerator still runs over the fixed memo and inserts
// movement enforcers, so distribution correctness is untouched.
func OptimizeFixed(shell *catalog.Shell, tree *algebra.Tree) (*Memo, error) {
	m := New(shell)
	m.Root = m.Insert(tree)
	m.Implement()
	m.CostSerial()
	if m.Groups[m.Root].Winner() == nil {
		return nil, fmt.Errorf("memo: no plan found for root group")
	}
	return m, nil
}

// OptimizeSeeded is Optimize with additional equivalent seed plans
// inserted into the root group before exploration (paper §3.1: "we seed
// the MEMO with execution plans that consider distribution information").
func OptimizeSeeded(shell *catalog.Shell, tree *algebra.Tree, budget int, seeds ...*algebra.Tree) (*Memo, error) {
	return OptimizeUntil(shell, tree, budget, nil, seeds...)
}

// OptimizeUntil is OptimizeSeeded for a caller that may learn from the
// logical memo that it will not use it: decided (nil: never) is asked every
// askEvery created expressions and when exploration ends, and the first yes
// returns the memo as it stands, Decided() true, nothing implemented. What
// decided reads must only grow as expressions are added.
func OptimizeUntil(shell *catalog.Shell, tree *algebra.Tree, budget int, decided func(*Memo) bool, seeds ...*algebra.Tree) (*Memo, error) {
	m := New(shell)
	m.Budget, m.decided = budget, decided
	m.Root = m.Insert(tree)
	for _, sd := range seeds {
		m.InsertSeed(sd)
	}
	m.Explore()
	// The memo may outlive the compile; the caller's closure need not.
	m.stopped, m.decided = m.stopped || (decided != nil && decided(m)), nil
	if m.stopped {
		return m, nil
	}
	m.Implement()
	m.CostSerial()
	if m.Groups[m.Root].Winner() == nil {
		return nil, fmt.Errorf("memo: no plan found for root group")
	}
	return m, nil
}
