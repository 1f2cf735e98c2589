package memo

import (
	"pdwqo/internal/algebra"
	"pdwqo/internal/catalog"
	"pdwqo/internal/sqlparser"
)

// OptimizeSeeded builds the serial memo of a normalized tree: the tree,
// then equivalent seed plans in its root group (paper §3.1: "we seed the
// MEMO with execution plans that consider distribution information"),
// then exploration under budget (0 = unlimited). Nothing is costed; the
// serial baseline calls CostSerial. The error is always nil.
func OptimizeSeeded(shell *catalog.Shell, tree *algebra.Tree, budget int, seeds ...*algebra.Tree) (*Memo, error) {
	m := New(shell)
	m.Budget = budget
	m.Root = m.Insert(tree)
	for _, sd := range seeds {
		m.InsertSeed(sd)
	}
	m.Explore()
	return m, nil
}

// OptimizeFixed builds the memo WITHOUT exploration: the tree's own shape
// is the only logical plan in the memo. This is the greedy large-join
// regime's lowering path — the join order was already fixed upstream
// (normalize.GreedyJoinOrder), so exploring alternatives would re-open
// exactly the search space the budget trip just abandoned. The PDW-side
// enumerator still runs over the fixed memo and inserts movement
// enforcers, so distribution correctness is untouched. The error is
// always nil.
func OptimizeFixed(shell *catalog.Shell, tree *algebra.Tree) (*Memo, error) {
	m := New(shell)
	m.Root = m.Insert(tree)
	return m, nil
}

// Explore applies logical transformation rules until a pass over every
// expression of every group creates nothing (a fixpoint: each rule has
// then been applied to each expression against the final memo) or the
// expression budget — the optimizer "timeout" of paper §3.1 — is spent:
//
//   - join commutativity (inner/cross)
//   - join associativity (inner/cross), generating all join orders
//   - push-join-below-group-by, the eager-aggregation shape the paper's
//     Q20 plan requires (join part⋈lineitem below the local aggregation)
//
// Those are its only two ends, which core.TreeLowerBound relies on. The
// rules' search space is finite, and the first pass reaches the fixpoint
// on every query of the corpus; the second confirms it.
func (m *Memo) Explore() {
	for {
		before := m.created
		// Groups and expressions are indexed, not ranged: rules append to both.
		for gi := 1; gi < len(m.Groups); gi++ {
			g := m.Groups[gi]
			for ei := 0; ei < len(g.Exprs); ei++ {
				if !m.budgetLeft() {
					return
				}
				m.applyRules(g, g.Exprs[ei])
			}
		}
		if m.created == before {
			return
		}
	}
}

func (m *Memo) applyRules(g *Group, e *GroupExpr) {
	if j, ok := e.Op.(*algebra.Join); ok && (j.Kind == algebra.JoinInner || j.Kind == algebra.JoinCross) {
		m.ruleJoinCommute(g, e, j)
		m.ruleJoinAssociate(g, e)
		m.ruleJoinBelowGroupBy(g, e, j)
	}
}

// insertJoin adds a join of l and r — a copy of from or, when that is nil,
// the inner (or cross) join on conj — building it only if the index lacks it.
func (m *Memo) insertJoin(from *algebra.Join, conj []int32, l, r, target GroupID) GroupID {
	j := algebra.Join{Kind: algebra.JoinCross}
	if from != nil {
		j = *from
	} else if len(conj) > 0 {
		j.Kind = algebra.JoinInner
	}
	m.joinKey(j.Kind, conj, l, r)
	if owner, dup := m.owner(target); dup {
		return owner
	}
	if from == nil {
		conj = append([]int32(nil), conj...)
		for _, id := range conj {
			if j.On == nil {
				j.On = m.conjS[id]
			} else {
				j.On = &algebra.Binary{Op: sqlparser.OpAnd, L: j.On, R: m.conjS[id]}
			}
		}
	}
	x := &struct { // one allocation for the three
		e    GroupExpr
		j    algebra.Join
		kids [2]GroupID
	}{j: j, kids: [2]GroupID{l, r}}
	x.e = GroupExpr{Op: &x.j, Children: x.kids[:], conj: conj}
	return m.insertNew(&x.e, target)
}

// ruleJoinCommute adds Join(B,A) for Join(A,B).
func (m *Memo) ruleJoinCommute(g *Group, e *GroupExpr, j *algebra.Join) {
	m.insertJoin(j, e.conj, e.Children[1], e.Children[0], g.ID)
}

// ruleJoinAssociate rewrites Join(Join(A,B), C) as Join(A, Join(B,C)),
// pooling and redistributing conjuncts by column coverage, each condition
// in fingerprint order without duplicates, so that logically identical
// conditions produced along different exploration paths deduplicate.
func (m *Memo) ruleJoinAssociate(g *Group, e *GroupExpr) {
	cID := e.Children[1]
	cCols, rank := m.Groups[cID].outCols, m.ranks()
	for _, le := range m.Groups[e.Children[0]].Exprs {
		inner, ok := le.Op.(*algebra.Join)
		if !ok || (inner.Kind != algebra.JoinInner && inner.Kind != algebra.JoinCross) {
			continue
		}
		aID, bID := le.Children[0], le.Children[1]
		m.cols.SetUnion(m.Groups[bID].outCols, cCols)
		bc, top := m.pool[0][:0], m.pool[1][:0]
		for _, conds := range [2][]int32{e.conj, le.conj} {
			for _, c := range conds {
				if m.conjCols[c].SubsetOf(m.cols) {
					bc = insertByRank(bc, c, rank)
				} else {
					top = insertByRank(top, c, rank)
				}
			}
		}
		m.pool = [2][]int32{bc, top}
		if !m.budgetLeft() {
			return
		}
		bcGroup := m.insertJoin(nil, bc, bID, cID, 0)
		m.insertJoin(nil, top, aID, bcGroup, g.ID)
	}
}

// insertByRank inserts c behind every conjunct of list that does not rank
// after it — a stable sort, one element at a time — unless it is there.
func insertByRank(list []int32, c int32, rank []int32) []int32 {
	i := len(list)
	for i > 0 && rank[list[i-1]] > rank[c] {
		i--
	}
	if i > 0 && list[i-1] == c {
		return list
	}
	list = append(list, c)
	copy(list[i+1:], list[i:])
	list[i] = c
	return list
}

// ruleJoinBelowGroupBy rewrites Join([Project](GroupBy(X)), R) into
// Project(GroupBy(Join(X, R))) when
//
//   - the join is inner,
//   - no join conjunct references an aggregate output (or a projection
//     computed from one), and
//   - R is provably unique on its equi-join columns (each X row matches at
//     most one R row, so group contents are unchanged).
//
// The new GroupBy's keys are the old keys plus R's output columns (R's
// columns are functionally determined by its unique join columns, so the
// group count is preserved). A projection restores the original output.
// An intervening Project (the shape decorrelation produces: the aggregate
// value wrapped in an expression, keys passed through) is looked through.
// This is the transform behind the paper's Q20 DSQL step 0/1: part ⋈
// lineitem runs below the (local) aggregation.
func (m *Memo) ruleJoinBelowGroupBy(g *Group, e *GroupExpr, top *algebra.Join) {
	if top.Kind != algebra.JoinInner {
		return
	}
	leftGroup := m.Groups[e.Children[0]]
	rID := e.Children[1]
	rProps := m.Groups[rID].Props
	rCols := m.Groups[rID].outCols
	for _, le := range leftGroup.Exprs {
		var gb *algebra.GroupBy
		var gbChild GroupID
		var projDefs []algebra.ProjDef // nil when no intervening Project

		switch op := le.Op.(type) {
		case *algebra.GroupBy:
			gb, gbChild = op, le.Children[0]
		case *algebra.Project:
			// Look through the projection for a GroupBy in its child
			// group; require every join conjunct to reference only
			// identity pass-through columns.
			childGroup := m.Groups[le.Children[0]]
			for _, ce := range childGroup.Exprs {
				if inner, ok := ce.Op.(*algebra.GroupBy); ok {
					gb, gbChild = inner, ce.Children[0]
					projDefs = op.Defs
					break
				}
			}
		}
		if gb == nil || gb.Phase != algebra.AggComplete {
			continue
		}
		keySet := algebra.NewColSet(gb.Keys...)
		// Columns the join condition may touch on the left side: GB keys,
		// and for the Project case only keys passed through unchanged.
		joinableLeft := keySet
		if projDefs != nil {
			joinableLeft = algebra.NewColSet()
			for _, d := range projDefs {
				if c, ok := d.Expr.(*algebra.ColRef); ok && c.ID == d.ID && keySet.Has(d.ID) {
					joinableLeft.Add(d.ID)
				}
			}
		}
		allowed := joinableLeft.Union(rCols)

		rJoinCols := algebra.NewColSet()
		valid := true
		for _, conj := range algebra.Conjuncts(top.On) {
			cols := algebra.ScalarCols(conj)
			if !cols.SubsetOf(allowed) {
				valid = false
				break
			}
			if a, b, ok := algebra.EquiJoinSides(conj); ok {
				if joinableLeft.Has(a) && rCols.Has(b) {
					rJoinCols.Add(b)
				} else if joinableLeft.Has(b) && rCols.Has(a) {
					rJoinCols.Add(a)
				}
			}
		}
		if !valid || !rProps.UniqueOn(rJoinCols) {
			continue
		}
		if !m.budgetLeft() {
			return
		}
		newKeys := append([]algebra.ColumnID{}, gb.Keys...)
		for _, c := range rProps.OutCols {
			if !keySet.Has(c.ID) {
				newKeys = append(newKeys, c.ID)
			}
		}
		joinGroup, _ := m.InsertExpr(&GroupExpr{
			Op:       &algebra.Join{Kind: algebra.JoinInner, On: top.On},
			Children: []GroupID{gbChild, rID},
		}, 0)
		gbGroup, _ := m.InsertExpr(&GroupExpr{
			Op:       &algebra.GroupBy{Keys: newKeys, Aggs: gb.Aggs},
			Children: []GroupID{joinGroup},
		}, 0)
		// Restore the original join output: left outputs (through the
		// original projection when present), then R outputs.
		var defs []algebra.ProjDef
		if projDefs != nil {
			defs = append(defs, projDefs...)
		} else {
			for _, c := range leftGroup.Props.OutCols {
				defs = append(defs, algebra.ProjDef{Expr: algebra.NewColRef(c), ID: c.ID, Name: c.Name})
			}
		}
		for _, c := range rProps.OutCols {
			defs = append(defs, algebra.ProjDef{Expr: algebra.NewColRef(c), ID: c.ID, Name: c.Name})
		}
		m.InsertExpr(&GroupExpr{
			Op:       &algebra.Project{Defs: defs},
			Children: []GroupID{gbGroup},
		}, g.ID)
	}
}
