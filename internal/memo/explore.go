package memo

import (
	"pdwqo/internal/algebra"
	"pdwqo/internal/sqlparser"
)

// Explore applies logical transformation rules to a fixpoint (or until the
// expression budget — the optimizer "timeout" of paper §3.1 — is hit):
//
//   - join commutativity (inner/cross)
//   - join associativity (inner/cross), generating all join orders
//   - push-join-below-group-by, the eager-aggregation shape the paper's
//     Q20 plan requires (join part⋈lineitem below the local aggregation)
func (m *Memo) Explore() {
	for round := 1; round <= 32; round++ {
		changed := false
		// Snapshot group count: rules may add groups.
		for gi := 1; gi < len(m.Groups); gi++ {
			g := m.Groups[gi]
			if g.exploredRound == round {
				continue
			}
			g.exploredRound = round
			// Snapshot expressions: rules append to g.Exprs.
			for ei := 0; ei < len(g.Exprs); ei++ {
				e := g.Exprs[ei]
				if e.Physical {
					continue
				}
				if !m.budgetLeft() {
					return
				}
				if m.applyRules(g, e) {
					changed = true
				}
			}
		}
		if !changed {
			return
		}
	}
}

func (m *Memo) applyRules(g *Group, e *GroupExpr) bool {
	changed := false
	if j, ok := e.Op.(*algebra.Join); ok {
		if j.Kind == algebra.JoinInner || j.Kind == algebra.JoinCross {
			changed = m.ruleJoinCommute(g, e, j) || changed
			changed = m.ruleJoinAssociate(g, e) || changed
			changed = m.ruleJoinBelowGroupBy(g, e, j) || changed
		}
	}
	return changed
}

// insertJoin adds a join of l and r — a copy of from or, when that is nil,
// the inner (or cross) join on conj — building it only if the index lacks it.
func (m *Memo) insertJoin(from *algebra.Join, conj []conjunct, l, r, target GroupID) (GroupID, bool) {
	j := algebra.Join{Kind: algebra.JoinCross}
	if from != nil {
		j = *from
	} else if len(conj) > 0 {
		j.Kind = algebra.JoinInner
	}
	m.joinKey("", j.Kind, conj, l, r)
	if owner, dup := m.owner(target); dup {
		return owner, false
	}
	if from == nil {
		conj = append([]conjunct(nil), conj...)
		for _, c := range conj {
			if j.On == nil {
				j.On = c.s
			} else {
				j.On = &algebra.Binary{Op: sqlparser.OpAnd, L: j.On, R: c.s}
			}
		}
	}
	x := &struct { // one allocation for the three
		e    GroupExpr
		j    algebra.Join
		kids [2]GroupID
	}{j: j, kids: [2]GroupID{l, r}}
	x.e = GroupExpr{Op: &x.j, Children: x.kids[:], conj: conj}
	return m.insertNew(&x.e, target), true
}

// ruleJoinCommute adds Join(B,A) for Join(A,B).
func (m *Memo) ruleJoinCommute(g *Group, e *GroupExpr, j *algebra.Join) bool {
	_, added := m.insertJoin(j, e.conj, e.Children[1], e.Children[0], g.ID)
	return added
}

// ruleJoinAssociate rewrites Join(Join(A,B), C) as Join(A, Join(B,C)),
// pooling and redistributing conjuncts by column coverage, each condition
// in fingerprint order without duplicates, so that logically identical
// conditions produced along different exploration paths deduplicate.
func (m *Memo) ruleJoinAssociate(g *Group, e *GroupExpr) bool {
	cID := e.Children[1]
	cCols, rank := m.Groups[cID].outCols, m.ranks()
	changed := false
	for _, le := range m.Groups[e.Children[0]].Exprs {
		inner, ok := le.Op.(*algebra.Join)
		if !ok || (inner.Kind != algebra.JoinInner && inner.Kind != algebra.JoinCross) {
			continue
		}
		aID, bID := le.Children[0], le.Children[1]
		m.cols = m.cols.unionOf(m.Groups[bID].outCols, cCols)
		bc, top := m.pool[0][:0], m.pool[1][:0]
		for _, conds := range [2][]conjunct{e.conj, le.conj} {
			for _, c := range conds {
				if m.conjCols[c.id].subsetOf(m.cols) {
					bc = insertByRank(bc, c, rank)
				} else {
					top = insertByRank(top, c, rank)
				}
			}
		}
		m.pool = [2][]conjunct{bc, top}
		if !m.budgetLeft() {
			return changed
		}
		bcGroup, _ := m.insertJoin(nil, bc, bID, cID, 0)
		_, added := m.insertJoin(nil, top, aID, bcGroup, g.ID)
		changed = changed || added
	}
	return changed
}

// insertByRank inserts c behind every conjunct of list that does not rank
// after it — a stable sort, one element at a time — unless it is there.
func insertByRank(list []conjunct, c conjunct, rank []int32) []conjunct {
	i := len(list)
	for i > 0 && rank[list[i-1].id] > rank[c.id] {
		i--
	}
	if i > 0 && list[i-1].id == c.id {
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
func (m *Memo) ruleJoinBelowGroupBy(g *Group, e *GroupExpr, top *algebra.Join) bool {
	if top.Kind != algebra.JoinInner {
		return false
	}
	leftGroup := m.Groups[e.Children[0]]
	rID := e.Children[1]
	rProps := m.Groups[rID].Props

	var rCols algebra.ColSet // built for the first GroupBy found
	changed := false
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
			for _, ce := range childGroup.LogicalExprs() {
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
		if rCols == nil {
			rCols = algebra.NewColSet()
			for _, c := range rProps.OutCols {
				rCols.Add(c.ID)
			}
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
		allowed := algebra.NewColSet()
		allowed.AddSet(joinableLeft)
		allowed.AddSet(rCols)

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
			return changed
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
		_, added := m.InsertExpr(&GroupExpr{
			Op:       &algebra.Project{Defs: defs},
			Children: []GroupID{gbGroup},
		}, g.ID)
		changed = changed || added
	}
	return changed
}
