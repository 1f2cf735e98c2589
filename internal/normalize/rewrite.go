package normalize

import (
	"math"

	"pdwqo/internal/algebra"
	"pdwqo/internal/exec"
	"pdwqo/internal/sqlparser"
	"pdwqo/internal/types"
)

// foldTree applies constant folding and boolean simplification to every
// scalar in the tree.
func foldTree(t *algebra.Tree) *algebra.Tree {
	children := make([]*algebra.Tree, len(t.Children))
	for i, c := range t.Children {
		children[i] = foldTree(c)
	}
	op := t.Op
	switch o := op.(type) {
	case *algebra.Select:
		op = &algebra.Select{Filter: FoldScalar(o.Filter)}
	case *algebra.Project:
		defs := make([]algebra.ProjDef, len(o.Defs))
		for i, d := range o.Defs {
			defs[i] = algebra.ProjDef{Expr: FoldScalar(d.Expr), ID: d.ID, Name: d.Name}
		}
		op = &algebra.Project{Defs: defs}
	case *algebra.Join:
		if o.On != nil {
			op = &algebra.Join{Kind: o.Kind, On: FoldScalar(o.On)}
		}
	case *algebra.GroupBy:
		aggs := make([]algebra.AggDef, len(o.Aggs))
		for i, a := range o.Aggs {
			aggs[i] = a
			if a.Arg != nil {
				aggs[i].Arg = FoldScalar(a.Arg)
			}
		}
		op = &algebra.GroupBy{Keys: o.Keys, Aggs: aggs, Phase: o.Phase}
	}
	out := algebra.NewTree(op, children...)
	// A Select with a constant-true filter disappears; constant-false is
	// handled by contradiction detection.
	if sel, ok := out.Op.(*algebra.Select); ok {
		if c, ok := sel.Filter.(*algebra.Const); ok && !c.Val.IsNull() && c.Val.Kind() == types.KindBool && c.Val.Bool() {
			return out.Children[0]
		}
	}
	return out
}

// FoldScalar simplifies an expression. A closed scalar — one with no
// column and no subquery beneath it — is evaluated by exec.Eval and
// replaced by its value, so folding has no semantics of its own; when
// Eval fails, or yields a float DSQL cannot spell (NaN, ±Inf), the scalar
// stays for the nodes to evaluate. Over columns, AND/OR with one constant
// side collapse and double negation drops.
func FoldScalar(e algebra.Scalar) algebra.Scalar {
	e, _ = fold(e)
	return e
}

// fold is FoldScalar's one bottom-up walk. It also reports whether the
// result is closed, which it decides from the children it has just
// folded: a scalar is closed when it is no column and no subquery and
// every child is closed. A closed child is a constant or a closed scalar
// Eval left in place, so a parent of a 1/0 is still evaluated.
func fold(e algebra.Scalar) (algebra.Scalar, bool) {
	closed := true
	e = algebra.RewriteChildren(e, func(c algebra.Scalar) algebra.Scalar {
		c, ok := fold(c)
		closed = closed && ok
		return c
	})
	switch e.(type) {
	case *algebra.Const:
		return e, true
	case *algebra.ColRef, *algebra.Subquery:
		return e, false
	}
	if closed {
		// A closed scalar reads no row, so Eval needs no environment.
		if v, err := exec.Eval(e, nil); err == nil && spellable(v) {
			return &algebra.Const{Val: v}, true
		}
		return e, true
	}
	// Over columns, what is kept is open; a collapsed AND/OR is closed.
	switch x := e.(type) {
	case *algebra.Binary:
		if and := x.Op == sqlparser.OpAnd; and || x.Op == sqlparser.OpOr {
			if k, ok := x.L.(*algebra.Const); ok {
				return collapse(and, k.Val, x.R, e)
			}
			if k, ok := x.R.(*algebra.Const); ok {
				return collapse(and, k.Val, x.L, e)
			}
		}
	case *algebra.Not:
		if inner, ok := x.E.(*algebra.Not); ok {
			return inner.E, false
		}
	}
	return e, false
}

// collapse folds `v AND other` (or `v OR other`) for a boolean constant
// v: TRUE AND x and FALSE OR x are x, FALSE AND x is FALSE and TRUE OR x
// is TRUE. Any other v keeps e, the whole expression.
func collapse(and bool, v types.Value, other, e algebra.Scalar) (algebra.Scalar, bool) {
	switch {
	case v.IsNull() || v.Kind() != types.KindBool:
		return e, false
	case v.Bool() == and:
		return other, false
	}
	return &algebra.Const{Val: types.NewBool(!and)}, true
}

// spellable reports whether DSQL text can carry v as a literal.
func spellable(v types.Value) bool {
	if v.Kind() != types.KindFloat {
		return true
	}
	f := v.Float()
	return !math.IsNaN(f) && !math.IsInf(f, 0)
}

// pushdown moves filter conjuncts as close to the data as possible,
// converts qualified cross joins into inner joins, merges adjacent
// selects, simplifies outer joins under null-rejecting predicates, and
// pulls single-side conjuncts out of join conditions. It iterates to a
// fixpoint, which it reaches because no pass undoes another: every change
// moves a conjunct strictly nearer the leaves (a union copies it into
// both inputs, each lower), merges two adjacent selects, or turns a cross
// or left outer join inner, and the tree has finitely many of each.
func pushdown(t *algebra.Tree) *algebra.Tree {
	for changed := true; changed; {
		t, changed = pushdownOnce(t)
	}
	return t
}

func pushdownOnce(t *algebra.Tree) (*algebra.Tree, bool) {
	changed := false
	children := make([]*algebra.Tree, len(t.Children))
	for i, c := range t.Children {
		nc, ch := pushdownOnce(c)
		children[i] = nc
		changed = changed || ch
	}
	t = algebra.NewTreeSameSchema(t, t.Op, children...)

	switch op := t.Op.(type) {
	case *algebra.Select:
		// Merge Select(Select(x)).
		if innerSel, ok := t.Children[0].Op.(*algebra.Select); ok {
			merged := algebra.AndAll([]algebra.Scalar{op.Filter, innerSel.Filter})
			return algebra.NewTreeSameSchema(t, &algebra.Select{Filter: merged}, t.Children[0].Children[0]), true
		}
		var kept []algebra.Scalar
		node := t.Children[0]
		for _, conj := range algebra.Conjuncts(op.Filter) {
			placed, ok := placeConjunct(node, conj, algebra.ScalarCols(conj))
			if ok {
				node = placed
				changed = true
			} else {
				kept = append(kept, conj)
			}
		}
		if len(kept) == 0 {
			return node, true
		}
		return algebra.NewTreeSameSchema(t, &algebra.Select{Filter: algebra.AndAll(kept)}, node), changed

	case *algebra.Join:
		if op.On == nil {
			return t, changed
		}
		left, right := t.Children[0], t.Children[1]
		var keep []algebra.Scalar
		for _, conj := range algebra.Conjuncts(op.On) {
			cols := algebra.ScalarCols(conj)
			switch op.Kind {
			case algebra.JoinInner, algebra.JoinCross:
				if cols.SubsetOf(left.OutputColSet()) && cols.Len() > 0 {
					left = algebra.NewTreeSameSchema(left, &algebra.Select{Filter: conj}, left)
					changed = true
					continue
				}
				if cols.SubsetOf(right.OutputColSet()) && cols.Len() > 0 {
					right = algebra.NewTreeSameSchema(right, &algebra.Select{Filter: conj}, right)
					changed = true
					continue
				}
			case algebra.JoinLeftOuter:
				// Only right-side-only conjuncts push into the right input.
				if cols.SubsetOf(right.OutputColSet()) && cols.Len() > 0 {
					right = algebra.NewTreeSameSchema(right, &algebra.Select{Filter: conj}, right)
					changed = true
					continue
				}
			case algebra.JoinSemi, algebra.JoinAnti:
				if cols.SubsetOf(right.OutputColSet()) && cols.Len() > 0 {
					right = algebra.NewTreeSameSchema(right, &algebra.Select{Filter: conj}, right)
					changed = true
					continue
				}
			}
			keep = append(keep, conj)
		}
		kind := op.Kind
		if kind == algebra.JoinCross && len(keep) > 0 {
			kind = algebra.JoinInner
			changed = true
		}
		if !changed {
			return t, false
		}
		return algebra.NewTreeSameSchema(t, &algebra.Join{Kind: kind, On: algebra.AndAll(keep)}, left, right), true
	}
	return t, changed
}

// placeConjunct attempts to push one conjunct into node, returning the
// rewritten node. It descends through projects (inlining definitions),
// joins, group-bys (key-only conjuncts), sorts without TOP, and unions.
// cols is the set of columns conj reads; it is recomputed only where the
// conjunct is rewritten (inlined through a project).
func placeConjunct(node *algebra.Tree, conj algebra.Scalar, cols algebra.ColSet) (*algebra.Tree, bool) {
	switch op := node.Op.(type) {
	case *algebra.Select:
		// Append to the child select (it will merge on the next pass).
		return algebra.NewTreeSameSchema(node, &algebra.Select{Filter: algebra.AndAll([]algebra.Scalar{op.Filter, conj})}, node.Children[0]), true

	case *algebra.Project:
		inlined, ok := inlineThroughProject(conj, op)
		if !ok {
			return node, false
		}
		child, pushed := placeConjunct(node.Children[0], inlined, algebra.ScalarCols(inlined))
		if !pushed {
			child = algebra.NewTreeSameSchema(node.Children[0], &algebra.Select{Filter: inlined}, node.Children[0])
		}
		return algebra.NewTreeSameSchema(node, op, child), true

	case *algebra.Join:
		left, right := node.Children[0], node.Children[1]
		switch op.Kind {
		case algebra.JoinInner, algebra.JoinCross:
			if cols.SubsetOf(left.OutputColSet()) {
				nl, pushed := placeConjunct(left, conj, cols)
				if !pushed {
					nl = algebra.NewTreeSameSchema(left, &algebra.Select{Filter: conj}, left)
				}
				return algebra.NewTreeSameSchema(node, op, nl, right), true
			}
			if cols.SubsetOf(right.OutputColSet()) {
				nr, pushed := placeConjunct(right, conj, cols)
				if !pushed {
					nr = algebra.NewTreeSameSchema(right, &algebra.Select{Filter: conj}, right)
				}
				return algebra.NewTreeSameSchema(node, op, left, nr), true
			}
			// Spans both sides: fold into the join condition.
			kind := op.Kind
			if kind == algebra.JoinCross {
				kind = algebra.JoinInner
			}
			on := algebra.AndAll([]algebra.Scalar{op.On, conj})
			return algebra.NewTreeSameSchema(node, &algebra.Join{Kind: kind, On: on}, left, right), true

		case algebra.JoinLeftOuter:
			if cols.SubsetOf(left.OutputColSet()) {
				nl, pushed := placeConjunct(left, conj, cols)
				if !pushed {
					nl = algebra.NewTreeSameSchema(left, &algebra.Select{Filter: conj}, left)
				}
				return algebra.NewTreeSameSchema(node, op, nl, right), true
			}
			// A null-rejecting predicate over right-side columns converts
			// the outer join to inner (paper §5: outer-join reordering
			// enablement), after which it can be pushed normally.
			if cols.Intersects(right.OutputColSet()) && isNullRejectingOn(conj, right.OutputColSet()) {
				inner := algebra.NewTreeSameSchema(node, &algebra.Join{Kind: algebra.JoinInner, On: op.On}, left, right)
				return placeConjunct(inner, conj, cols)
			}
			return node, false

		case algebra.JoinSemi, algebra.JoinAnti:
			if cols.SubsetOf(left.OutputColSet()) {
				nl, pushed := placeConjunct(left, conj, cols)
				if !pushed {
					nl = algebra.NewTreeSameSchema(left, &algebra.Select{Filter: conj}, left)
				}
				return algebra.NewTreeSameSchema(node, op, nl, right), true
			}
			return node, false
		}
		return node, false

	case *algebra.GroupBy:
		if op.Phase != algebra.AggComplete {
			return node, false
		}
		if cols.SubsetOf(algebra.NewColSet(op.Keys...)) && cols.Len() > 0 {
			child, pushed := placeConjunct(node.Children[0], conj, cols)
			if !pushed {
				child = algebra.NewTreeSameSchema(node.Children[0], &algebra.Select{Filter: conj}, node.Children[0])
			}
			return algebra.NewTreeSameSchema(node, op, child), true
		}
		return node, false

	case *algebra.Sort:
		if op.Top > 0 {
			return node, false
		}
		child, pushed := placeConjunct(node.Children[0], conj, cols)
		if !pushed {
			child = algebra.NewTreeSameSchema(node.Children[0], &algebra.Select{Filter: conj}, node.Children[0])
		}
		return algebra.NewTreeSameSchema(node, op, child), true

	case *algebra.UnionAll:
		l, lp := placeConjunct(node.Children[0], conj, cols)
		if !lp {
			l = algebra.NewTreeSameSchema(node.Children[0], &algebra.Select{Filter: conj}, node.Children[0])
		}
		r, rp := placeConjunct(node.Children[1], conj, cols)
		if !rp {
			r = algebra.NewTreeSameSchema(node.Children[1], &algebra.Select{Filter: conj}, node.Children[1])
		}
		return algebra.NewTreeSameSchema(node, op, l, r), true
	}
	return node, false
}

// inlineThroughProject rewrites a conjunct's column references by inlining
// the project's definitions, so the predicate can evaluate below it.
func inlineThroughProject(conj algebra.Scalar, p *algebra.Project) (algebra.Scalar, bool) {
	defs := make(map[algebra.ColumnID]algebra.Scalar, len(p.Defs))
	for _, d := range p.Defs {
		defs[d.ID] = d.Expr
	}
	ok := true
	out := algebra.RewriteScalar(conj, func(e algebra.Scalar) algebra.Scalar {
		if c, okc := e.(*algebra.ColRef); okc {
			rep, found := defs[c.ID]
			if !found {
				ok = false
				return nil
			}
			return rep
		}
		return nil
	})
	return out, ok
}

// isNullRejectingOn reports whether the predicate cannot be true when the
// columns of `side` it references are all NULL — the condition for
// outer→inner join conversion. Comparisons, LIKE and positive IN reject
// NULLs of any column they reference; AND rejects if either conjunct does;
// OR only if both disjuncts do.
func isNullRejectingOn(e algebra.Scalar, side algebra.ColSet) bool {
	touches := func(s algebra.Scalar) bool { return algebra.ScalarCols(s).Intersects(side) }
	switch x := e.(type) {
	case *algebra.Binary:
		if x.Op.IsComparison() {
			return touches(x)
		}
		if x.Op == sqlparser.OpAnd {
			return isNullRejectingOn(x.L, side) || isNullRejectingOn(x.R, side)
		}
		if x.Op == sqlparser.OpOr {
			return isNullRejectingOn(x.L, side) && isNullRejectingOn(x.R, side)
		}
		return false
	case *algebra.Like:
		return touches(x)
	case *algebra.InList:
		return !x.Negated && touches(x)
	case *algebra.IsNull:
		return x.Negated && touches(x.E) && !hasNonColRef(x.E)
	default:
		return false
	}
}

// hasNonColRef reports whether the expression is more than a bare column,
// in which case IS NOT NULL reasoning is not sound (e.g. COALESCE-like
// rewrites could mask NULL inputs).
func hasNonColRef(e algebra.Scalar) bool {
	_, ok := e.(*algebra.ColRef)
	return !ok
}
