// Package normalize implements the SQL-Server-side query simplification
// phase (paper §2.5 step 2a and §5): subquery unnesting and decorrelation,
// constant folding, predicate pushdown, join transitivity closure,
// contradiction detection, outer-join simplification, redundant-join
// elimination, and column pruning. Its output is the normalized logical
// tree inserted as the initial plan into the MEMO.
package normalize

import (
	"fmt"

	"pdwqo/internal/algebra"
	"pdwqo/internal/sqlparser"
	"pdwqo/internal/types"
)

// Normalizer rewrites bound trees into normal form. It shares the binder's
// column-ID allocator so new columns never collide.
type Normalizer struct {
	ids interface{ NextID() algebra.ColumnID }
}

// New returns a normalizer minting IDs from the given allocator (usually
// the Binder used to produce the tree).
func New(ids interface{ NextID() algebra.ColumnID }) *Normalizer {
	return &Normalizer{ids: ids}
}

// Normalize applies the full rule pipeline.
func (n *Normalizer) Normalize(t *algebra.Tree) (*algebra.Tree, error) {
	t, err := n.unnest(t)
	if err != nil {
		return nil, err
	}
	t = foldTree(t)
	t = pushdown(t)
	t = transitivityClosure(t, false)
	t = pushdown(t)
	t = detectContradictions(t)
	t = eliminateRedundantJoins(t)
	t = pruneColumns(t)
	t = dropIdentityProjects(t)
	return t, nil
}

// unnest removes every Subquery scalar by rewriting it into joins,
// recursing into the subquery inputs first.
func (n *Normalizer) unnest(t *algebra.Tree) (*algebra.Tree, error) {
	children := make([]*algebra.Tree, len(t.Children))
	for i, c := range t.Children {
		nc, err := n.unnest(c)
		if err != nil {
			return nil, err
		}
		children[i] = nc
	}
	t = algebra.NewTree(t.Op, children...)

	sel, ok := t.Op.(*algebra.Select)
	if !ok {
		// Subqueries are only supported in filters (WHERE/HAVING).
		for _, s := range algebra.OperatorScalars(t.Op) {
			if algebra.HasSubquery(s) {
				return nil, fmt.Errorf("normalize: subquery in %s is not supported", t.Op.OpName())
			}
		}
		return t, nil
	}

	input := t.Children[0]
	var residual []algebra.Scalar
	for _, conj := range algebra.Conjuncts(sel.Filter) {
		if !algebra.HasSubquery(conj) {
			residual = append(residual, conj)
			continue
		}
		var err error
		input, err = n.applySubqueryConjunct(input, conj)
		if err != nil {
			return nil, err
		}
	}
	if len(residual) > 0 {
		return algebra.NewTree(&algebra.Select{Filter: algebra.AndAll(residual)}, input), nil
	}
	return input, nil
}

// applySubqueryConjunct rewrites one subquery-bearing conjunct over input,
// first unnesting any subqueries nested inside the subquery's own tree.
func (n *Normalizer) applySubqueryConjunct(input *algebra.Tree, conj algebra.Scalar) (*algebra.Tree, error) {
	var walkErr error
	conj = algebra.RewriteScalar(conj, func(x algebra.Scalar) algebra.Scalar {
		sq, ok := x.(*algebra.Subquery)
		if !ok || walkErr != nil {
			return nil
		}
		inner, err := n.unnest(sq.Input)
		if err != nil {
			walkErr = err
			return nil
		}
		return &algebra.Subquery{Kind: sq.Kind, Input: inner, Outer: sq.Outer, Negated: sq.Negated}
	})
	if walkErr != nil {
		return nil, walkErr
	}
	switch e := conj.(type) {
	case *algebra.Subquery:
		switch e.Kind {
		case algebra.SubqueryIn:
			return n.unnestIn(input, e)
		case algebra.SubqueryExists:
			return n.unnestExists(input, e)
		}
	case *algebra.Binary:
		// Comparison against a scalar subquery on either side.
		if sq, ok := e.R.(*algebra.Subquery); ok && sq.Kind == algebra.SubqueryScalar && !algebra.HasSubquery(e.L) {
			return n.unnestScalarCmp(input, e.Op, e.L, sq)
		}
		if sq, ok := e.L.(*algebra.Subquery); ok && sq.Kind == algebra.SubqueryScalar && !algebra.HasSubquery(e.R) {
			return n.unnestScalarCmp(input, e.Op.Flip(), e.R, sq)
		}
	case *algebra.Not:
		if sq, ok := e.E.(*algebra.Subquery); ok {
			flipped := &algebra.Subquery{Kind: sq.Kind, Input: sq.Input, Outer: sq.Outer, Negated: !sq.Negated}
			return n.applySubqueryConjunct(input, flipped)
		}
	}
	return nil, fmt.Errorf("normalize: unsupported subquery pattern in %s", conj.Fingerprint())
}

// unnestIn rewrites `outer [NOT] IN (SELECT col ...)`.
//
// Positive IN becomes an inner join against the de-duplicated subquery
// output (semi-join as join-on-distinct, which frees the memo to reorder
// it — the paper's Q20 plan depends on exactly this shape). NOT IN becomes
// an anti join; like SQL Server's trusted path, we assume non-null keys.
func (n *Normalizer) unnestIn(input *algebra.Tree, sq *algebra.Subquery) (*algebra.Tree, error) {
	sub, err := n.liftCorrelation(sq.Input)
	if err != nil {
		return nil, err
	}
	outCol := sub.tree.OutputCols()[0]
	eq := &algebra.Binary{Op: sqlparser.OpEq, L: sq.Outer, R: algebra.NewColRef(outCol)}
	cond := algebra.AndAll(append([]algebra.Scalar{eq}, sub.lifted...))

	if sq.Negated {
		return algebra.NewTree(&algebra.Join{Kind: algebra.JoinAnti, On: cond}, input, sub.tree), nil
	}
	inner := sub.tree
	if !isUniqueOn(inner, algebra.NewColSet(joinColsOf(cond, inner)...)) {
		// De-duplicate on every inner column referenced by the condition.
		keys := joinColsOf(cond, inner)
		if len(keys) == 0 {
			keys = []algebra.ColumnID{outCol.ID}
		}
		inner = algebra.NewTree(&algebra.GroupBy{Keys: keys}, inner)
	}
	return algebra.NewTree(&algebra.Join{Kind: algebra.JoinInner, On: cond}, input, inner), nil
}

// unnestExists rewrites `[NOT] EXISTS (SELECT ...)` into a semi/anti join
// with the lifted correlation predicates as the join condition.
func (n *Normalizer) unnestExists(input *algebra.Tree, sq *algebra.Subquery) (*algebra.Tree, error) {
	sub, err := n.liftCorrelation(sq.Input)
	if err != nil {
		return nil, err
	}
	cond := algebra.AndAll(sub.lifted)
	kind := algebra.JoinSemi
	if sq.Negated {
		kind = algebra.JoinAnti
	}
	if cond == nil {
		// Uncorrelated EXISTS: keep the semi join with a constant-true
		// condition; the executor treats it as "any row".
		cond = &algebra.Const{Val: types.NewBool(true)}
	}
	return algebra.NewTree(&algebra.Join{Kind: kind, On: cond}, input, sub.tree), nil
}

// unnestScalarCmp rewrites `outerExpr cmp (SELECT agg ...)`.
//
// The correlated form is the paper's Q20 SQ3: the subquery must be an
// aggregate; its correlated equality predicates become group-by keys and
// join predicates (magic decorrelation), and the comparison itself joins
// the aggregate output. The empty-group case is handled by inner-join
// semantics: a missing group yields no match, exactly as the SQL
// comparison against NULL/empty would.
func (n *Normalizer) unnestScalarCmp(input *algebra.Tree, op sqlparser.BinOp, outer algebra.Scalar, sq *algebra.Subquery) (*algebra.Tree, error) {
	if !op.IsComparison() {
		return nil, fmt.Errorf("normalize: scalar subquery under %s is not supported", op)
	}
	sub, err := n.decorrelateAggregate(sq.Input)
	if err != nil {
		return nil, err
	}
	outCol := sub.valueCol
	cmp := &algebra.Binary{Op: op, L: outer, R: algebra.NewColRef(outCol)}
	cond := algebra.AndAll(append(append([]algebra.Scalar{}, sub.lifted...), cmp))
	return algebra.NewTree(&algebra.Join{Kind: algebra.JoinInner, On: cond}, input, sub.tree), nil
}

// liftedSubquery is a subquery tree whose correlated predicates have been
// removed and returned for use as join conditions.
type liftedSubquery struct {
	tree   *algebra.Tree
	lifted []algebra.Scalar
}

// liftCorrelation removes correlated conjuncts (those referencing columns
// not produced inside the subquery) from the subquery's Select nodes and
// exposes the inner columns they mention through the root projection.
func (n *Normalizer) liftCorrelation(t *algebra.Tree) (*liftedSubquery, error) {
	free := algebra.FreeCols(t)
	if free.Len() == 0 {
		return &liftedSubquery{tree: t}, nil
	}
	var lifted []algebra.Scalar
	var strip func(node *algebra.Tree, underGroupBy bool) (*algebra.Tree, error)
	strip = func(node *algebra.Tree, underGroupBy bool) (*algebra.Tree, error) {
		children := make([]*algebra.Tree, len(node.Children))
		under := underGroupBy
		if _, ok := node.Op.(*algebra.GroupBy); ok {
			under = true
		}
		for i, c := range node.Children {
			nc, err := strip(c, under)
			if err != nil {
				return nil, err
			}
			children[i] = nc
		}
		node = algebra.NewTree(node.Op, children...)
		sel, ok := node.Op.(*algebra.Select)
		if !ok {
			// Correlations hiding anywhere else are unsupported.
			for _, s := range algebra.OperatorScalars(node.Op) {
				if algebra.ScalarCols(s).Intersects(free) {
					return nil, fmt.Errorf("normalize: correlated column inside %s is not supported", node.Op.OpName())
				}
			}
			return node, nil
		}
		var keep []algebra.Scalar
		for _, conj := range algebra.Conjuncts(sel.Filter) {
			if !algebra.ScalarCols(conj).Intersects(free) {
				keep = append(keep, conj)
				continue
			}
			if underGroupBy {
				return nil, fmt.Errorf("normalize: correlated predicate below an aggregate requires decorrelation")
			}
			lifted = append(lifted, conj)
		}
		if len(keep) == 0 {
			return node.Children[0], nil
		}
		return algebra.NewTree(&algebra.Select{Filter: algebra.AndAll(keep)}, node.Children[0]), nil
	}
	stripped, err := strip(t, false)
	if err != nil {
		return nil, err
	}
	// Expose the inner columns mentioned by lifted predicates.
	var need algebra.ColSet
	for _, l := range lifted {
		algebra.ScalarCols(l).ForEach(func(id algebra.ColumnID) {
			if !free.Has(id) {
				need.Add(id)
			}
		})
	}
	exposed, err := exposeColumns(stripped, need)
	if err != nil {
		return nil, err
	}
	return &liftedSubquery{tree: exposed, lifted: lifted}, nil
}

// decorrelatedAgg is the result of rewriting a correlated aggregate
// subquery: tree computes group keys plus the aggregate value.
type decorrelatedAgg struct {
	tree     *algebra.Tree
	valueCol algebra.ColumnMeta
	lifted   []algebra.Scalar // equality predicates joining keys to outer cols
}

// decorrelateAggregate rewrites a scalar aggregate subquery (correlated or
// not) into a grouped relation.
func (n *Normalizer) decorrelateAggregate(t *algebra.Tree) (*decorrelatedAgg, error) {
	free := algebra.FreeCols(t)

	// Expected shape: Project? over GroupBy(keys=[]) over input.
	proj, hasProj := t.Op.(*algebra.Project)
	gbNode := t
	if hasProj {
		gbNode = t.Children[0]
	}
	gb, ok := gbNode.Op.(*algebra.GroupBy)
	if !ok || len(gb.Keys) != 0 {
		return nil, fmt.Errorf("normalize: scalar subquery must be a scalar aggregate")
	}
	inner := gbNode.Children[0]

	if free.Len() == 0 {
		valueCol := t.OutputCols()[0]
		return &decorrelatedAgg{tree: t, valueCol: valueCol}, nil
	}

	// Strip correlated conjuncts below the GroupBy. Each must be an
	// equality between an inner column and an outer column.
	var keyPairs [][2]algebra.ColumnID // [inner, outer]
	var innerMeta []algebra.ColumnMeta
	var strip func(node *algebra.Tree) (*algebra.Tree, error)
	strip = func(node *algebra.Tree) (*algebra.Tree, error) {
		children := make([]*algebra.Tree, len(node.Children))
		for i, c := range node.Children {
			nc, err := strip(c)
			if err != nil {
				return nil, err
			}
			children[i] = nc
		}
		node = algebra.NewTree(node.Op, children...)
		sel, ok := node.Op.(*algebra.Select)
		if !ok {
			for _, s := range algebra.OperatorScalars(node.Op) {
				if algebra.ScalarCols(s).Intersects(free) {
					return nil, fmt.Errorf("normalize: correlated column inside %s is not supported", node.Op.OpName())
				}
			}
			return node, nil
		}
		var keep []algebra.Scalar
		for _, conj := range algebra.Conjuncts(sel.Filter) {
			cols := algebra.ScalarCols(conj)
			if !cols.Intersects(free) {
				keep = append(keep, conj)
				continue
			}
			l, r, ok := algebra.EquiJoinSides(conj)
			if !ok {
				return nil, fmt.Errorf("normalize: correlated predicate %s must be a column equality", conj.Fingerprint())
			}
			innerID, outerID := l, r
			if free.Has(innerID) {
				innerID, outerID = r, l
			}
			if free.Has(innerID) || !free.Has(outerID) {
				return nil, fmt.Errorf("normalize: correlated predicate %s must join inner to outer", conj.Fingerprint())
			}
			keyPairs = append(keyPairs, [2]algebra.ColumnID{innerID, outerID})
			innerMeta = append(innerMeta, findColMeta(node.Children[0], innerID))
		}
		if len(keep) == 0 {
			return node.Children[0], nil
		}
		return algebra.NewTree(&algebra.Select{Filter: algebra.AndAll(keep)}, node.Children[0]), nil
	}
	strippedInner, err := strip(inner)
	if err != nil {
		return nil, err
	}
	if len(keyPairs) == 0 {
		return nil, fmt.Errorf("normalize: correlated aggregate with no correlation keys")
	}

	// Rebuild the GroupBy with the correlation columns as keys.
	keys := make([]algebra.ColumnID, 0, len(keyPairs))
	seen := algebra.NewColSet()
	for _, kp := range keyPairs {
		if !seen.Has(kp[0]) {
			seen.Add(kp[0])
			keys = append(keys, kp[0])
		}
	}
	newGB := algebra.NewTree(&algebra.GroupBy{Keys: keys, Aggs: gb.Aggs}, strippedInner)

	// Rebuild the projection: keep the aggregate value expression and pass
	// the key columns through.
	tree := newGB
	var valueCol algebra.ColumnMeta
	if hasProj {
		defs := make([]algebra.ProjDef, 0, len(proj.Defs)+len(keys))
		defs = append(defs, proj.Defs...)
		for i, k := range keys {
			defs = append(defs, algebra.ProjDef{Expr: algebra.NewColRef(metaFor(innerMeta, i, k)), ID: k, Name: metaFor(innerMeta, i, k).Name})
		}
		tree = algebra.NewTree(&algebra.Project{Defs: defs}, newGB)
		valueCol = tree.OutputCols()[0]
	} else {
		valueCol = newGB.OutputCols()[len(keys)]
	}

	lifted := make([]algebra.Scalar, len(keyPairs))
	for i, kp := range keyPairs {
		lifted[i] = &algebra.Binary{
			Op: sqlparser.OpEq,
			L:  algebra.NewColRef(metaFor(innerMeta, i, kp[0])),
			R:  algebra.NewColRef(algebra.ColumnMeta{ID: kp[1], Name: fmt.Sprintf("c%d", kp[1])}),
		}
	}
	return &decorrelatedAgg{tree: tree, valueCol: valueCol, lifted: lifted}, nil
}

// metaFor returns recorded metadata for a key column, defaulting sanely.
func metaFor(meta []algebra.ColumnMeta, i int, id algebra.ColumnID) algebra.ColumnMeta {
	if i < len(meta) && meta[i].ID == id {
		return meta[i]
	}
	for _, m := range meta {
		if m.ID == id {
			return m
		}
	}
	return algebra.ColumnMeta{ID: id, Name: fmt.Sprintf("c%d", id)}
}

// findColMeta locates column metadata by ID in a subtree's outputs.
func findColMeta(t *algebra.Tree, id algebra.ColumnID) algebra.ColumnMeta {
	for _, c := range t.OutputCols() {
		if c.ID == id {
			return c
		}
	}
	return algebra.ColumnMeta{ID: id, Name: fmt.Sprintf("c%d", id)}
}

// exposeColumns ensures the tree's output includes the given columns,
// extending root projections as needed.
func exposeColumns(t *algebra.Tree, need algebra.ColSet) (*algebra.Tree, error) {
	var missing algebra.ColSet
	out := t.OutputColSet()
	need.ForEach(func(id algebra.ColumnID) {
		if !out.Has(id) {
			missing.Add(id)
		}
	})
	if missing.Len() == 0 {
		return t, nil
	}
	switch op := t.Op.(type) {
	case *algebra.Project:
		in := t.Children[0].OutputColSet()
		if !missing.SubsetOf(in) {
			child, err := exposeColumns(t.Children[0], missing)
			if err != nil {
				return nil, err
			}
			t = algebra.NewTree(op, child)
			in = t.Children[0].OutputColSet()
			if !missing.SubsetOf(in) {
				return nil, fmt.Errorf("normalize: cannot expose correlated columns through projection")
			}
		}
		defs := append([]algebra.ProjDef{}, op.Defs...)
		for _, id := range missing.Sorted() {
			m := findColMeta(t.Children[0], id)
			defs = append(defs, algebra.ProjDef{Expr: algebra.NewColRef(m), ID: id, Name: m.Name})
		}
		return algebra.NewTree(&algebra.Project{Defs: defs}, t.Children[0]), nil
	case *algebra.Select, *algebra.Sort:
		child, err := exposeColumns(t.Children[0], need)
		if err != nil {
			return nil, err
		}
		return algebra.NewTree(t.Op, child), nil
	default:
		return nil, fmt.Errorf("normalize: cannot expose correlated columns through %s", t.Op.OpName())
	}
}

// joinColsOf returns the inner-side columns referenced by a join condition.
func joinColsOf(cond algebra.Scalar, inner *algebra.Tree) []algebra.ColumnID {
	return algebra.ScalarCols(cond).Intersect(inner.OutputColSet()).Sorted()
}

// isUniqueOn reports whether the tree provably yields at most one row per
// combination of the given columns: group-by keys and primary keys qualify.
func isUniqueOn(t *algebra.Tree, cols algebra.ColSet) bool {
	if cols.Len() == 0 {
		return false
	}
	switch op := t.Op.(type) {
	case *algebra.GroupBy:
		keys := algebra.NewColSet(op.Keys...)
		return keys.SubsetOf(cols)
	case *algebra.Get:
		if len(op.Table.PrimaryKey) == 0 {
			return false
		}
		pk := algebra.NewColSet()
		for _, name := range op.Table.PrimaryKey {
			for _, c := range op.Cols {
				if c.Name == name {
					pk.Add(c.ID)
				}
			}
		}
		return pk.Len() > 0 && pk.SubsetOf(cols)
	case *algebra.Select:
		return isUniqueOn(t.Children[0], cols)
	case *algebra.Sort:
		return isUniqueOn(t.Children[0], cols)
	case *algebra.Project:
		// Unique through pass-through projections.
		var passthru algebra.ColSet
		for _, d := range op.Defs {
			if c, ok := d.Expr.(*algebra.ColRef); ok {
				passthru.Add(c.ID)
			}
		}
		return isUniqueOn(t.Children[0], cols.Intersect(passthru))
	}
	return false
}
