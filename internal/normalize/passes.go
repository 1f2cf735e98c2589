package normalize

import (
	"sort"

	"pdwqo/internal/algebra"
	"pdwqo/internal/sqlparser"
	"pdwqo/internal/types"
)

// --- Join transitivity closure (paper §4: "join transitivity closure
// detection ... allows the early filtering of lineitem, by joining it with
// part") ---

// transitivityClosure derives implied predicates once per maximal region
// of inner/cross joins and filters, at the region's root, over all of the
// region's conjuncts: column equalities close transitively (a=b ∧ b=c ⇒
// a=c; every pair of an equivalence class that is not yet equated is
// added) and constant restrictions propagate across equivalence classes
// (a=b ∧ a>5 ⇒ b>5). The new predicates widen the join orders the memo
// can produce and enable earlier filtering. They go into one filter over
// the region root, which Normalize's next pushdown places. Each of the
// region's factors — outer joins, group-bys, derived tables — gets its
// own closure. inRegion reports that t's parent belongs to a region,
// which t then extends.
func transitivityClosure(t *algebra.Tree, inRegion bool) *algebra.Tree {
	region := isRegionNode(t)
	children := make([]*algebra.Tree, len(t.Children))
	for i, c := range t.Children {
		children[i] = transitivityClosure(c, region)
	}
	t = algebra.NewTree(t.Op, children...)
	if !region || inRegion {
		return t
	}
	_, conjs := disassembleRegion(t)
	if len(conjs) < 2 {
		return t
	}
	// equated holds each equality as its (smaller, larger) column pair;
	// seen holds the other conjuncts and the restrictions added, by
	// fingerprint, so that nothing present is added again.
	uf := newUnionFind()
	equated := map[[2]algebra.ColumnID]bool{}
	seen := map[string]bool{}
	for _, c := range conjs {
		if l, r, ok := algebra.EquiJoinSides(c); ok {
			uf.union(l, r)
			equated[[2]algebra.ColumnID{min(l, r), max(l, r)}] = true
		} else {
			seen[c.Fingerprint()] = true
		}
	}

	var added []algebra.Scalar
	classes := uf.classes()
	for _, class := range classes {
		for i := 0; i < len(class); i++ {
			for j := i + 1; j < len(class); j++ {
				if !equated[[2]algebra.ColumnID{class[i], class[j]}] {
					added = append(added, &algebra.Binary{
						Op: sqlparser.OpEq,
						L:  algebra.NewColRef(algebra.ColumnMeta{ID: class[i]}),
						R:  algebra.NewColRef(algebra.ColumnMeta{ID: class[j]}),
					})
				}
			}
		}
	}
	// Propagate constant restrictions across classes. A class is keyed by
	// its union-find root, its smallest member.
	members := make(map[algebra.ColumnID][]algebra.ColumnID, len(classes))
	for _, class := range classes {
		members[class[0]] = class
	}
	for _, c := range conjs {
		col, rest, ok := constRestriction(c)
		if !ok {
			continue
		}
		for _, member := range members[uf.find(col)] {
			if member == col {
				continue
			}
			np := rest(member)
			if fp := np.Fingerprint(); !seen[fp] {
				seen[fp] = true
				added = append(added, np)
			}
		}
	}
	if len(added) == 0 {
		return t
	}
	return algebra.NewTree(&algebra.Select{Filter: algebra.AndAll(added)}, t)
}

// constRestriction recognizes `col cmp const`, `const cmp col` and
// col LIKE 'pattern', returning a constructor that re-targets the
// restriction onto another column of the same equivalence class.
func constRestriction(e algebra.Scalar) (algebra.ColumnID, func(algebra.ColumnID) algebra.Scalar, bool) {
	switch x := e.(type) {
	case *algebra.Binary:
		if !x.Op.IsComparison() {
			return 0, nil, false
		}
		if c, ok := x.L.(*algebra.ColRef); ok {
			if k, ok2 := x.R.(*algebra.Const); ok2 {
				// The copy must keep the constant's parameter slot: a
				// transitivity-derived restriction is implied by the original
				// one only while both carry the same literal, so a plan-cache
				// re-bind has to update them together.
				op, val, param := x.Op, k.Val, k.Param
				return c.ID, func(id algebra.ColumnID) algebra.Scalar {
					return &algebra.Binary{Op: op, L: algebra.NewColRef(algebra.ColumnMeta{ID: id, Type: val.Kind()}), R: &algebra.Const{Val: val, Param: param}}
				}, true
			}
		}
		if c, ok := x.R.(*algebra.ColRef); ok {
			if k, ok2 := x.L.(*algebra.Const); ok2 {
				op, val, param := x.Op.Flip(), k.Val, k.Param
				return c.ID, func(id algebra.ColumnID) algebra.Scalar {
					return &algebra.Binary{Op: op, L: algebra.NewColRef(algebra.ColumnMeta{ID: id, Type: val.Kind()}), R: &algebra.Const{Val: val, Param: param}}
				}, true
			}
		}
	case *algebra.Like:
		if c, ok := x.E.(*algebra.ColRef); ok && !x.Negated {
			pat := x.Pattern
			return c.ID, func(id algebra.ColumnID) algebra.Scalar {
				return &algebra.Like{E: algebra.NewColRef(algebra.ColumnMeta{ID: id, Type: types.KindString}), Pattern: pat}
			}, true
		}
	}
	return 0, nil, false
}

// isRegionNode reports whether t belongs to an inner-join region: it is a
// filter or an inner or cross join. Met from the top, the first such node
// is the root of its maximal region.
func isRegionNode(t *algebra.Tree) bool {
	switch op := t.Op.(type) {
	case *algebra.Select:
		return true
	case *algebra.Join:
		return op.Kind == algebra.JoinInner || op.Kind == algebra.JoinCross
	}
	return false
}

// unionFind over column IDs.
type unionFind struct {
	parent map[algebra.ColumnID]algebra.ColumnID
}

func newUnionFind() *unionFind {
	return &unionFind{parent: map[algebra.ColumnID]algebra.ColumnID{}}
}

func (u *unionFind) find(x algebra.ColumnID) algebra.ColumnID {
	p, ok := u.parent[x]
	if !ok {
		u.parent[x] = x
		return x
	}
	if p != x {
		r := u.find(p)
		u.parent[x] = r
		return r
	}
	return x
}

func (u *unionFind) union(a, b algebra.ColumnID) {
	ra, rb := u.find(a), u.find(b)
	if ra != rb {
		if ra > rb {
			ra, rb = rb, ra
		}
		u.parent[rb] = ra
	}
}

// classes returns every equivalence class with ≥2 members, sorted.
func (u *unionFind) classes() [][]algebra.ColumnID {
	byRoot := map[algebra.ColumnID][]algebra.ColumnID{}
	for x := range u.parent {
		r := u.find(x)
		byRoot[r] = append(byRoot[r], x)
	}
	var out [][]algebra.ColumnID
	for _, class := range byRoot {
		if len(class) < 2 {
			continue
		}
		sort.Slice(class, func(i, j int) bool { return class[i] < class[j] })
		out = append(out, class)
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}

// --- Contradiction detection (paper §5) ---

// detectContradictions replaces provably-empty subtrees with empty Values
// relations: constant-false filters and per-column range contradictions
// such as x > 10 AND x < 5.
func detectContradictions(t *algebra.Tree) *algebra.Tree {
	children := make([]*algebra.Tree, len(t.Children))
	for i, c := range t.Children {
		children[i] = detectContradictions(c)
	}
	t = algebra.NewTree(t.Op, children...)

	sel, ok := t.Op.(*algebra.Select)
	if !ok {
		return t
	}
	if isContradiction(sel.Filter) {
		return algebra.NewTree(&algebra.Values{Cols: t.OutputCols()})
	}
	return t
}

// isContradiction reports whether a conjunction can never be true.
func isContradiction(f algebra.Scalar) bool {
	type bound struct {
		lo, hi          types.Value
		loIncl, hiIncl  bool
		hasLo, hasHi    bool
		eq              types.Value
		hasEq, conflict bool
	}
	bounds := map[algebra.ColumnID]*bound{}
	get := func(id algebra.ColumnID) *bound {
		b, ok := bounds[id]
		if !ok {
			b = &bound{}
			bounds[id] = b
		}
		return b
	}
	for _, conj := range algebra.Conjuncts(f) {
		if c, ok := conj.(*algebra.Const); ok {
			if c.Val.IsNull() || (c.Val.Kind() == types.KindBool && !c.Val.Bool()) {
				return true
			}
			continue
		}
		bin, ok := conj.(*algebra.Binary)
		if !ok || !bin.Op.IsComparison() {
			continue
		}
		col, okc := bin.L.(*algebra.ColRef)
		k, okk := bin.R.(*algebra.Const)
		op := bin.Op
		if !okc || !okk {
			if col2, okc2 := bin.R.(*algebra.ColRef); okc2 {
				if k2, okk2 := bin.L.(*algebra.Const); okk2 {
					col, k, op = col2, k2, bin.Op.Flip()
					okc, okk = true, true
				}
			}
		}
		if !okc || !okk || k.Val.IsNull() {
			continue
		}
		b := get(col.ID)
		v := k.Val
		switch op {
		case sqlparser.OpEq:
			if b.hasEq && !types.Equal(b.eq, v) {
				b.conflict = true
			}
			b.eq, b.hasEq = v, true
		case sqlparser.OpGt, sqlparser.OpGe:
			incl := op == sqlparser.OpGe
			// Mixed-kind bounds (e.g. `c > 1 AND c > 'x'`) come straight
			// from user literals; keep the existing bound rather than
			// comparing incomparable values.
			if b.hasLo && !types.Comparable(v.Kind(), b.lo.Kind()) {
				continue
			}
			if !b.hasLo || types.Compare(v, b.lo) > 0 || (types.Compare(v, b.lo) == 0 && !incl) {
				b.lo, b.loIncl, b.hasLo = v, incl, true
			}
		case sqlparser.OpLt, sqlparser.OpLe:
			incl := op == sqlparser.OpLe
			if b.hasHi && !types.Comparable(v.Kind(), b.hi.Kind()) {
				continue
			}
			if !b.hasHi || types.Compare(v, b.hi) < 0 || (types.Compare(v, b.hi) == 0 && !incl) {
				b.hi, b.hiIncl, b.hasHi = v, incl, true
			}
		}
	}
	for _, b := range bounds {
		if b.conflict {
			return true
		}
		if b.hasEq {
			if b.hasLo && types.Comparable(b.eq.Kind(), b.lo.Kind()) &&
				(types.Compare(b.eq, b.lo) < 0 || (types.Compare(b.eq, b.lo) == 0 && !b.loIncl)) {
				return true
			}
			if b.hasHi && types.Comparable(b.eq.Kind(), b.hi.Kind()) &&
				(types.Compare(b.eq, b.hi) > 0 || (types.Compare(b.eq, b.hi) == 0 && !b.hiIncl)) {
				return true
			}
		}
		if b.hasLo && b.hasHi && types.Comparable(b.lo.Kind(), b.hi.Kind()) {
			c := types.Compare(b.lo, b.hi)
			if c > 0 || (c == 0 && (!b.loIncl || !b.hiIncl)) {
				return true
			}
		}
	}
	return false
}

// --- Redundant join elimination (paper §5) ---

// eliminateRedundantJoins removes provably-redundant self-joins: an inner
// join of two scans of the same table whose condition is exactly equality
// on the full primary key. The duplicate scan is dropped and its columns
// are remapped onto the surviving one.
func eliminateRedundantJoins(t *algebra.Tree) *algebra.Tree {
	children := make([]*algebra.Tree, len(t.Children))
	for i, c := range t.Children {
		children[i] = eliminateRedundantJoins(c)
	}
	t = algebra.NewTree(t.Op, children...)

	j, ok := t.Op.(*algebra.Join)
	if !ok || j.Kind != algebra.JoinInner {
		return t
	}
	lg, lok := t.Children[0].Op.(*algebra.Get)
	rg, rok := t.Children[1].Op.(*algebra.Get)
	if !lok || !rok || lg.Table != rg.Table || len(lg.Table.PrimaryKey) == 0 {
		return t
	}
	// The condition must be a conjunction of equalities pairing identical
	// columns of the two scans, covering the whole primary key.
	mapping := map[algebra.ColumnID]algebra.ColumnID{} // right ID → left ID
	pkCovered := map[string]bool{}
	for _, conj := range algebra.Conjuncts(j.On) {
		l, r, ok := algebra.EquiJoinSides(conj)
		if !ok {
			return t
		}
		li, ri := colOrdinal(lg, l), colOrdinal(rg, r)
		if li < 0 || ri < 0 {
			li, ri = colOrdinal(lg, r), colOrdinal(rg, l)
			l, r = r, l
		}
		if li < 0 || ri < 0 || li != ri {
			return t
		}
		mapping[r] = l
		pkCovered[lg.Table.Columns[li].Name] = true
	}
	for _, pk := range lg.Table.PrimaryKey {
		if !pkCovered[pk] {
			return t
		}
	}
	// Remap every right column onto the matching left column via a
	// projection so upstream references keep working.
	defs := make([]algebra.ProjDef, 0, len(lg.Cols)+len(rg.Cols))
	for _, c := range lg.Cols {
		defs = append(defs, algebra.ProjDef{Expr: algebra.NewColRef(c), ID: c.ID, Name: c.Name})
	}
	for i, c := range rg.Cols {
		src := lg.Cols[i]
		defs = append(defs, algebra.ProjDef{Expr: algebra.NewColRef(src), ID: c.ID, Name: c.Name})
	}
	return algebra.NewTree(&algebra.Project{Defs: defs}, t.Children[0])
}

func colOrdinal(g *algebra.Get, id algebra.ColumnID) int {
	for i, c := range g.Cols {
		if c.ID == id {
			return i
		}
	}
	return -1
}

// --- Column pruning ---

// pruneColumns removes unreferenced columns from Get scans, projections and
// aggregations. Narrow intermediate schemas matter doubly in PDW: the DMS
// cost model charges by bytes moved.
func pruneColumns(t *algebra.Tree) *algebra.Tree {
	return prune(t, t.OutputColSet())
}

func prune(t *algebra.Tree, required algebra.ColSet) *algebra.Tree {
	switch op := t.Op.(type) {
	case *algebra.Get:
		var cols []algebra.ColumnMeta
		for _, c := range op.Cols {
			if required.Has(c.ID) {
				cols = append(cols, c)
			}
		}
		if len(cols) == 0 {
			cols = op.Cols[:1]
		}
		if len(cols) == len(op.Cols) {
			return t
		}
		return algebra.NewTree(&algebra.Get{Table: op.Table, Alias: op.Alias, Cols: cols})

	case *algebra.Values:
		return t

	case *algebra.Select:
		need := required.Union(algebra.ScalarCols(op.Filter))
		return algebra.NewTree(op, prune(t.Children[0], need))

	case *algebra.Project:
		var defs []algebra.ProjDef
		var need algebra.ColSet
		for _, d := range op.Defs {
			if required.Has(d.ID) {
				defs = append(defs, d)
				need = need.Union(algebra.ScalarCols(d.Expr))
			}
		}
		if len(defs) == 0 {
			defs = op.Defs[:1]
			need = need.Union(algebra.ScalarCols(defs[0].Expr))
		}
		return algebra.NewTree(&algebra.Project{Defs: defs}, prune(t.Children[0], need))

	case *algebra.Join:
		need := required
		if op.On != nil {
			need = need.Union(algebra.ScalarCols(op.On))
		}
		left := prune(t.Children[0], need.Intersect(t.Children[0].OutputColSet()))
		right := prune(t.Children[1], need.Intersect(t.Children[1].OutputColSet()))
		return algebra.NewTree(op, left, right)

	case *algebra.GroupBy:
		var aggs []algebra.AggDef
		need := algebra.NewColSet(op.Keys...)
		for _, a := range op.Aggs {
			if required.Has(a.ID) {
				aggs = append(aggs, a)
				if a.Arg != nil {
					need = need.Union(algebra.ScalarCols(a.Arg))
				}
			}
		}
		return algebra.NewTree(&algebra.GroupBy{Keys: op.Keys, Aggs: aggs, Phase: op.Phase}, prune(t.Children[0], need))

	case *algebra.Sort:
		need := required.Copy()
		for _, k := range op.Keys {
			need.Add(k.ID)
		}
		return algebra.NewTree(op, prune(t.Children[0], need))

	case *algebra.UnionAll:
		return algebra.NewTree(op, prune(t.Children[0], required), prune(t.Children[1], required))

	default:
		return t
	}
}

// dropIdentityProjects removes projections that pass through exactly their
// input columns in order, except at the root (which fixes output names).
func dropIdentityProjects(t *algebra.Tree) *algebra.Tree {
	children := make([]*algebra.Tree, len(t.Children))
	for i, c := range t.Children {
		children[i] = dropInner(c)
	}
	return algebra.NewTree(t.Op, children...)
}

func dropInner(t *algebra.Tree) *algebra.Tree {
	children := make([]*algebra.Tree, len(t.Children))
	for i, c := range t.Children {
		children[i] = dropInner(c)
	}
	t = algebra.NewTree(t.Op, children...)
	p, ok := t.Op.(*algebra.Project)
	if !ok {
		return t
	}
	in := t.Children[0].OutputCols()
	if len(p.Defs) != len(in) {
		return t
	}
	for i, d := range p.Defs {
		c, ok := d.Expr.(*algebra.ColRef)
		if !ok || c.ID != in[i].ID || d.ID != in[i].ID {
			return t
		}
	}
	return t.Children[0]
}
