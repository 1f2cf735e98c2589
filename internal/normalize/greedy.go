package normalize

import (
	"strings"

	"pdwqo/internal/algebra"
	"pdwqo/internal/catalog"
	"pdwqo/internal/sqlparser"
	"pdwqo/internal/stats"
	"pdwqo/internal/types"
)

// GreedyJoinOrder rewrites every maximal inner-join region of the tree
// into a fixed greedy join order. It is the one join-order heuristic on the
// SQL-Server side, used two ways: as the §3.1 seed ("we seed the MEMO with
// execution plans that consider distribution information of tables") that
// memo.InsertSeed places beside the normalized plan, and as the whole plan
// of the large-join fallback regime the optimizer switches to when its
// enumeration budget trips ("Efficient Massively Parallel Join
// Optimization for Large Queries" keeps one heuristic for the same two
// jobs: the DP's starting point and its fallback).
//
// The heuristic is cheapest-feasible-edge: grow one join component,
// always attaching the factor reachable over a predicate edge whose join
// moves the fewest estimated DMS bytes (zero for collocated or
// replicated pairs), breaking ties by the containment-estimated result
// size and then by input order for determinism. Movement leads the
// ordering so the collocated core of the query joins — and shrinks —
// first, and move-forcing factors attach when the component is already
// small. A cross join is emitted only when no predicate edge connects
// the current component to any remaining factor — so connected join
// graphs never cross-join.
//
// Only maximal regions are rebuilt: rebuilding an inner sub-region first
// would cap it with a projection that fragments the enclosing region and
// blocks the memo's join reordering across it. The rewrite fixes only the
// join *order*: the PDW-side enumerator still runs over the resulting memo
// and inserts movement enforcers, so the plan stays collocation-correct
// and planverify-clean.
func GreedyJoinOrder(t *algebra.Tree) *algebra.Tree {
	if isRegionRoot(t) {
		factors, conjs := disassembleRegion(t)
		if len(factors) >= 2 {
			for i := range factors {
				factors[i] = greedyChildren(factors[i])
			}
			// Re-running pushdown restores single-table filters to their
			// scans and splits join conditions, so the rebuilt tree is as
			// normalized as the original — only the join order differs.
			return pushdown(greedyRegion(factors, conjs, t.OutputCols()))
		}
	}
	return greedyChildren(t)
}

// greedyChildren recurses into a non-region node's children.
func greedyChildren(t *algebra.Tree) *algebra.Tree {
	if len(t.Children) == 0 {
		return t
	}
	children := make([]*algebra.Tree, len(t.Children))
	for i, c := range t.Children {
		children[i] = GreedyJoinOrder(c)
	}
	return algebra.NewTree(t.Op, children...)
}

// disassembleRegion splits a contiguous inner-join/select region into its
// leaf factors and the pooled conjuncts.
func disassembleRegion(t *algebra.Tree) ([]*algebra.Tree, []algebra.Scalar) {
	var factors []*algebra.Tree
	var conjs []algebra.Scalar
	var walk func(n *algebra.Tree)
	walk = func(n *algebra.Tree) {
		switch op := n.Op.(type) {
		case *algebra.Select:
			conjs = append(conjs, algebra.Conjuncts(op.Filter)...)
			walk(n.Children[0])
			return
		case *algebra.Join:
			if op.Kind == algebra.JoinInner || op.Kind == algebra.JoinCross {
				conjs = append(conjs, algebra.Conjuncts(op.On)...)
				walk(n.Children[0])
				walk(n.Children[1])
				return
			}
		}
		factors = append(factors, n)
	}
	walk(t)
	return factors, conjs
}

// factorDist approximates the natural placement of a factor: the hash
// columns it is (or stays) distributed on, or replicated.
type factorDist struct {
	replicated bool
	cols       algebra.ColSet
}

func distOf(t *algebra.Tree) factorDist {
	switch op := t.Op.(type) {
	case *algebra.Get:
		if op.Table.Dist.Kind == catalog.DistReplicated {
			return factorDist{replicated: true}
		}
		cols := algebra.NewColSet()
		for _, c := range op.Cols {
			if strings.EqualFold(c.Name, op.Table.Dist.Column) {
				cols.Add(c.ID)
			}
		}
		return factorDist{cols: cols}
	case *algebra.Select, *algebra.Sort:
		return distOf(t.Children[0])
	case *algebra.Project:
		in := distOf(t.Children[0])
		if in.replicated {
			return in
		}
		out := algebra.NewColSet()
		for _, d := range op.Defs {
			if c, ok := d.Expr.(*algebra.ColRef); ok && in.cols.Has(c.ID) {
				out.Add(d.ID)
			}
		}
		return factorDist{cols: out}
	case *algebra.GroupBy:
		in := distOf(t.Children[0])
		if in.replicated {
			return in
		}
		keys := algebra.NewColSet(op.Keys...)
		out := algebra.NewColSet()
		for id := range in.cols {
			if keys.Has(id) {
				out.Add(id)
			}
		}
		return factorDist{cols: out}
	case *algebra.Values:
		return factorDist{replicated: true}
	default:
		return factorDist{cols: algebra.NewColSet()}
	}
}

// sizeOf estimates a factor's cardinality from shell statistics (filters
// ignored here; greedyRegion applies single-factor selectivity itself).
func sizeOf(t *algebra.Tree) float64 {
	switch op := t.Op.(type) {
	case *algebra.Get:
		if r := op.Table.RowCount(); r > 0 {
			return r
		}
		return 1000
	case *algebra.Values:
		return float64(len(op.Rows)) + 1
	}
	if len(t.Children) > 0 {
		m := 0.0
		for _, c := range t.Children {
			if s := sizeOf(c); s > m {
				m = s
			}
		}
		return m
	}
	return 1000
}

// gconj is one pooled conjunct with its column footprint and equi-join
// sides pre-extracted, so the O(factors²) pair scans below never re-parse
// scalars (a 100-relation clique pools ~5000 conjuncts).
type gconj struct {
	sc   algebra.Scalar
	cols algebra.ColSet
	l, r algebra.ColumnID
	equi bool
}

// gitem is one join component under construction.
type gitem struct {
	tree  *algebra.Tree
	dist  factorDist
	cols  algebra.ColSet
	size  float64 // estimated rows
	width float64 // estimated row bytes
	ndv   map[algebra.ColumnID]float64
	hist  map[algebra.ColumnID]*stats.Column
	id    int // stable identity for pair-facts keying
}

// widthOfFactor estimates a factor's row width from its output column
// types — enough fidelity for a DMS-byte tie-break.
func widthOfFactor(t *algebra.Tree) float64 {
	w := 0.0
	for _, c := range t.OutputCols() {
		w += float64(c.Type.Width())
	}
	return w
}

// ndvOfFactor collects per-column distinct counts and base statistics
// from the factor's base tables, feeding the containment join-size
// estimate and the filter-selectivity estimate. Columns without
// statistics are simply absent (treated as non-reducing) — the greedy
// order degrades, never breaks.
func ndvOfFactor(t *algebra.Tree, ndv map[algebra.ColumnID]float64, hist map[algebra.ColumnID]*stats.Column) {
	if g, ok := t.Op.(*algebra.Get); ok {
		for _, c := range g.Cols {
			if cs := g.Table.Stats.Column(c.Name); cs != nil {
				hist[c.ID] = cs
				if cs.NDV > 0 {
					ndv[c.ID] = cs.NDV
				}
			}
		}
	}
	for _, c := range t.Children {
		ndvOfFactor(c, ndv, hist)
	}
}

// condSelectivity mirrors the memo estimator for the `col op const`
// comparison shape single-factor conjuncts take, using the base column's
// histogram; any other shape gets the System R range default.
func condSelectivity(sc algebra.Scalar, hist map[algebra.ColumnID]*stats.Column) float64 {
	bin, ok := sc.(*algebra.Binary)
	if !ok || !bin.Op.IsComparison() {
		return stats.DefaultRangeSel
	}
	col, okc := bin.L.(*algebra.ColRef)
	k, okk := bin.R.(*algebra.Const)
	op := bin.Op
	if !okc || !okk {
		col, okc = bin.R.(*algebra.ColRef)
		k, okk = bin.L.(*algebra.Const)
		op = op.Flip()
		if !okc || !okk {
			return stats.DefaultRangeSel
		}
	}
	cs := hist[col.ID]
	if cs == nil || k.Val.IsNull() {
		return stats.DefaultRangeSel
	}
	switch op {
	case sqlparser.OpEq:
		return cs.SelectivityEq(k.Val)
	case sqlparser.OpLt:
		return cs.SelectivityRange(types.Null, k.Val, false, false)
	case sqlparser.OpLe:
		return cs.SelectivityRange(types.Null, k.Val, false, true)
	case sqlparser.OpGt:
		return cs.SelectivityRange(k.Val, types.Null, false, false)
	case sqlparser.OpGe:
		return cs.SelectivityRange(k.Val, types.Null, true, false)
	}
	return stats.DefaultRangeSel
}

// greedyRegion rebuilds one join region under the cheapest-feasible-edge
// policy described on GreedyJoinOrder.
func greedyRegion(factors []*algebra.Tree, conjs []algebra.Scalar, want []algebra.ColumnMeta) *algebra.Tree {
	pending := make([]gconj, 0, len(conjs))
	for _, c := range conjs {
		gc := gconj{sc: c, cols: algebra.ScalarCols(c)}
		gc.l, gc.r, gc.equi = algebra.EquiJoinSides(c)
		pending = append(pending, gc)
	}

	items := make([]*gitem, len(factors))
	for i, f := range factors {
		ndv := map[algebra.ColumnID]float64{}
		hist := map[algebra.ColumnID]*stats.Column{}
		ndvOfFactor(f, ndv, hist)
		items[i] = &gitem{
			tree: f, dist: distOf(f), cols: f.OutputColSet(),
			size: sizeOf(f), width: widthOfFactor(f), ndv: ndv, hist: hist,
		}
	}

	// takeConds removes and returns every pending conjunct fully covered
	// by the column set.
	takeConds := func(cols algebra.ColSet) []algebra.Scalar {
		var out []algebra.Scalar
		rest := pending[:0]
		for _, c := range pending {
			if c.cols.SubsetOf(cols) {
				out = append(out, c.sc)
			} else {
				rest = append(rest, c)
			}
		}
		pending = rest
		return out
	}

	// Single-factor predicates go straight back onto their factors so
	// selectivity applies before any join — both in the tree and in the
	// size estimate, so a heavily filtered factor competes as the small
	// input it really is.
	for _, it := range items {
		if conds := takeConds(it.cols); len(conds) > 0 {
			it.tree = algebra.NewTree(&algebra.Select{Filter: algebra.AndAll(conds)}, it.tree)
			sel := 1.0
			for _, sc := range conds {
				sel *= condSelectivity(sc, it.hist)
			}
			filtered := it.size * sel
			if filtered < 1 {
				filtered = 1
			}
			for id, n := range it.ndv {
				it.ndv[id] = stats.DistinctAfterFilter(n, it.size, filtered)
			}
			it.size = filtered
		}
	}

	// pairFacts aggregates, for one unordered pair of components,
	// everything the pick below needs: whether a predicate edge connects
	// them, the containment selectivity of the pair's equi edges (the
	// memo estimator's |A|·|B|/max(NDV) formula), and whether an equi
	// edge already collocates the two distributions.
	type pairFacts struct {
		edge   bool
		sel    float64
		colloc bool
	}
	noFacts := pairFacts{sel: 1}

	// Probing each candidate pair used to rescan every pending conjunct —
	// O(pairs × conjuncts), the dominant cost on a 100-relation clique
	// (~5000 pooled conjuncts). classify instead walks pending once per
	// merge: each conjunct knows the components owning its columns, so
	// one pass aggregates the facts for every connected pair.
	owner := map[algebra.ColumnID]*gitem{}
	for _, it := range items {
		for id := range it.cols {
			owner[id] = it
		}
	}
	nextID := len(items)
	for i, it := range items {
		it.id = i
	}
	pkey := func(a, b *gitem) [2]int {
		if a.id < b.id {
			return [2]int{a.id, b.id}
		}
		return [2]int{b.id, a.id}
	}
	pairs := map[[2]int]*pairFacts{}
	classify := func() {
		pairs = make(map[[2]int]*pairFacts, len(pending))
		for _, c := range pending {
			var a, b *gitem
			spans2 := true
			for id := range c.cols {
				switch o := owner[id]; {
				case o == nil:
					spans2 = false
				case a == nil || a == o:
					a = o
				case b == nil || b == o:
					b = o
				default:
					spans2 = false // three components; not an edge yet
				}
				if !spans2 {
					break
				}
			}
			if !spans2 || b == nil {
				continue
			}
			pf := pairs[pkey(a, b)]
			if pf == nil {
				pf = &pairFacts{sel: 1}
				pairs[pkey(a, b)] = pf
			}
			pf.edge = true
			if !c.equi {
				continue
			}
			lo, ro := owner[c.l], owner[c.r]
			if lo == nil || ro == nil || lo == ro {
				continue // single-sided (residual) equality: not a join edge
			}
			d := lo.ndv[c.l]
			if n := ro.ndv[c.r]; n > d {
				d = n
			}
			if d > 1 {
				pf.sel /= d
			}
			if lo.dist.cols.Has(c.l) && ro.dist.cols.Has(c.r) {
				pf.colloc = true
			}
		}
	}
	facts := func(a, b *gitem) pairFacts {
		if pf := pairs[pkey(a, b)]; pf != nil {
			return *pf
		}
		return noFacts
	}

	// joinSize estimates the joined result from the pair's containment
	// selectivity. In the corpus's key/foreign-key regime this reduces to
	// "the referencing side's rows"; on selective clique edges it
	// correctly predicts the shrink that max(a,b) would hide.
	joinSize := func(a, b *gitem, pf pairFacts) float64 {
		sz := a.size * b.size * pf.sel
		if sz < 1 {
			return 1
		}
		return sz
	}

	// moveBytes estimates the DMS bytes a join of the two components
	// forces: zero when either side is replicated or the pair is
	// collocated on an equi edge, otherwise the smaller side's bytes
	// (it would be shuffled or broadcast).
	moveBytes := func(a, b *gitem, pf pairFacts) float64 {
		if a.dist.replicated || b.dist.replicated || pf.colloc {
			return 0
		}
		if a.size*a.width < b.size*b.width {
			return a.size * a.width
		}
		return b.size * b.width
	}

	join := func(a, b *gitem) *gitem {
		size := joinSize(a, b, facts(a, b)) // before takeConds drains the edges it reads
		cols := algebra.NewColSet()
		cols.AddSet(a.cols)
		cols.AddSet(b.cols)
		conds := takeConds(cols)
		kind := algebra.JoinInner
		if len(conds) == 0 {
			kind = algebra.JoinCross
		}
		tree := algebra.NewTree(&algebra.Join{Kind: kind, On: algebra.AndAll(conds)}, a.tree, b.tree)
		var d factorDist
		switch {
		case a.dist.replicated && b.dist.replicated:
			d = factorDist{replicated: true}
		case a.dist.replicated:
			d = b.dist
		case b.dist.replicated:
			d = a.dist
		default:
			merged := algebra.NewColSet()
			merged.AddSet(a.dist.cols)
			merged.AddSet(b.dist.cols)
			d = factorDist{cols: merged}
		}
		ndv := make(map[algebra.ColumnID]float64, len(a.ndv)+len(b.ndv))
		for id, n := range a.ndv {
			ndv[id] = stats.DistinctAfterFilter(n, a.size, size)
		}
		for id, n := range b.ndv {
			ndv[id] = stats.DistinctAfterFilter(n, b.size, size)
		}
		merged := &gitem{tree: tree, dist: d, cols: cols, size: size, width: a.width + b.width, ndv: ndv, id: nextID}
		nextID++
		for id := range cols {
			owner[id] = merged
		}
		classify() // pending and ownership changed; refresh pair facts
		return merged
	}

	// better orders candidate joins lexicographically by (move bytes,
	// result size): free joins — a replicated input or a collocated equi
	// pair — come first, smallest result breaking ties. Joining the
	// collocated core first shrinks the component while movement is still
	// free; by the time a move-forcing factor must attach, the component
	// is small and the enforcer ships almost nothing (the shape the
	// exhaustive enumerator finds on clique corpora).
	better := func(mv, sz, bestMove, bestSize float64) bool {
		return mv < bestMove || (mv == bestMove && sz < bestSize)
	}

	// Seed with the globally cheapest feasible edge (falling back to the
	// cheapest pair when the region has no predicate edges at all), then
	// grow the component one cheapest feasible attachment at a time.
	classify()
	pick := func(cands [][2]int) (int, int) {
		bi, bj := -1, -1
		bestSize, bestMove := 0.0, 0.0
		for _, p := range cands {
			a, b := items[p[0]], items[p[1]]
			pf := facts(a, b)
			sz, mv := joinSize(a, b, pf), moveBytes(a, b, pf)
			if bi < 0 || better(mv, sz, bestMove, bestSize) {
				bi, bj, bestSize, bestMove = p[0], p[1], sz, mv
			}
		}
		return bi, bj
	}
	var edged, all [][2]int
	for i := 0; i < len(items); i++ {
		for j := i + 1; j < len(items); j++ {
			all = append(all, [2]int{i, j})
			if facts(items[i], items[j]).edge {
				edged = append(edged, [2]int{i, j})
			}
		}
	}
	cands := edged
	if len(cands) == 0 {
		cands = all
	}
	bi, bj := pick(cands)

	cur := join(items[bi], items[bj])
	rest := make([]*gitem, 0, len(items)-2)
	for i, it := range items {
		if i != bi && i != bj {
			rest = append(rest, it)
		}
	}
	for len(rest) > 0 {
		best := -1
		bestSize, bestMove := 0.0, 0.0
		feasible := false
		for i, it := range rest {
			pf := facts(cur, it)
			if feasible && !pf.edge {
				continue
			}
			sz, mv := joinSize(cur, it, pf), moveBytes(cur, it, pf)
			if (pf.edge && !feasible) || best < 0 ||
				better(mv, sz, bestMove, bestSize) {
				best, bestSize, bestMove, feasible = i, sz, mv, pf.edge
			}
		}
		cur = join(cur, rest[best])
		rest = append(rest[:best], rest[best+1:]...)
	}
	out := cur.tree
	if len(pending) > 0 {
		var left []algebra.Scalar
		for _, c := range pending {
			left = append(left, c.sc)
		}
		out = algebra.NewTree(&algebra.Select{Filter: algebra.AndAll(left)}, out)
	}
	// The rebuild preserves the output column set but may reorder it;
	// parents reference columns positionally against `want`, so restore
	// that order with a projection when it differs.
	got := out.OutputCols()
	same := len(got) == len(want)
	if same {
		for i := range got {
			if got[i].ID != want[i].ID {
				same = false
				break
			}
		}
	}
	if !same {
		defs := make([]algebra.ProjDef, len(want))
		for i, c := range want {
			defs[i] = algebra.ProjDef{Expr: algebra.NewColRef(c), ID: c.ID, Name: c.Name}
		}
		out = algebra.NewTree(&algebra.Project{Defs: defs}, out)
	}
	return out
}
