package core

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"sync/atomic"

	"pdwqo/internal/algebra"
	"pdwqo/internal/catalog"
	"pdwqo/internal/cost"
	"pdwqo/internal/memoxml"
	"pdwqo/internal/trace"
)

// enumerateGroup implements Figure 4 steps 05–07 for one group: enumerate
// relational options over child options, apply cost-based pruning, run the
// enforcer step (inject data movements on interesting properties), and
// prune again.
func (o *Optimizer) enumerateGroup(g *pgroup, parent trace.SpanID) error {
	sp := o.config.Tracer.BeginUnder(parent, "group")
	sp.Int("id", int64(g.ID))
	defer sp.End()
	p := o.newPruner(g)
	for _, e := range g.exprs {
		if err := o.enumerateExpr(g, e, p); err != nil {
			sp.SetErr(err)
			return err
		}
	}
	if p.offered == 0 {
		err := fmt.Errorf("core: no feasible options for group %d", g.ID)
		sp.SetErr(err)
		return err
	}
	sp.Int("enumerated", int64(p.offered))
	opts := p.survivors()

	// Enforcer step (07): movement alternatives for every retained option.
	q := o.newPruner(g)
	for _, opt := range opts {
		q.offer(opt, opt)
	}
	for _, opt := range opts {
		o.enforce(g, opt, q)
	}
	g.opts = q.survivors()
	sp.Int("retained", int64(len(g.opts)))
	atomic.AddInt64(&o.retained, int64(len(g.opts)))
	return nil
}

// statsOf adapts group column stats for width computation.
func (g *pgroup) statsOf(id algebra.ColumnID) (memoxml.DecodedColStat, bool) {
	cs, ok := g.ColStats[id]
	return cs, ok
}

// relOption builds a relational option over inputs (nil-padded),
// accumulating their costs. Options are built as values, and a pruner
// copies to the heap only those it keeps (Option.heap).
func (o *Optimizer) relOption(op algebra.Operator, in [2]*Option, dist Distribution, rows float64, out []algebra.ColumnMeta, width float64) Option {
	opt := Option{Op: op, in: in, Dist: dist, Rows: rows, OutCols: out, Width: width}
	// Relational work tiebreaker: rows consumed. Replicated inputs are
	// processed on every node.
	work := 0.0
	for _, in := range in {
		if in == nil {
			continue
		}
		opt.DMSCost += in.DMSCost
		opt.TieCost += in.TieCost
		mult := 1.0
		if in.Dist.Kind == DistReplicated {
			mult = float64(o.model.Nodes)
		}
		work += in.Rows * mult
	}
	opt.TieCost += work*1e-3 + rows*1e-3
	atomic.AddInt64(&o.considered, 1)
	return opt
}

// moveOption wraps an option in a data movement.
func (o *Optimizer) moveOption(kind cost.MoveKind, col algebra.ColumnID, in *Option) Option {
	var dist Distribution
	switch kind {
	case cost.Shuffle, cost.Trim:
		dist = HashOn(col)
	case cost.Broadcast, cost.ControlNodeMove, cost.ReplicatedBroadcast:
		dist = Replicated()
	case cost.PartitionMove, cost.RemoteCopySingle:
		dist = Single()
	}
	atomic.AddInt64(&o.considered, 1)
	return Option{
		Move:    &MoveSpec{Kind: kind, Col: col},
		in:      [2]*Option{in},
		Dist:    dist,
		Rows:    in.Rows,
		Width:   in.Width,
		OutCols: in.OutCols,
		DMSCost: in.DMSCost + o.model.MoveCost(kind, in.Rows, in.Width),
		TieCost: in.TieCost,
	}
}

// heap returns a copy of opt on the heap, its Inputs the non-nil prefix of
// in.
func (opt *Option) heap() *Option {
	h := new(Option)
	*h = *opt
	n := 0
	for n < len(h.in) && h.in[n] != nil {
		n++
	}
	if n > 0 {
		h.Inputs = h.in[:n]
	}
	return h
}

// enforce offers the movement alternatives for one option (Figure 4 step
// 07). A group's interesting columns are all among its outputs (demand
// adds only those).
func (o *Optimizer) enforce(g *pgroup, opt *Option, p *pruner) {
	move := func(kind cost.MoveKind, col algebra.ColumnID) {
		m := o.moveOption(kind, col, opt)
		p.offer(&m, nil)
	}
	switch opt.Dist.Kind {
	case DistHash:
		g.interesting.ForEach(func(c algebra.ColumnID) {
			if !opt.Dist.Cols.Has(c) {
				move(cost.Shuffle, c)
			}
		})
		move(cost.Broadcast, 0)
		move(cost.PartitionMove, 0)
	case DistReplicated:
		g.interesting.ForEach(func(c algebra.ColumnID) { move(cost.Trim, c) })
		move(cost.RemoteCopySingle, 0)
	case DistSingle:
		move(cost.ControlNodeMove, 0)
	}
}

// pruner implements Figure 4 step 06.ii as options arrive: it keeps the
// overall best plus the best per interesting property (here: per
// interesting hash column, plus the replicated and single-node properties
// needed for feasibility). The classes are small integers — one per entry
// of g.hashClasses, then overall, replicated, single-node — and the
// survivors are taken in class order, which fixes the order of options
// tied on (cost, tie, placement) whatever the serial or parallel
// enumerator met first.
type pruner struct {
	hash    []algebra.ColumnID // the per-column classes; none without interesting retention
	best    []*Option
	offered int
}

func (o *Optimizer) newPruner(g *pgroup) *pruner {
	p := &pruner{hash: g.hashClasses}
	if o.config.DisableInterestingRetention {
		p.hash = nil
	}
	p.best = make([]*Option, len(p.hash)+3)
	return p
}

// offer makes cand the best of every class whose best it beats. A best
// gives way only to a strictly better option, so a candidate that wins
// nothing on arrival could never survive: cand is copied to the heap only
// at its first win, unless it is already there (built).
func (p *pruner) offer(cand, built *Option) {
	p.offered++
	kept := built
	win := func(class int) {
		if cur := p.best[class]; cur == nil || better(cand, cur) {
			if kept == nil {
				kept = cand.heap()
			}
			p.best[class] = kept
		}
	}
	h := len(p.hash)
	win(h)
	switch cand.Dist.Kind {
	case DistHash:
		for i, c := range p.hash {
			if cand.Dist.Cols.Has(c) {
				win(i)
			}
		}
	case DistReplicated:
		win(h + 1)
	case DistSingle:
		win(h + 2)
	}
}

// survivors returns each class's best once, in class order, then sorted.
func (p *pruner) survivors() []*Option {
	out := p.best[:0]
	for _, opt := range p.best {
		if opt != nil && !slices.Contains(out, opt) {
			out = append(out, opt)
		}
	}
	sortOptions(out)
	return out
}

// enumerateExpr offers the relational options of one logical expression.
func (o *Optimizer) enumerateExpr(g *pgroup, e pexpr, p *pruner) error {
	switch op := e.Op.(type) {
	case *algebra.Get:
		o.enumGet(g, op, p)
	case *algebra.Values:
		opt := o.relOption(op, [2]*Option{}, Replicated(), g.Rows, g.OutCols, widthOf(g.OutCols, g.statsOf))
		p.offer(&opt, nil)
	case *algebra.Select, *algebra.Sort, *algebra.Project:
		o.enumUnary(g, op, e, p)
	case *algebra.Join:
		o.enumJoin(g, op, e, p)
	case *algebra.GroupBy:
		o.enumGroupBy(g, op, e, p)
	case *algebra.UnionAll:
		o.enumUnion(g, op, e, p)
	default:
		return fmt.Errorf("core: cannot enumerate operator %T", e.Op)
	}
	return nil
}

// schemas memoizes one operator's output schema and width per pair of
// input schemas. Options of one group may list their columns in different
// orders, and the width is an order-sensitive float sum, so the key is the
// input schemas' contents, not the group. Equal inputs get the same output
// slice, and the options above see fewer distinct schemas in turn.
type schemas struct {
	op      algebra.Operator
	statsOf func(algebra.ColumnID) (memoxml.DecodedColStat, bool)
	seen    []schemaEntry
}

type schemaEntry struct {
	l, r, cols []algebra.ColumnMeta
	width      float64
}

// of returns op's output schema and its width over inputs l and r (r nil
// for a unary operator).
func (s *schemas) of(l, r []algebra.ColumnMeta) ([]algebra.ColumnMeta, float64) {
	for _, e := range s.seen {
		if sameCols(e.l, l) && sameCols(e.r, r) {
			return e.cols, e.width
		}
	}
	in := [][]algebra.ColumnMeta{l, r}
	if r == nil {
		in = in[:1]
	}
	cols := algebra.OutputColsFromSchemas(s.op, in)
	width := widthOf(cols, s.statsOf)
	s.seen = append(s.seen, schemaEntry{l: l, r: r, cols: cols, width: width})
	return cols, width
}

// sameCols reports whether two schemas list the same columns, trying
// identity before contents.
func sameCols(a, b []algebra.ColumnMeta) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0] || slices.Equal(a, b))
}

// enumGet yields the table's natural placement.
func (o *Optimizer) enumGet(g *pgroup, op *algebra.Get, p *pruner) {
	width := widthOf(g.OutCols, g.statsOf)
	dist := Replicated()
	if op.Table.Dist.Kind == catalog.DistHash {
		dist = Distribution{Kind: DistHash}
		for _, c := range op.Cols {
			if strings.EqualFold(c.Name, op.Table.Dist.Column) {
				dist.Cols.Add(c.ID)
			}
		}
	}
	opt := o.relOption(op, [2]*Option{}, dist, g.Rows, g.OutCols, width)
	p.offer(&opt, nil)
}

// enumUnary handles Select, Sort and Project: the child's placement carries
// over, restricted to the output and, through a projection, renamed along
// its pass-through defs.
func (o *Optimizer) enumUnary(g *pgroup, op algebra.Operator, e pexpr, p *pruner) {
	outSet, rename := g.outSet, map[algebra.ColumnID][]algebra.ColumnID(nil)
	if proj, ok := op.(*algebra.Project); ok {
		outSet, rename = algebra.ColSet{}, map[algebra.ColumnID][]algebra.ColumnID{}
		for _, d := range proj.Defs {
			outSet.Add(d.ID)
			if c, ok := d.Expr.(*algebra.ColRef); ok {
				rename[c.ID] = append(rename[c.ID], d.ID)
			}
		}
	}
	sc := &schemas{op: op, statsOf: g.statsOf}
	for _, co := range o.groups[e.Children[0]].opts {
		outCols, width := sc.of(co.OutCols, nil)
		opt := o.relOption(op, [2]*Option{co}, co.Dist.restrict(outSet, rename), g.Rows, outCols, width)
		p.offer(&opt, nil)
	}
}

// enumJoin pairs child options and keeps distribution-compatible ones.
func (o *Optimizer) enumJoin(g *pgroup, op *algebra.Join, e pexpr, p *pruner) {
	left := o.groups[e.Children[0]]
	right := o.groups[e.Children[1]]
	sc := &schemas{op: op, statsOf: g.statsOf}
	// The output column set is the expression's, not the pair's: every
	// option of a group has the group's columns.
	var outSet algebra.ColSet
	haveOut := false
	for _, lo := range left.opts {
		for _, ro := range right.opts {
			dist, ok := joinDist(op, e.equi, lo, ro)
			if !ok {
				continue
			}
			outCols, width := sc.of(lo.OutCols, ro.OutCols)
			if !haveOut {
				outSet, haveOut = algebra.ColSetOf(outCols), true
			}
			opt := o.relOption(op, [2]*Option{lo, ro}, dist.restrict(outSet, nil), g.Rows, outCols, width)
			p.offer(&opt, nil)
		}
	}
}

// joinDist decides whether two placements can join without movement and
// what the result placement is (the §2.4 "partition compatible" check).
// equi is the join condition's equi-pairs.
func joinDist(op *algebra.Join, equi [][2]algebra.ColumnID, lo, ro *Option) (Distribution, bool) {
	lk, rk := lo.Dist.Kind, ro.Dist.Kind
	switch {
	case lk == DistSingle && rk == DistSingle:
		return Single(), true
	case lk == DistSingle || rk == DistSingle:
		return Distribution{}, false

	case lk == DistReplicated && rk == DistReplicated:
		return Replicated(), true

	case lk == DistHash && rk == DistReplicated:
		// The replicated side is fully present on every node: valid for
		// every kind that preserves/probes the left side. FULL OUTER would
		// emit right-side null extensions on every node.
		if op.Kind == algebra.JoinFullOuter {
			return Distribution{}, false
		}
		cols := lo.Dist.Cols
		if op.Kind == algebra.JoinInner {
			cols = equated(cols, equi)
		}
		return Distribution{Kind: DistHash, Cols: cols}, true

	case lk == DistReplicated && rk == DistHash:
		// Only joins that emit each (left,right) pair at most once and
		// have no preserved/filtered left semantics tolerate a replicated
		// left over a partitioned right.
		if op.Kind != algebra.JoinInner && op.Kind != algebra.JoinCross {
			return Distribution{}, false
		}
		cols := ro.Dist.Cols
		if op.Kind == algebra.JoinInner {
			cols = equated(cols, equi)
		}
		return Distribution{Kind: DistHash, Cols: cols}, true

	default: // both hash-distributed
		if !collocated(equi, lo.Dist.Cols, ro.Dist.Cols) {
			return Distribution{}, false
		}
		cols := lo.Dist.Cols
		switch op.Kind {
		case algebra.JoinInner:
			cols = cols.Union(ro.Dist.Cols)
		case algebra.JoinCross:
			// Unreachable: cross joins have no equi conjuncts, so they
			// are never collocated.
		}
		return Distribution{Kind: DistHash, Cols: cols}, true
	}
}

// collocated reports whether an equi-pair pairs the two hash column
// classes.
func collocated(equi [][2]algebra.ColumnID, l, r algebra.ColSet) bool {
	for _, p := range equi {
		a, b := p[0], p[1]
		if (l.Has(a) && r.Has(b)) || (l.Has(b) && r.Has(a)) {
			return true
		}
	}
	return false
}

// equated extends a hash equivalence class with the columns the equi-pairs
// equate to it.
func equated(class algebra.ColSet, equi [][2]algebra.ColumnID) algebra.ColSet {
	out := class.Copy()
	for _, p := range equi {
		if class.Has(p[0]) {
			out.Add(p[1])
		}
		if class.Has(p[1]) {
			out.Add(p[0])
		}
	}
	return out
}

// enumGroupBy handles complete aggregation over compatible inputs plus the
// partial/final split (the paper's §4 "local-global transformation of the
// group by" and Figure 4 step 02's topology-aware partial-aggregate
// sizing). The split is enumerated as a cost-based alternative for every
// hash-distributed child option — not merely as a fallback when the
// complete shape is infeasible — and pruning keeps whichever moves fewer
// bytes.
func (o *Optimizer) enumGroupBy(g *pgroup, op *algebra.GroupBy, e pexpr, p *pruner) {
	child := o.groups[e.Children[0]]
	keySet := algebra.NewColSet(op.Keys...)
	sc := &schemas{op: op, statsOf: g.statsOf}

	for _, co := range child.opts {
		// Complete aggregation wherever the placement already brings every
		// row of each group to one node.
		if gbCompatible(keySet, co.Dist) {
			outCols, width := sc.of(co.OutCols, nil)
			opt := o.relOption(op, [2]*Option{co}, co.Dist.restrict(keySet, nil), g.Rows, outCols, width)
			p.offer(&opt, nil)
		}
		// Partial aggregation on each node, move the shrunken states, then
		// finalize. Only decomposable aggregates split (splitAggs guards
		// DISTINCT and unknown functions); replicated or single-node inputs
		// never benefit — their complete aggregation is movement-free.
		if co.Dist.Kind == DistHash && !o.config.DisableAggSplit {
			o.splitOptions(g, op, keySet, co, p)
		}
	}
}

// gbCompatible reports whether a complete GroupBy on keys is correct over
// the placement without movement: all rows of any group live on one node.
func gbCompatible(keys algebra.ColSet, d Distribution) bool {
	switch d.Kind {
	case DistSingle, DistReplicated:
		return true
	default:
		return d.Cols.Intersects(keys)
	}
}

// splitOptions offers PartialGB → move → FinalGB chains over one child
// option: per-node partial aggregation shrinks the stream before it moves,
// and the finalizing aggregation merges partial states after the movement.
// The partial states are minted columns; they appear in schemas only, and
// every placement here hashes on a group-by key.
func (o *Optimizer) splitOptions(g *pgroup, op *algebra.GroupBy, keySet algebra.ColSet, co *Option, p *pruner) {
	partialAggs, finalAggs, ok := splitAggs(g, op.Aggs)
	if !ok {
		return
	}
	n := float64(o.model.Nodes)
	if n < 1 {
		n = 1
	}

	// Partial output schema: keys (from child schema) + partial states.
	partialOp := &algebra.GroupBy{Keys: op.Keys, Aggs: partialAggs, Phase: algebra.AggPartial}
	partialCols := algebra.OutputColsFromSchemas(partialOp, [][]algebra.ColumnMeta{co.OutCols})

	// Figure 4 step 02: size the partial aggregate for the topology. Each
	// node sees rows/N input rows drawn from ~g.Rows global groups.
	var partialRows float64
	if len(op.Keys) == 0 {
		partialRows = n
	} else {
		partialRows = math.Min(n*expectedDistinct(g.Rows, co.Rows/n), co.Rows)
	}
	partialWidth := widthOf(partialCols, g.statsOf)
	partialDist := co.Dist.restrict(keySet, nil)
	pv := o.relOption(partialOp, [2]*Option{co}, partialDist, partialRows, partialCols, partialWidth)
	partial := pv.heap()

	finalOp := &algebra.GroupBy{Keys: op.Keys, Aggs: finalAggs, Phase: algebra.AggFinal}
	finalCols := algebra.OutputColsFromSchemas(finalOp, [][]algebra.ColumnMeta{partialCols})
	finalWidth := widthOf(finalCols, g.statsOf)

	final := func(kind cost.MoveKind, col algebra.ColumnID, dist Distribution) {
		mv := o.moveOption(kind, col, partial)
		opt := o.relOption(finalOp, [2]*Option{mv.heap()}, dist, g.Rows, finalCols, finalWidth)
		p.offer(&opt, nil)
	}
	if len(op.Keys) == 0 {
		final(cost.PartitionMove, 0, Single())
		return
	}
	for _, k := range op.Keys {
		final(cost.Shuffle, k, HashOn(k))
	}
}

// splitAggs rewrites complete aggregates into partial/final pairs with
// fresh state columns minted from the group's private range. The partial
// phase keeps each aggregate's own function (COUNT stays COUNT locally);
// the finalizing function merges the states: SUM and COUNT finalize as
// SUM over partial sums/counts, MIN/MAX as themselves. AVG never reaches
// here — the binder decomposes it into SUM/COUNT state up front.
// DISTINCT aggregates see each value once globally but possibly on many
// nodes, so they cannot split and keep the complete plan.
func splitAggs(g *pgroup, aggs []algebra.AggDef) (partial, final []algebra.AggDef, ok bool) {
	for _, a := range aggs {
		if a.Distinct {
			return nil, nil, false
		}
		pid := g.freshCol()
		p := algebra.AggDef{Func: a.Func, Arg: a.Arg, ID: pid, Name: fmt.Sprintf("partial%d", pid)}
		pref := algebra.NewColRef(algebra.ColumnMeta{ID: pid, Name: p.Name, Type: p.ResultType()})
		var f algebra.AggDef
		switch a.Func {
		case algebra.AggSum, algebra.AggCount:
			// COUNT → SUM of partial counts; SUM → SUM of partial sums.
			f = algebra.AggDef{Func: algebra.AggSum, Arg: pref, ID: a.ID, Name: a.Name}
		case algebra.AggMin:
			f = algebra.AggDef{Func: algebra.AggMin, Arg: pref, ID: a.ID, Name: a.Name}
		case algebra.AggMax:
			f = algebra.AggDef{Func: algebra.AggMax, Arg: pref, ID: a.ID, Name: a.Name}
		default:
			return nil, nil, false
		}
		partial = append(partial, p)
		final = append(final, f)
	}
	return partial, final, true
}

// enumUnion requires compatible placements; enforcers provide movement.
func (o *Optimizer) enumUnion(g *pgroup, op *algebra.UnionAll, e pexpr, p *pruner) {
	left := o.groups[e.Children[0]]
	right := o.groups[e.Children[1]]
	sc := &schemas{op: op, statsOf: g.statsOf}
	for _, lo := range left.opts {
		for _, ro := range right.opts {
			var dist Distribution
			switch {
			case lo.Dist.Kind == DistSingle && ro.Dist.Kind == DistSingle:
				dist = Single()
			case lo.Dist.Kind == DistReplicated && ro.Dist.Kind == DistReplicated:
				dist = Replicated()
			case lo.Dist.Kind == DistHash && ro.Dist.Kind == DistHash:
				shared := lo.Dist.Cols.Intersect(ro.Dist.Cols)
				if shared.Len() == 0 && lo.Dist.Cols.Len()+ro.Dist.Cols.Len() > 0 {
					continue
				}
				dist = Distribution{Kind: DistHash, Cols: shared}
			default:
				continue
			}
			outCols, width := sc.of(lo.OutCols, ro.OutCols)
			opt := o.relOption(op, [2]*Option{lo, ro}, dist, g.Rows, outCols, width)
			p.offer(&opt, nil)
		}
	}
}
