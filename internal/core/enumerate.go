package core

import (
	"fmt"
	"math"
	"sort"
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
	var opts []*Option
	for _, e := range g.exprs {
		es, err := o.enumerateExpr(g, e)
		if err != nil {
			sp.SetErr(err)
			return err
		}
		opts = append(opts, es...)
	}
	if len(opts) == 0 {
		err := fmt.Errorf("core: no feasible options for group %d", g.ID)
		sp.SetErr(err)
		return err
	}
	sp.Int("enumerated", int64(len(opts)))
	opts = o.pruneOptions(g, opts)

	// Enforcer step (07): movement alternatives for every retained option.
	enforced := append([]*Option{}, opts...)
	for _, opt := range opts {
		enforced = append(enforced, o.enforce(g, opt)...)
	}
	g.opts = o.pruneOptions(g, enforced)
	sp.Int("retained", int64(len(g.opts)))
	atomic.AddInt64(&o.retained, int64(len(g.opts)))
	return nil
}

// statsOf adapts group column stats for width computation.
func (g *pgroup) statsOf(id algebra.ColumnID) (memoxml.DecodedColStat, bool) {
	cs, ok := g.ColStats[id]
	return cs, ok
}

// newRelOption builds a relational option, accumulating input costs.
func (o *Optimizer) newRelOption(op algebra.Operator, inputs []*Option, dist Distribution, rows float64, out []algebra.ColumnMeta, width float64) *Option {
	opt := &Option{Op: op, Inputs: inputs, Dist: dist, Rows: rows, OutCols: out, Width: width}
	for _, in := range inputs {
		opt.DMSCost += in.DMSCost
		opt.TieCost += in.TieCost
	}
	// Relational work tiebreaker: rows consumed. Replicated inputs are
	// processed on every node.
	work := 0.0
	for _, in := range inputs {
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

// newMoveOption wraps an option in a data movement.
func (o *Optimizer) newMoveOption(kind cost.MoveKind, col algebra.ColumnID, in *Option) *Option {
	var dist Distribution
	switch kind {
	case cost.Shuffle, cost.Trim:
		dist = HashOn(col)
	case cost.Broadcast, cost.ControlNodeMove, cost.ReplicatedBroadcast:
		dist = Replicated()
	case cost.PartitionMove, cost.RemoteCopySingle:
		dist = Single()
	}
	opt := &Option{
		Move:    &MoveSpec{Kind: kind, Col: col},
		Inputs:  []*Option{in},
		Dist:    dist,
		Rows:    in.Rows,
		Width:   in.Width,
		OutCols: in.OutCols,
		DMSCost: in.DMSCost + o.model.MoveCost(kind, in.Rows, in.Width),
		TieCost: in.TieCost,
	}
	atomic.AddInt64(&o.considered, 1)
	return opt
}

// enforce yields movement alternatives for one option (Figure 4 step 07).
func (o *Optimizer) enforce(g *pgroup, opt *Option) []*Option {
	var out []*Option
	switch opt.Dist.Kind {
	case DistHash:
		for _, c := range sortedColIDs(g.interesting) {
			if g.outSet.Has(c) && !opt.Dist.Cols.Has(c) {
				out = append(out, o.newMoveOption(cost.Shuffle, c, opt))
			}
		}
		out = append(out,
			o.newMoveOption(cost.Broadcast, 0, opt),
			o.newMoveOption(cost.PartitionMove, 0, opt))
	case DistReplicated:
		for _, c := range sortedColIDs(g.interesting) {
			if g.outSet.Has(c) {
				out = append(out, o.newMoveOption(cost.Trim, c, opt))
			}
		}
		out = append(out, o.newMoveOption(cost.RemoteCopySingle, 0, opt))
	case DistSingle:
		out = append(out, o.newMoveOption(cost.ControlNodeMove, 0, opt))
	}
	return out
}

// pruneOptions implements Figure 4 step 06.ii: keep the overall best plus
// the best per interesting property (here: per interesting hash column,
// plus the replicated and single-node properties needed for feasibility).
func (o *Optimizer) pruneOptions(g *pgroup, opts []*Option) []*Option {
	classes := map[string]*Option{}
	consider := func(key string, opt *Option) {
		if cur, ok := classes[key]; !ok || better(opt, cur) {
			classes[key] = opt
		}
	}
	for _, opt := range opts {
		consider("O", opt)
		switch opt.Dist.Kind {
		case DistHash:
			if !o.config.DisableInterestingRetention {
				for c := range opt.Dist.Cols {
					if g.interesting.Has(c) {
						consider(fmt.Sprintf("H%d", c), opt)
					}
				}
			}
		case DistReplicated:
			consider("R", opt)
		case DistSingle:
			consider("S", opt)
		}
	}
	// Deduplicate survivors deterministically: iterate classes in sorted
	// key order — ranging the map directly would let options tied on
	// (cost, tie, placement) surface in map-iteration order, which varies
	// run to run and across the serial/parallel enumerators.
	keys := make([]string, 0, len(classes))
	for k := range classes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	seen := map[*Option]bool{}
	var out []*Option
	for _, k := range keys {
		opt := classes[k]
		if !seen[opt] {
			seen[opt] = true
			out = append(out, opt)
		}
	}
	sortOptions(out)
	return out
}

// enumerateExpr produces the relational options of one logical expression.
func (o *Optimizer) enumerateExpr(g *pgroup, e memoxml.DecodedExpr) ([]*Option, error) {
	switch op := e.Op.(type) {
	case *algebra.Get:
		return o.enumGet(g, op), nil
	case *algebra.Values:
		width := widthOf(g.OutCols, g.statsOf)
		return []*Option{o.newRelOption(op, nil, Replicated(), g.Rows, g.OutCols, width)}, nil
	case *algebra.Select:
		return o.enumUnary(g, op, e), nil
	case *algebra.Project:
		return o.enumProject(g, op, e), nil
	case *algebra.Join:
		return o.enumJoin(g, op, e), nil
	case *algebra.GroupBy:
		return o.enumGroupBy(g, op, e), nil
	case *algebra.Sort:
		return o.enumUnary(g, op, e), nil
	case *algebra.UnionAll:
		return o.enumUnion(g, op, e), nil
	}
	return nil, fmt.Errorf("core: cannot enumerate operator %T", e.Op)
}

// enumGet yields the table's natural placement.
func (o *Optimizer) enumGet(g *pgroup, op *algebra.Get) []*Option {
	width := widthOf(g.OutCols, g.statsOf)
	dist := Replicated()
	if op.Table.Dist.Kind == catalog.DistHash {
		dist = Distribution{Kind: DistHash, Cols: algebra.NewColSet()}
		for _, c := range op.Cols {
			if strings.EqualFold(c.Name, op.Table.Dist.Column) {
				dist.Cols.Add(c.ID)
			}
		}
	}
	return []*Option{o.newRelOption(op, nil, dist, g.Rows, g.OutCols, width)}
}

// enumUnary handles Select and Sort: distribution is preserved.
func (o *Optimizer) enumUnary(g *pgroup, op algebra.Operator, e memoxml.DecodedExpr) []*Option {
	child := o.groups[e.Children[0]]
	var out []*Option
	for _, co := range child.opts {
		dist := co.Dist.restrict(g.outSet, nil)
		width := widthOf(co.OutCols, g.statsOf)
		out = append(out, o.newRelOption(op, []*Option{co}, dist, g.Rows, co.OutCols, width))
	}
	return out
}

// enumProject remaps distribution columns through pass-through defs.
func (o *Optimizer) enumProject(g *pgroup, op *algebra.Project, e memoxml.DecodedExpr) []*Option {
	child := o.groups[e.Children[0]]
	rename := map[algebra.ColumnID][]algebra.ColumnID{}
	for _, d := range op.Defs {
		if c, ok := d.Expr.(*algebra.ColRef); ok {
			rename[c.ID] = append(rename[c.ID], d.ID)
		}
	}
	var out []*Option
	for _, co := range child.opts {
		outCols := algebra.OutputColsFromSchemas(op, [][]algebra.ColumnMeta{co.OutCols})
		outSet := algebra.NewColSet()
		for _, c := range outCols {
			outSet.Add(c.ID)
		}
		dist := co.Dist.restrict(outSet, rename)
		width := widthOf(outCols, g.statsOf)
		out = append(out, o.newRelOption(op, []*Option{co}, dist, g.Rows, outCols, width))
	}
	return out
}

// enumJoin pairs child options and keeps distribution-compatible ones.
func (o *Optimizer) enumJoin(g *pgroup, op *algebra.Join, e memoxml.DecodedExpr) []*Option {
	left := o.groups[e.Children[0]]
	right := o.groups[e.Children[1]]
	var out []*Option
	// The output column set is the expression's, not the pair's: every
	// option of a group has the group's columns.
	var outSet algebra.ColSet
	for _, lo := range left.opts {
		for _, ro := range right.opts {
			dist, ok := o.joinDist(op, lo, ro)
			if !ok {
				continue
			}
			outCols := algebra.OutputColsFromSchemas(op, [][]algebra.ColumnMeta{lo.OutCols, ro.OutCols})
			if outSet == nil {
				outSet = algebra.NewColSet()
				for _, c := range outCols {
					outSet.Add(c.ID)
				}
			}
			dist = dist.restrict(outSet, nil)
			width := widthOf(outCols, g.statsOf)
			out = append(out, o.newRelOption(op, []*Option{lo, ro}, dist, g.Rows, outCols, width))
		}
	}
	return out
}

// joinDist decides whether two placements can join without movement and
// what the result placement is (the §2.4 "partition compatible" check).
func (o *Optimizer) joinDist(op *algebra.Join, lo, ro *Option) (Distribution, bool) {
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
		cols := cloneColSet(lo.Dist.Cols)
		if op.Kind == algebra.JoinInner {
			addEquatedCols(op.On, lo.Dist.Cols, cols)
		}
		return Distribution{Kind: DistHash, Cols: cols}, true

	case lk == DistReplicated && rk == DistHash:
		// Only joins that emit each (left,right) pair at most once and
		// have no preserved/filtered left semantics tolerate a replicated
		// left over a partitioned right.
		if op.Kind != algebra.JoinInner && op.Kind != algebra.JoinCross {
			return Distribution{}, false
		}
		cols := cloneColSet(ro.Dist.Cols)
		if op.Kind == algebra.JoinInner {
			addEquatedCols(op.On, ro.Dist.Cols, cols)
		}
		return Distribution{Kind: DistHash, Cols: cols}, true

	default: // both hash-distributed
		if !collocated(op.On, lo.Dist.Cols, ro.Dist.Cols) {
			return Distribution{}, false
		}
		cols := cloneColSet(lo.Dist.Cols)
		switch op.Kind {
		case algebra.JoinInner:
			cols.AddSet(ro.Dist.Cols)
		case algebra.JoinCross:
			// Unreachable: cross joins have no equi conjuncts, so they
			// are never collocated.
		}
		return Distribution{Kind: DistHash, Cols: cols}, true
	}
}

// collocated reports whether an equality conjunct pairs the two hash
// column classes.
func collocated(on algebra.Scalar, l, r algebra.ColSet) bool {
	for _, conj := range algebra.Conjuncts(on) {
		a, b, ok := algebra.EquiJoinSides(conj)
		if !ok {
			continue
		}
		if (l.Has(a) && r.Has(b)) || (l.Has(b) && r.Has(a)) {
			return true
		}
	}
	return false
}

// addEquatedCols extends a hash equivalence class with columns equated to
// it by the join condition.
func addEquatedCols(on algebra.Scalar, class algebra.ColSet, into algebra.ColSet) {
	for _, conj := range algebra.Conjuncts(on) {
		a, b, ok := algebra.EquiJoinSides(conj)
		if !ok {
			continue
		}
		if class.Has(a) {
			into.Add(b)
		}
		if class.Has(b) {
			into.Add(a)
		}
	}
}

func cloneColSet(s algebra.ColSet) algebra.ColSet {
	out := algebra.NewColSet()
	out.AddSet(s)
	return out
}

// enumGroupBy handles complete aggregation over compatible inputs plus the
// partial/final split (the paper's §4 "local-global transformation of the
// group by" and Figure 4 step 02's topology-aware partial-aggregate
// sizing). The split is enumerated as a cost-based alternative for every
// hash-distributed child option — not merely as a fallback when the
// complete shape is infeasible — and pruning keeps whichever moves fewer
// bytes.
func (o *Optimizer) enumGroupBy(g *pgroup, op *algebra.GroupBy, e memoxml.DecodedExpr) []*Option {
	child := o.groups[e.Children[0]]
	keySet := algebra.NewColSet(op.Keys...)
	var out []*Option

	for _, co := range child.opts {
		// Complete aggregation wherever the placement already brings every
		// row of each group to one node.
		if gbCompatible(op, co.Dist) {
			dist := co.Dist.restrict(keySet, nil)
			if co.Dist.Kind != DistHash {
				dist = co.Dist
			}
			outCols := algebra.OutputColsFromSchemas(op, [][]algebra.ColumnMeta{co.OutCols})
			width := widthOf(outCols, g.statsOf)
			out = append(out, o.newRelOption(op, []*Option{co}, dist, g.Rows, outCols, width))
		}
		// Partial aggregation on each node, move the shrunken states, then
		// finalize. Only decomposable aggregates split (splitAggs guards
		// DISTINCT and unknown functions); replicated or single-node inputs
		// never benefit — their complete aggregation is movement-free.
		if co.Dist.Kind == DistHash && !o.config.DisableAggSplit {
			out = append(out, o.splitOptions(g, op, co)...)
		}
	}
	return out
}

// gbCompatible reports whether a complete GroupBy over the placement is
// correct without movement: all rows of any group live on one node.
func gbCompatible(op *algebra.GroupBy, d Distribution) bool {
	switch d.Kind {
	case DistSingle, DistReplicated:
		return true
	default:
		if len(op.Keys) == 0 {
			return false
		}
		keySet := algebra.NewColSet(op.Keys...)
		for c := range d.Cols {
			if keySet.Has(c) {
				return true
			}
		}
		return false
	}
}

// splitOptions builds PartialGB → move → FinalGB chains over one child
// option: per-node partial aggregation shrinks the stream before it moves,
// and the finalizing aggregation merges partial states after the movement.
func (o *Optimizer) splitOptions(g *pgroup, op *algebra.GroupBy, co *Option) []*Option {
	partialAggs, finalAggs, ok := splitAggs(g, op.Aggs)
	if !ok {
		return nil
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
	partialDist := co.Dist.restrict(algebra.NewColSet(op.Keys...), nil)
	partial := o.newRelOption(partialOp, []*Option{co}, partialDist, partialRows, partialCols, partialWidth)

	finalOp := &algebra.GroupBy{Keys: op.Keys, Aggs: finalAggs, Phase: algebra.AggFinal}
	finalCols := algebra.OutputColsFromSchemas(finalOp, [][]algebra.ColumnMeta{partialCols})
	finalWidth := widthOf(finalCols, g.statsOf)

	var out []*Option
	if len(op.Keys) == 0 {
		moved := o.newMoveOption(cost.PartitionMove, 0, partial)
		out = append(out, o.newRelOption(finalOp, []*Option{moved}, Single(), g.Rows, finalCols, finalWidth))
		return out
	}
	for _, k := range op.Keys {
		moved := o.newMoveOption(cost.Shuffle, k, partial)
		out = append(out, o.newRelOption(finalOp, []*Option{moved}, HashOn(k), g.Rows, finalCols, finalWidth))
	}
	return out
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
func (o *Optimizer) enumUnion(g *pgroup, op *algebra.UnionAll, e memoxml.DecodedExpr) []*Option {
	left := o.groups[e.Children[0]]
	right := o.groups[e.Children[1]]
	var out []*Option
	for _, lo := range left.opts {
		for _, ro := range right.opts {
			var dist Distribution
			switch {
			case lo.Dist.Kind == DistSingle && ro.Dist.Kind == DistSingle:
				dist = Single()
			case lo.Dist.Kind == DistReplicated && ro.Dist.Kind == DistReplicated:
				dist = Replicated()
			case lo.Dist.Kind == DistHash && ro.Dist.Kind == DistHash:
				shared := algebra.NewColSet()
				for c := range lo.Dist.Cols {
					if ro.Dist.Cols.Has(c) {
						shared.Add(c)
					}
				}
				if len(shared) == 0 && len(lo.Dist.Cols)+len(ro.Dist.Cols) > 0 {
					continue
				}
				dist = Distribution{Kind: DistHash, Cols: shared}
			default:
				continue
			}
			width := widthOf(lo.OutCols, g.statsOf)
			out = append(out, o.newRelOption(op, []*Option{lo, ro}, dist, g.Rows, lo.OutCols, width))
		}
	}
	return out
}
