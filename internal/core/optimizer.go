package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync/atomic"

	"pdwqo/internal/algebra"
	"pdwqo/internal/catalog"
	"pdwqo/internal/cost"
	"pdwqo/internal/memoxml"
	"pdwqo/internal/par"
	"pdwqo/internal/trace"
)

// Mode selects the plan space the optimizer explores.
type Mode uint8

// Optimizer modes.
const (
	// ModeFull consumes the entire serial search space (the paper's PDW
	// QO).
	ModeFull Mode = iota
	// ModeSerialBaseline parallelizes only the best serial plan: per
	// group, the single logical shape under the serial winner is used.
	// This is the baseline the paper argues against (§1.2, §3.2).
	ModeSerialBaseline
)

// Config tunes the optimizer; zero value = the paper's configuration.
type Config struct {
	Mode Mode
	// DisableInterestingRetention prunes each group to the single best
	// option (plus feasibility fallbacks) instead of best-per-interesting-
	// property (E8 ablation of Figure 4 step 06.ii).
	DisableInterestingRetention bool
	// DisableAggSplit turns off the partial/final aggregation split
	// (E9/E19 ablation of the paper's §4 "local-global transformation"):
	// every GroupBy keeps its complete, unsplit shape.
	DisableAggSplit bool
	// Parallelism bounds the workers enumerating independent MEMO groups
	// within one topological wave: 0 means GOMAXPROCS, 1 forces the serial
	// enumerator. Pruning is per-group and fresh columns are minted from
	// per-group ranges, so the chosen plan is identical at any setting.
	Parallelism int
	// SearchBudget caps the options considered during enumeration: when
	// the counter has reached the budget at a wave barrier, Optimize
	// fails with a *BudgetError instead of continuing — the caller's
	// signal to fall back to the greedy join-order regime. The check
	// happens only between waves, so the trip point (and the counter's
	// final value) is deterministic and identical at any Parallelism.
	// 0 disables the budget (exhaustive enumeration). A search that
	// reaches the last barrier finishes even if the final wave overshoots.
	SearchBudget int
	// Tracer, when non-nil, records phase/wave/group spans and the
	// optimize.* counters; TraceParent parents them under the caller's
	// span. A nil Tracer costs nothing.
	Tracer      *trace.Tracer
	TraceParent trace.SpanID
}

// Plan is the optimizer's result: the cheapest distributed plan plus
// search statistics.
type Plan struct {
	Root *Option
	// ReturnCost is the modeled cost of streaming the final result to the
	// client through the control node.
	ReturnCost float64
	// TotalCost = Root.DMSCost + ReturnCost.
	TotalCost float64
	// OptionsConsidered counts options created during enumeration;
	// OptionsRetained counts options surviving pruning.
	OptionsConsidered int
	OptionsRetained   int
	Groups            int
	// MemoExhausted reports that the serial search behind the memo hit
	// its budget: the plan is the best of a search that timed out.
	MemoExhausted bool
}

// Optimizer is the PDW-side bottom-up optimizer over a parsed memo.
type Optimizer struct {
	dec    *memoxml.Decoded
	shell  *catalog.Shell
	model  cost.Model
	config Config

	groups map[int]*pgroup
	order  []int // bottom-up topological order

	// Enumeration statistics, updated atomically: groups in one wave
	// enumerate concurrently.
	considered int64
	retained   int64
}

// pgroup is the PDW-side view of one memo group.
type pgroup struct {
	*memoxml.DecodedGroup
	exprs       []memoxml.DecodedExpr // logical expressions in play (mode-dependent)
	interesting algebra.ColSet
	opts        []*Option
	outSet      algebra.ColSet
	// nextCol walks this group's private fresh-column range (see
	// colStride): enumeration within a group is sequential, so minting is
	// deterministic even when groups enumerate concurrently.
	nextCol algebra.ColumnID
}

// colStride is the size of each group's fresh-column ID range. Fresh
// columns are minted only for partial/final aggregate splits — a handful
// per retained child option — so the range never overflows in practice.
const colStride = 1 << 16

// freshCol mints a column ID from the group's private range; IDs cannot
// collide with exported columns or with other groups' mints.
func (g *pgroup) freshCol() algebra.ColumnID {
	g.nextCol++
	return g.nextCol
}

// New builds an optimizer for a decoded memo against the shell database's
// topology.
func New(dec *memoxml.Decoded, shell *catalog.Shell, model cost.Model, config Config) *Optimizer {
	return &Optimizer{dec: dec, shell: shell, model: model, config: config}
}

// Optimize runs the Figure 4 pipeline and returns the best plan.
func (o *Optimizer) Optimize() (*Plan, error) {
	tr := o.config.Tracer
	psp := tr.BeginUnder(o.config.TraceParent, "prepare")
	if err := o.prepare(); err != nil { // steps 01–03
		psp.SetErr(err)
		psp.End()
		return nil, err
	}
	psp.Int("groups", int64(len(o.order)))
	psp.End()
	isp := tr.BeginUnder(o.config.TraceParent, "derive-interesting")
	o.deriveInteresting() // step 04
	isp.End()
	esp := tr.BeginUnder(o.config.TraceParent, "enumerate")
	if err := o.enumerate(esp.ID()); err != nil { // steps 05–07
		esp.SetErr(err)
		esp.End()
		return nil, err
	}
	esp.Int("options_considered", atomic.LoadInt64(&o.considered))
	esp.End()
	xsp := tr.BeginUnder(o.config.TraceParent, "extract")
	plan, err := o.extract() // steps 08–09
	if err != nil {
		xsp.SetErr(err)
		xsp.End()
		return nil, err
	}
	xsp.End()
	reg := tr.Counters()
	reg.Set("optimize.options_considered", int64(plan.OptionsConsidered))
	reg.Set("optimize.options_retained", int64(plan.OptionsRetained))
	reg.Set("optimize.groups", int64(plan.Groups))
	return plan, nil
}

// enumerate runs steps 05–07 over every group bottom-up. Independent
// groups of one topological wave fan out through par.For: a group only
// reads its children's finished opts, so each wave barrier is the only
// synchronization needed, and Parallelism 1 walks the same waves on the
// calling goroutine alone. The search-budget trip point is therefore
// identical at any Parallelism: the budget is tested only at wave
// barriers, where every worker's atomic counter updates are visible.
func (o *Optimizer) enumerate(parent trace.SpanID) error {
	tr := o.config.Tracer
	w := o.config.Parallelism
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	waves := o.waves()
	for i, wave := range waves {
		if b := o.config.SearchBudget; b > 0 && i > 0 {
			if n := atomic.LoadInt64(&o.considered); n >= int64(b) {
				tr.Counters().Add("optimize.budget_exhausted", 1)
				return &BudgetError{
					Budget: b, Considered: n,
					Wave: i, Waves: len(waves), Groups: len(o.order),
				}
			}
		}
		wsp := tr.BeginUnder(parent, "wave")
		wsp.Int("wave", int64(i))
		wsp.Int("groups", int64(len(wave)))
		tr.Counters().Add("optimize.waves", 1)
		if err := o.enumerateWave(wave, w, wsp.ID()); err != nil {
			wsp.SetErr(err)
			wsp.End()
			return err
		}
		wsp.End()
	}
	return nil
}

// enumerateWave fans one wave's groups out over w workers; the reported
// error is the first failing group, in wave order, among those that ran.
func (o *Optimizer) enumerateWave(wave []int, w int, parent trace.SpanID) error {
	// Compilation has no caller context to cancel it.
	return par.For(context.TODO(), len(wave), w, func(_ context.Context, k int) error {
		return o.enumerateGroup(o.groups[wave[k]], parent)
	})
}

// waves partitions the bottom-up order into topological levels: every
// group's children sit in a strictly earlier wave, so the groups within
// one wave have no enumeration dependencies on each other.
func (o *Optimizer) waves() [][]int {
	depth := make(map[int]int, len(o.order))
	maxd := 0
	for _, id := range o.order { // children precede parents in o.order
		d := 0
		for _, e := range o.groups[id].exprs {
			for _, c := range e.Children {
				if dc := depth[c] + 1; dc > d {
					d = dc
				}
			}
		}
		depth[id] = d
		if d > maxd {
			maxd = d
		}
	}
	out := make([][]int, maxd+1)
	for _, id := range o.order {
		out[depth[id]] = append(out[depth[id]], id)
	}
	return out
}

// prepare implements Figure 4 steps 01–03: build PDW-side groups from the
// decoded memo, select the expressions in play for the mode, and compute a
// bottom-up order.
func (o *Optimizer) prepare() error {
	o.groups = map[int]*pgroup{}
	for id, dg := range o.dec.Groups {
		g := &pgroup{DecodedGroup: dg, interesting: algebra.NewColSet(), outSet: algebra.NewColSet()}
		for _, c := range dg.OutCols {
			g.outSet.Add(c.ID)
		}
		// Step 03 (merge equivalent expressions from the PDW perspective):
		// physical algorithm choices are irrelevant to movement planning,
		// so expressions are considered at the logical level and
		// duplicates collapse.
		seen := map[string]bool{}
		switch o.config.Mode {
		case ModeSerialBaseline:
			for _, e := range dg.Exprs {
				if !e.Winner {
					continue
				}
				le := e
				if p, ok := e.Op.(*algebra.Phys); ok {
					le.Op = p.Of
				}
				g.exprs = append(g.exprs, le)
			}
			if len(g.exprs) == 0 {
				// Groups unreachable from the winner tree keep their first
				// logical expr for safety; they will not be visited.
				for _, e := range dg.Exprs {
					if !e.Physical {
						g.exprs = append(g.exprs, e)
						break
					}
				}
			}
		default:
			for _, e := range dg.Exprs {
				if e.Physical {
					continue
				}
				fp := exprFingerprint(e)
				if seen[fp] {
					continue
				}
				seen[fp] = true
				g.exprs = append(g.exprs, e)
			}
		}
		if len(g.exprs) == 0 {
			return fmt.Errorf("core: group %d has no logical expressions", id)
		}
		o.groups[id] = g
	}
	if _, ok := o.groups[o.dec.Root]; !ok {
		return fmt.Errorf("core: missing root group %d", o.dec.Root)
	}
	// Bottom-up order: DFS post-order from the root over expression edges.
	visited := map[int]uint8{}
	var dfs func(id int) error
	dfs = func(id int) error {
		switch visited[id] {
		case 1:
			return fmt.Errorf("core: cyclic memo at group %d", id)
		case 2:
			return nil
		}
		visited[id] = 1
		g, ok := o.groups[id]
		if !ok {
			return fmt.Errorf("core: dangling group reference %d", id)
		}
		for _, e := range g.exprs {
			for _, c := range e.Children {
				if err := dfs(c); err != nil {
					return err
				}
			}
		}
		visited[id] = 2
		o.order = append(o.order, id)
		return nil
	}
	if err := dfs(o.dec.Root); err != nil {
		return err
	}
	// Carve a private fresh-column range per group, positioned by the
	// group's place in the bottom-up order: minting stays deterministic
	// when groups of one wave enumerate concurrently.
	for i, id := range o.order {
		o.groups[id].nextCol = algebra.ColumnID(o.dec.MaxCol) + algebra.ColumnID(i)*colStride
	}
	return nil
}

func exprFingerprint(e memoxml.DecodedExpr) string {
	fp := e.Op.Fingerprint()
	for _, c := range e.Children {
		fp += fmt.Sprintf("|g%d", c)
	}
	return fp
}

// deriveInteresting implements Figure 4 step 04: interesting columns are
// (a) columns referenced in equality join predicates and (b) group-by
// columns, propagated top-down through the memo.
func (o *Optimizer) deriveInteresting() {
	// Iterate top-down (reverse bottom-up order) until fixpoint; the memo
	// is a DAG so a couple of rounds suffice.
	for round := 0; round < 8; round++ {
		changed := false
		for i := len(o.order) - 1; i >= 0; i-- {
			g := o.groups[o.order[i]]
			for _, e := range g.exprs {
				switch op := e.Op.(type) {
				case *algebra.Join:
					for _, conj := range algebra.Conjuncts(op.On) {
						a, b, ok := algebra.EquiJoinSides(conj)
						if !ok {
							continue
						}
						for _, cid := range e.Children {
							c := o.groups[cid]
							for _, col := range []algebra.ColumnID{a, b} {
								if c.outSet.Has(col) && !c.interesting.Has(col) {
									c.interesting.Add(col)
									changed = true
								}
							}
						}
					}
				case *algebra.GroupBy:
					c := o.groups[e.Children[0]]
					for _, k := range op.Keys {
						if c.outSet.Has(k) && !c.interesting.Has(k) {
							c.interesting.Add(k)
							changed = true
						}
					}
				}
				// Parent demand flows through to children.
				for _, cid := range e.Children {
					c := o.groups[cid]
					for col := range g.interesting {
						if c.outSet.Has(col) && !c.interesting.Has(col) {
							c.interesting.Add(col)
							changed = true
						}
					}
				}
			}
		}
		if !changed {
			return
		}
	}
}

// Interesting exposes a group's interesting columns (for tests and
// explain output).
func (o *Optimizer) Interesting(group int) []algebra.ColumnID {
	g, ok := o.groups[group]
	if !ok {
		return nil
	}
	return g.interesting.Sorted()
}

// extract implements Figure 4 step 08: pick the best root option including
// the cost of returning rows to the client.
func (o *Optimizer) extract() (*Plan, error) {
	root := o.groups[o.dec.Root]
	var best *Option
	bestTotal := math.Inf(1)
	bestReturn := 0.0
	for _, opt := range root.opts {
		ret := o.returnCost(opt)
		total := opt.DMSCost + ret
		if best == nil || total < bestTotal ||
			(total == bestTotal && opt.TieCost < best.TieCost) {
			best, bestTotal, bestReturn = opt, total, ret
		}
	}
	if best == nil {
		return nil, fmt.Errorf("core: no feasible distributed plan for root group %d", o.dec.Root)
	}
	return &Plan{
		Root:              best,
		ReturnCost:        bestReturn,
		TotalCost:         bestTotal,
		OptionsConsidered: int(atomic.LoadInt64(&o.considered)),
		OptionsRetained:   int(atomic.LoadInt64(&o.retained)),
		Groups:            len(o.order),
		MemoExhausted:     o.dec.Exhausted,
	}, nil
}

// returnCost models the final Return operation. Results stream from the
// nodes directly back to the client without materializing a temp table
// (paper §2.3: "such queries will not involve DMS"), and the client
// receives the same bytes regardless of where the result sits — so the
// Return is free for every placement and plans compete on movement alone.
func (o *Optimizer) returnCost(opt *Option) float64 {
	_ = opt
	return 0
}

// sortedColIDs gives deterministic iteration over a column set.
func sortedColIDs(s algebra.ColSet) []algebra.ColumnID { return s.Sorted() }

// widthOf computes the byte width of a schema using group stats when
// available.
func widthOf(cols []algebra.ColumnMeta, statsOf func(algebra.ColumnID) (memoxml.DecodedColStat, bool)) float64 {
	w := 0.0
	for _, c := range cols {
		if cs, ok := statsOf(c.ID); ok && cs.Width > 0 {
			w += cs.Width
		} else {
			w += float64(c.Type.Width())
		}
	}
	return w
}

// expectedDistinct is the Cardenas approximation for the expected number
// of distinct values when drawing n rows from a domain of d values — used
// by the Figure 4 step 02 preprocessor to size local (per-node) aggregates
// for the appliance topology.
func expectedDistinct(d, n float64) float64 {
	if d <= 0 {
		return math.Max(n, 0)
	}
	if n <= 0 {
		return 0
	}
	return d * (1 - math.Pow(1-1/d, n))
}

// sortOptions orders options deterministically for stable plan choice:
// by cost, then by placement signature.
func sortOptions(opts []*Option) {
	sort.SliceStable(opts, func(i, j int) bool {
		a, b := opts[i], opts[j]
		if a.DMSCost != b.DMSCost {
			return a.DMSCost < b.DMSCost
		}
		if a.TieCost != b.TieCost {
			return a.TieCost < b.TieCost
		}
		return a.Dist.String() < b.Dist.String()
	})
}
