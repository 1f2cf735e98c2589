package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
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
	// group, only the expression a costed export marks as the serial
	// winner (memo.CostSerial) is used. This is the baseline the paper
	// argues against (§1.2, §3.2).
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
	// TotalCost is Root.DMSCost. Returning the result adds nothing: it
	// streams from the nodes to the client without DMS (paper §2.3: "such
	// queries will not involve DMS"), whatever the root's placement.
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
	exprs       []pexpr // logical expressions in play (mode-dependent)
	interesting algebra.ColSet
	// hashClasses lists interesting in the order of the pruner's
	// per-column classes.
	hashClasses []algebra.ColumnID
	opts        []*Option
	outSet      algebra.ColSet
	// nextCol walks this group's private fresh-column range (see
	// colStride): enumeration within a group is sequential, so minting is
	// deterministic even when groups enumerate concurrently.
	nextCol algebra.ColumnID
}

// pexpr is one logical expression in play. For a join, equi holds the
// column pairs its equality conjuncts equate (algebra.EquiJoinSides, in
// conjunct order), split once per conjunct of the memo's dictionary rather
// than per expression or per pair of child options.
type pexpr struct {
	memoxml.DecodedExpr
	equi [][2]algebra.ColumnID
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
	o.groups = make(map[int]*pgroup, len(o.dec.Groups))
	equi := make([]*[2]algebra.ColumnID, len(o.dec.Conjs)) // nil: not an equality
	for id, s := range o.dec.Conjs {
		if a, b, ok := algebra.EquiJoinSides(s); ok {
			equi[id] = &[2]algebra.ColumnID{a, b}
		}
	}
	for id, dg := range o.dec.Groups {
		g := &pgroup{DecodedGroup: dg, outSet: algebra.ColSetOf(dg.OutCols)}
		// Step 03 (merge equivalent expressions from the PDW perspective)
		// has nothing left to merge: the memo holds no physical algorithm
		// choices, and no two logical expressions of a group share an
		// operator and children.
		for _, e := range dg.Exprs {
			if o.config.Mode != ModeSerialBaseline || e.Winner {
				g.exprs = append(g.exprs, newPExpr(e, equi))
			}
		}
		if len(g.exprs) == 0 {
			if len(dg.Exprs) == 0 {
				return fmt.Errorf("core: group %d has no logical expressions", id)
			}
			// A group off the winner tree keeps its first expression; it
			// will not be visited.
			g.exprs = append(g.exprs, newPExpr(dg.Exprs[0], equi))
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

// newPExpr wraps a logical expression, gathering a join's equi-pairs from
// the split of each of its conjuncts.
func newPExpr(e memoxml.DecodedExpr, equi []*[2]algebra.ColumnID) pexpr {
	pe := pexpr{DecodedExpr: e}
	for _, id := range e.Conjs {
		if p := equi[id]; p != nil {
			pe.equi = append(pe.equi, *p)
		}
	}
	return pe
}

// deriveInteresting implements Figure 4 step 04: interesting columns are
// (a) columns referenced in equality join predicates and (b) group-by
// columns, propagated top-down through the memo. One pass over the
// reversed bottom-up order is the fixpoint: every parent precedes its
// children there, so a group's set is final before it passes it down.
func (o *Optimizer) deriveInteresting() {
	for i := len(o.order) - 1; i >= 0; i-- {
		g := o.groups[o.order[i]]
		for _, e := range g.exprs {
			switch op := e.Op.(type) {
			case *algebra.Join:
				for _, pair := range e.equi {
					for _, cid := range e.Children {
						o.groups[cid].demand(pair[:]...)
					}
				}
			case *algebra.GroupBy:
				o.groups[e.Children[0]].demand(op.Keys...)
			}
			// Parent demand flows through to children.
			for _, cid := range e.Children {
				c := o.groups[cid]
				g.interesting.ForEach(func(col algebra.ColumnID) { c.demand(col) })
			}
		}
	}
	for _, g := range o.groups {
		g.hashClasses = g.interesting.Sorted()
		slices.SortFunc(g.hashClasses, func(a, b algebra.ColumnID) int {
			return strings.Compare(strconv.Itoa(int(a)), strconv.Itoa(int(b)))
		})
	}
}

// demand marks the columns the group outputs among cols interesting.
func (g *pgroup) demand(cols ...algebra.ColumnID) {
	for _, c := range cols {
		if g.outSet.Has(c) {
			g.interesting.Add(c)
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

// extract implements Figure 4 step 08: pick the best root option.
func (o *Optimizer) extract() (*Plan, error) {
	var best *Option
	for _, opt := range o.groups[o.dec.Root].opts {
		if best == nil || better(opt, best) {
			best = opt
		}
	}
	if best == nil {
		return nil, fmt.Errorf("core: no feasible distributed plan for root group %d", o.dec.Root)
	}
	return &Plan{
		Root:              best,
		TotalCost:         best.DMSCost,
		OptionsConsidered: int(atomic.LoadInt64(&o.considered)),
		OptionsRetained:   int(atomic.LoadInt64(&o.retained)),
		Groups:            len(o.order),
		MemoExhausted:     o.dec.Exhausted,
	}, nil
}

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
