// Package pdwqo is a reproduction of "Query Optimization in Microsoft SQL
// Server PDW" (SIGMOD 2012): a cost-based distributed query optimizer for
// a simulated shared-nothing appliance.
//
// The package wires together the paper's Figure 2 pipeline:
//
//	parse → bind against the shell database → normalize (subquery
//	unnesting, pushdown, transitivity closure, contradiction detection)
//	→ serial Cascades-style MEMO → XML export → PDW bottom-up optimizer
//	(data-movement enumeration, interesting-property pruning, DMS cost
//	model) → DSQL generation → serial step execution on the appliance.
//
// Open a database over a shell catalog and loaded rows, then Optimize,
// Explain, or Execute SQL against it. See examples/ for runnable entry
// points and EXPERIMENTS.md for the paper-reproduction harness.
package pdwqo

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"

	"pdwqo/internal/algebra"
	"pdwqo/internal/catalog"
	"pdwqo/internal/core"
	"pdwqo/internal/cost"
	"pdwqo/internal/dsql"
	"pdwqo/internal/engine"
	"pdwqo/internal/exec"
	"pdwqo/internal/explain"
	"pdwqo/internal/memo"
	"pdwqo/internal/memoxml"
	"pdwqo/internal/normalize"
	"pdwqo/internal/plancache"
	"pdwqo/internal/planverify"
	"pdwqo/internal/planverify/transval"
	"pdwqo/internal/sqlparser"
	"pdwqo/internal/tpch"
	"pdwqo/internal/trace"
	"pdwqo/internal/types"
)

// Re-exported building blocks, so downstream users need only this package.
type (
	// Shell is the metadata-only image of the appliance (paper §2.2).
	Shell = catalog.Shell
	// Value is one SQL value.
	Value = types.Value
	// Row is one result tuple.
	Row = types.Row
	// Lambda holds the DMS cost model's calibrated per-byte constants.
	Lambda = cost.Lambda
	// MoveKind enumerates the seven DMS operations of paper §3.3.2.
	MoveKind = cost.MoveKind
	// Fault is one fault-injection rule for the engine's chaos facility.
	Fault = engine.Fault
	// FaultPlan is a deterministic schedule of injected faults.
	FaultPlan = engine.FaultPlan
	// ExecConfig configures one execution: per-node parallelism, simulated
	// dispatch latency, the step retry policy, fault injection and the
	// execution tracer. It is a value passed to DB.Run (or ExplainAnalyze)
	// and dies with the call; the zero value is the default configuration.
	ExecConfig = engine.ExecConfig
	// StepError is the typed failure of one DSQL step (errors.As target).
	StepError = engine.StepError
	// ErrorKind classifies why a step failed.
	ErrorKind = engine.ErrorKind
	// Tracer records spans and counters across the whole pipeline — parse
	// through enumeration to per-step execution. Construct with NewTracer
	// and pass via Options.Tracer (compilation) and ExecConfig.Tracer
	// (execution); a nil Tracer is off and costs nothing.
	Tracer = trace.Tracer
	// Span is one recorded trace interval (or instantaneous event).
	Span = trace.Span
	// PlanCache is the control node's shared plan cache (install with
	// DB.SetPlanCache).
	PlanCache = plancache.Cache
	// PlanCacheMetrics is a snapshot of the cache's lifetime counters.
	PlanCacheMetrics = plancache.Metrics
	// VerifyError is the typed failure Optimize returns when
	// Options.Verify finds invariant violations (errors.As target).
	VerifyError = planverify.Error
	// VerifyViolation is one detected plan invariant breach.
	VerifyViolation = planverify.Violation
	// VerifyCode classifies a violation (see internal/planverify).
	VerifyCode = planverify.Code
)

// NewTracer builds an enabled tracer with a fresh counter registry.
func NewTracer() *Tracer { return trace.New() }

// Fault kinds, operation sites and wildcard for building FaultPlans.
const (
	FaultFail      = engine.FaultFail
	FaultSlow      = engine.FaultSlow
	FaultCorrupt   = engine.FaultCorrupt
	FaultOpAny     = engine.OpAny
	FaultOpQuery   = engine.OpQuery
	FaultOpCreate  = engine.OpCreate
	FaultOpDeliver = engine.OpDeliver
	// FaultAny is the wildcard for Fault.Step / Fault.Node / Fault.Move.
	FaultAny = engine.Any
)

// Sentinel errors for errors.Is against step failures.
var (
	ErrFaultInjected   = engine.ErrFaultInjected
	ErrCorruptDelivery = engine.ErrCorruptDelivery
	ErrStepTimeout     = engine.ErrStepTimeout
)

// NewFaultPlan builds a deterministic fault schedule from rules.
func NewFaultPlan(faults ...Fault) *FaultPlan { return engine.NewFaultPlan(faults...) }

// RandomFaultPlan draws a seeded random fault schedule over the given
// step-ID and compute-node ranges; the same seed always yields the same
// plan, so chaos runs are reproducible.
func RandomFaultPlan(seed int64, steps, nodes int) *FaultPlan {
	return engine.RandomFaultPlan(seed, steps, nodes)
}

// ParseFaultSpec parses the -fault flag syntax ("fail:step=1,node=2;
// slow:op=deliver,delay=5ms" or "seed=42") into a FaultPlan.
func ParseFaultSpec(spec string) (*FaultPlan, error) { return engine.ParseFaultSpec(spec) }

// PlanOption is one node of the distributed plan tree (relational
// operator or data movement); exposed for plan inspection.
type PlanOption = core.Option

// OptimizerMode selects the plan space (paper §1.2): the full PDW search
// or the parallelized-best-serial-plan baseline.
type OptimizerMode = core.Mode

// Optimizer modes.
const (
	// ModeFull is the paper's PDW QO: the whole serial search space plus
	// data movement enumeration.
	ModeFull = core.ModeFull
	// ModeSerialBaseline parallelizes only the best serial plan.
	ModeSerialBaseline = core.ModeSerialBaseline
)

// Options tunes optimization; the zero value is the paper's configuration.
// Nothing here configures how a compiled plan executes — that is
// ExecConfig, passed per run.
type Options struct {
	Mode OptimizerMode
	// Budget caps serial exploration (optimizer timeout, §3.1); 0 means
	// memo.DefaultBudget, negative means unlimited — except that under a
	// SearchBudget exploration ends, as always, once that decides the regime.
	Budget int
	// Lambda overrides the cost model constants; nil uses defaults.
	Lambda *Lambda
	// DisableInterestingRetention is the ablation of Figure 4 step
	// 06.ii (best-per-interesting-property retention).
	DisableInterestingRetention bool
	// DisableAggSplit forces every GROUP BY to keep its complete,
	// unsplit shape instead of enumerating the §4 partial/final
	// aggregation split (per-node partial states, movement, finalize).
	// It is the control arm of the metamorphic equivalence suite and
	// the E9/E19 ablations; results must be identical either way.
	DisableAggSplit bool
	// SeedCollocated applies the §3.1 distribution-aware seeding: it seeds
	// the memo with the greedy join order (normalize.GreedyJoinOrder — the
	// tree the greedy regime below would plan) beside the normalized plan,
	// which preserves plan quality under tight exploration budgets.
	SeedCollocated bool
	// SearchBudget caps the PDW-side enumeration at a number of options
	// considered, checked at the wave barriers of the bottom-up search;
	// 0 disables the cap (exhaustive enumeration, the default). Over
	// budget, compilation does not fail: it plans in the greedy regime —
	// the join order is fixed by the cheapest-feasible-edge heuristic
	// (normalize.GreedyJoinOrder), the memo is rebuilt without
	// exploration, and the enumerator runs over that structurally bounded
	// search space, still inserting movement enforcers so the plan stays
	// collocation-correct. A query whose serial memo proves part-way
	// through exploration that the budget will trip (core.SearchLowerBound
	// ≥ SearchBudget, ModeFull) goes there at once, the memo abandoned;
	// otherwise the enumeration is tried first. The plan is the same either way.
	// QueryPlan.Regime reports which regime produced the plan, and the
	// EXPLAIN header which way it was reached.
	SearchBudget int
	// Parallelism bounds the worker pools of the PDW-side plan enumerator
	// (independent MEMO groups per topological wave): 0 means GOMAXPROCS,
	// 1 forces the serial reference path. Plans are identical at any
	// setting — the internal/difftest harness certifies it. Execute runs
	// the plan it compiles under the same bound.
	Parallelism int

	// Tracer, when non-nil, records spans for every pipeline phase (parse,
	// bind, normalize, MEMO, XML, enumeration, DSQL generation) and the
	// optimize.* counters. Execute also traces the run it starts with it.
	Tracer *Tracer

	// Verify runs the internal/planverify static analyzer over every
	// freshly compiled plan: distribution-property soundness of the
	// winning plan tree, dataflow soundness of the DSQL step sequence,
	// and the MEMO-side invariants. A violation fails Optimize with a
	// typed *VerifyError instead of returning the broken plan. With a
	// plan cache installed, cache hits re-bind an already verified
	// template and are not re-verified.
	Verify bool
}

// DB is an open appliance: shell metadata plus loaded data.
type DB struct {
	shell     *catalog.Shell
	appliance *engine.Appliance
	data      map[string][]types.Row
	planCache *plancache.Cache
}

// Open builds a database over a shell catalog and per-table rows, placing
// rows on the appliance per each table's distribution. Tables without
// statistics get them computed per node and merged (paper §2.2).
func Open(shell *catalog.Shell, data map[string][]types.Row) (*DB, error) {
	if err := buildMissingStats(shell, data); err != nil {
		return nil, err
	}
	db := &DB{shell: shell, appliance: engine.New(shell), data: data}
	for _, t := range shell.Tables() {
		if err := db.appliance.LoadTable(t.Name, data[t.Name]); err != nil {
			return nil, err
		}
	}
	return db, nil
}

// OpenTPCH generates a TPC-H appliance: scale factor sf across n compute
// nodes, deterministic under seed. Statistics are computed per node and
// merged into globals exactly as §2.2 describes.
func OpenTPCH(sf float64, nodes int, seed int64) (*DB, error) {
	return OpenTPCHSkewed(sf, nodes, seed, 1)
}

// OpenTPCHSkewed is OpenTPCH with a foreign-key skew exponent (1 =
// uniform); used to stress the cost model's §3.3.1 uniformity assumption.
func OpenTPCHSkewed(sf float64, nodes int, seed int64, skew float64) (*DB, error) {
	shell, data, err := tpch.BuildShellSkewed(sf, nodes, seed, skew)
	if err != nil {
		return nil, err
	}
	return Open(shell, map[string][]types.Row(data))
}

// Shell exposes the shell database.
func (db *DB) Shell() *Shell { return db.shell }

// Appliance exposes the engine's nodes and lifetime-aggregate metrics for
// inspection.
func (db *DB) Appliance() *engine.Appliance { return db.appliance }

// SetPlanCache installs a shared plan cache bounded to capacity entries
// (0 means plancache.DefaultCapacity; negative removes the cache). With a
// cache installed, Optimize parameterizes each query, probes the cache by
// canonical fingerprint, and re-binds a cached template's literals instead
// of compiling; misses compile once per fingerprint under singleflight,
// and any DDL or statistics change invalidates via the catalog epoch. It
// returns the DB for chaining.
func (db *DB) SetPlanCache(capacity int) *DB {
	if capacity < 0 {
		db.planCache = nil
		return db
	}
	db.planCache = plancache.New(capacity)
	return db
}

// PlanCache exposes the installed plan cache (nil when off), e.g. for
// metrics inspection.
func (db *DB) PlanCache() *plancache.Cache { return db.planCache }

// TPCHQuery returns the adapted TPC-H query by name ("q01".."q20").
func TPCHQuery(name string) (string, bool) {
	q, ok := tpch.Get(name)
	return q.SQL, ok
}

// TPCHQueryNames lists the adapted TPC-H suite.
func TPCHQueryNames() []string {
	var out []string
	for _, q := range tpch.Queries() {
		out = append(out, q.Name)
	}
	return out
}

// QueryPlan is the result of optimizing one query: every intermediate
// artifact of the Figure 2 pipeline.
type QueryPlan struct {
	SQL string
	// Normalized is the simplified logical tree (§2.5 step 2a).
	Normalized *algebra.Tree
	// Memo is the serial search space (§2.5 step 2b–d).
	Memo *memo.Memo
	// MemoXML is the exported search space (§2.5 step 3).
	MemoXML []byte
	// Distributed is the PDW optimizer's winning plan (§2.5 step 4).
	Distributed *core.Plan
	// DSQL is the executable step sequence (§3.4).
	DSQL *dsql.Plan
	// CacheStatus reports how the plan cache produced this plan: "" when
	// no cache is installed, "hit" (re-bound from a cached template),
	// "shared" (joined another caller's in-flight compilation), or "miss"
	// (this caller compiled it).
	CacheStatus string
	// Regime reports how the search space was covered: "" when no
	// search budget was set, "exhaustive" when a budget was set but the
	// enumeration finished within it, and "greedy" when the budget
	// tripped and the plan came from the greedy join-order fallback.
	Regime string
	// regime is what EXPLAIN prints of it: the budget in force and, for
	// "greedy", whether a lower bound chose it before the export or the
	// enumeration tripped, and where.
	regime explain.Regime
}

// Cost returns the plan's modeled DMS cost.
func (p *QueryPlan) Cost() float64 { return p.Distributed.TotalCost }

// Moves counts data-movement operations by kind.
func (p *QueryPlan) Moves() map[MoveKind]int { return p.Distributed.Root.CountMoves() }

// Explain renders the distributed plan and its DSQL steps.
func (p *QueryPlan) Explain() string {
	var b strings.Builder
	fmt.Fprintf(&b, "-- distributed plan (DMS cost %.6g, %d groups, %d options considered)\n",
		p.Distributed.TotalCost, p.Distributed.Groups, p.Distributed.OptionsConsidered)
	b.WriteString(p.Distributed.Root.String())
	b.WriteString("-- DSQL\n")
	b.WriteString(p.DSQL.String())
	return b.String()
}

// Optimize compiles a SQL query into a distributed plan. With a plan
// cache installed (SetPlanCache), the query is parameterized and the
// cache is consulted first; a hit re-binds the cached template's literal
// slots instead of running the pipeline.
func (db *DB) Optimize(sql string, opts Options) (*QueryPlan, error) {
	if db.planCache == nil {
		return db.compile(sql, opts, nil)
	}
	return db.optimizeCached(sql, opts)
}

// cachedPlan is the value the plan cache stores: a compiled QueryPlan
// whose DSQL text may carry literal-slot placeholders, plus whether it is
// safe to re-bind to different constants.
type cachedPlan struct {
	qp    *QueryPlan
	slots int
	// rebindable means every literal slot's placeholder survived into the
	// DSQL text, so the template is published under the shape fingerprint
	// and can serve any same-shape query. Value-dependent plans (a fold
	// consumed a literal) stay pinned to their exact literal signature.
	rebindable bool
}

// rebind instantiates the template for one query: a shallow copy whose
// DSQL has the slot placeholders replaced by the query's own literals.
// The shared artifacts (memo, distributed plan) are read-only downstream.
func (t *cachedPlan) rebind(sql string, pq *normalize.ParamQuery) *QueryPlan {
	qp := *t.qp
	qp.SQL = sql
	qp.DSQL = t.qp.DSQL.Bind(pq.BindTexts())
	return &qp
}

// optimizeCached is Optimize through the plan cache: parameterize, probe
// the shape key for a re-bindable template, otherwise compile exactly
// once per (fingerprint, literals, epoch) under singleflight.
func (db *DB) optimizeCached(sql string, opts Options) (*QueryPlan, error) {
	tr := opts.Tracer
	cache := db.planCache
	pq, err := normalize.Parameterize(sql)
	if err != nil {
		// The lexer rejected the text; compile cold so the caller gets the
		// same error the parser produces without a cache.
		return db.compile(sql, opts, nil)
	}
	epoch := db.shell.Epoch()
	fp := pq.Fingerprint(db.envSignature(opts))
	sp := tr.Begin("plancache")
	defer sp.End()
	if v, ok := cache.Get(fp, epoch); ok {
		if t := v.(*cachedPlan); t.slots == len(pq.Lits) {
			qp := t.rebind(sql, pq)
			qp.CacheStatus = "hit"
			sp.Str("outcome", "hit")
			tr.Counters().Add("optimize.cache.hit", 1)
			return qp, nil
		}
	}
	fpExact := fp + "|" + pq.LitSig()
	v, outcome, err := cache.Do(fpExact, epoch, func() (any, error) {
		qp, cerr := db.compile(sql, opts, pq)
		if cerr != nil {
			// Parameterization can perturb compilation (e.g. an ORDER BY
			// expression no longer matching a slotted select item by
			// fingerprint); retry cold before failing so a cache never
			// rejects a query that compiles without one.
			qp, cerr = db.compile(sql, opts, nil)
			if cerr != nil {
				return nil, cerr
			}
			return &cachedPlan{qp: qp, slots: len(pq.Lits)}, nil
		}
		return &cachedPlan{
			qp:         qp,
			slots:      len(pq.Lits),
			rebindable: qp.DSQL.HasAllParamSlots(len(pq.Lits)),
		}, nil
	})
	if err != nil {
		sp.SetErr(err)
		tr.Counters().Add("optimize.cache.error", 1)
		return nil, err
	}
	t := v.(*cachedPlan)
	if t.rebindable {
		cache.Put(fp, epoch, t)
	}
	qp := t.rebind(sql, pq)
	qp.CacheStatus = outcome.String()
	sp.Str("outcome", qp.CacheStatus)
	tr.Counters().Add("optimize.cache."+qp.CacheStatus, 1)
	return qp, nil
}

// envSignature renders every plan-affecting input beyond the query text:
// optimizer options and appliance topology. Parallelism and tracing are
// deliberately excluded — they never change the plan (the difftest harness certifies plans are identical across
// Parallelism settings).
func (db *DB) envSignature(opts Options) string {
	lambda := cost.DefaultLambda()
	if opts.Lambda != nil {
		lambda = *opts.Lambda
	}
	return fmt.Sprintf("mode=%d budget=%d sb=%d noir=%t nosplit=%t seedcol=%t nodes=%d lambda=%+v",
		opts.Mode, opts.Budget, opts.SearchBudget, opts.DisableInterestingRetention,
		opts.DisableAggSplit, opts.SeedCollocated,
		db.shell.Topology.ComputeNodes, lambda)
}

// compile runs the Figure 2 pipeline. A non-nil pq threads literal-slot
// provenance through the binder so the generated DSQL carries re-binding
// placeholders.
func (db *DB) compile(sql string, opts Options, pq *normalize.ParamQuery) (*QueryPlan, error) {
	tr := opts.Tracer
	osp := tr.Begin("optimize")
	defer osp.End()
	// fail closes the current phase span and the root span with the error.
	fail := func(sp trace.Active, err error) (*QueryPlan, error) {
		sp.SetErr(err)
		sp.End()
		osp.SetErr(err)
		return nil, err
	}

	sp := tr.BeginUnder(osp.ID(), "parse")
	sel, err := sqlparser.ParseSelect(sql)
	if err != nil {
		return fail(sp, err)
	}
	sp.End()

	sp = tr.BeginUnder(osp.ID(), "bind")
	b := algebra.NewBinder(db.shell)
	if pq != nil {
		b.SetParamSlots(pq.ParamAt())
	}
	bound, err := b.Bind(sel)
	if err != nil {
		return fail(sp, err)
	}
	sp.End()

	sp = tr.BeginUnder(osp.ID(), "normalize")
	norm, err := normalize.New(b).Normalize(bound)
	if err != nil {
		return fail(sp, err)
	}
	sp.End()

	// The one join-order heuristic, computed at most once per compile: the
	// §3.1 seed and the greedy regime's whole plan are the same tree.
	greedyOrder := sync.OnceValue(func() *algebra.Tree { return normalize.GreedyJoinOrder(norm) })
	var seeds []*algebra.Tree
	if opts.SeedCollocated {
		// §3.1: seed the MEMO with a distribution-aware plan *alongside*
		// the normalized one, so a tight budget still explores the
		// collocated neighborhood.
		if g := greedyOrder(); g.Fingerprint() != norm.Fingerprint() {
			seeds = append(seeds, g)
		}
	}
	budget := opts.Budget
	switch {
	case budget == 0:
		budget = memo.DefaultBudget
	case budget < 0:
		budget = 0
	}
	// The greedy regime has two ways in. A lower bound on what the
	// enumeration would consider, read off the serial memo's shape, decides
	// it once it meets the budget: exploring only raises it, so exploration
	// asks as it goes and stops at the first yes with nothing implemented or
	// exported. While it is inconclusive the enumeration runs and may trip.
	regime, floor := explain.Regime{Budget: opts.SearchBudget}, 0
	var decided func(*memo.Memo) bool
	if opts.SearchBudget > 0 && opts.Mode == ModeFull { // the mode the bound is proven for
		decided = func(m *memo.Memo) bool {
			floor = core.SearchLowerBound(m)
			return floor >= opts.SearchBudget
		}
	}
	sp = tr.BeginUnder(osp.ID(), "memo")
	sp.Int("budget", int64(budget))
	m, err := memo.OptimizeUntil(db.shell, norm, budget, decided, seeds...)
	if err != nil {
		return fail(sp, err)
	}
	sp.Int("exprs", int64(m.NumExprs()))
	sp.Int("groups", int64(m.NumGroups()))
	sp.Bool("exhausted", m.Exhausted())
	sp.Bool("decided", m.Decided())
	if m.Decided() {
		regime.Greedy, regime.Bound = true, floor
		tr.Counters().Add("memo.explore_decided", 1)
	}
	sp.End()

	lambda := cost.DefaultLambda()
	if opts.Lambda != nil {
		lambda = *opts.Lambda
	}
	model := cost.NewModel(db.shell.Topology.ComputeNodes, lambda)
	// lower runs the back half of the pipeline — XML round-trip and
	// PDW-side enumeration — over one memo, under the given search
	// budget. Phase spans close themselves on error; the caller decides
	// whether the error fails compilation or switches regimes.
	lower := func(m *memo.Memo, searchBudget int) ([]byte, *memoxml.Decoded, *core.Optimizer, *core.Plan, error) {
		sp := tr.BeginUnder(osp.ID(), "memoxml-encode")
		data, err := memoxml.Encode(m)
		if err != nil {
			sp.SetErr(err)
			sp.End()
			return nil, nil, nil, nil, err
		}
		sp.Int("bytes", int64(len(data)))
		sp.End()

		sp = tr.BeginUnder(osp.ID(), "memoxml-decode")
		dec, err := memoxml.Decode(data, db.shell)
		if err != nil {
			sp.SetErr(err)
			sp.End()
			return nil, nil, nil, nil, err
		}
		sp.End()

		sp = tr.BeginUnder(osp.ID(), "pdw-optimize")
		cfg := core.Config{
			Mode:                        opts.Mode,
			DisableInterestingRetention: opts.DisableInterestingRetention,
			DisableAggSplit:             opts.DisableAggSplit,
			Parallelism:                 opts.Parallelism,
			SearchBudget:                searchBudget,
			Tracer:                      tr,
			TraceParent:                 sp.ID(),
		}
		opt := core.New(dec, db.shell, model, cfg)
		plan, err := opt.Optimize()
		if err != nil {
			sp.SetErr(err)
			sp.End()
			return nil, nil, nil, nil, err
		}
		sp.Int("options_considered", int64(plan.OptionsConsidered))
		sp.End()
		return data, dec, opt, plan, nil
	}

	var (
		data []byte
		dec  *memoxml.Decoded
		opt  *core.Optimizer
		plan *core.Plan
		be   *core.BudgetError
	)
	if !regime.Greedy {
		data, dec, opt, plan, err = lower(m, opts.SearchBudget)
		if errors.As(err, &be) {
			regime.Greedy, regime.Wave, regime.Waves = true, be.Wave, be.Waves
		} else if err != nil {
			osp.SetErr(err)
			return nil, err
		}
	}
	if regime.Greedy {
		// The join order is fixed by the cheapest-feasible-edge heuristic,
		// the memo is rebuilt without exploration, and the enumerator runs
		// with the budget off — the fixed memo bounds the search
		// structurally, and the run still inserts movement enforcers so the
		// plan stays collocation-correct.
		sp = tr.BeginUnder(osp.ID(), "greedy-fallback")
		sp.Int("budget", int64(opts.SearchBudget))
		sp.Int("bound", int64(floor))
		tr.Counters().Add("optimize.greedy_fallback", 1)
		if be != nil {
			sp.Int("predicted", 0)
			sp.Int("considered", be.Considered)
		} else {
			sp.Int("predicted", 1)
			tr.Counters().Add("optimize.greedy_predicted", 1)
		}
		m, err = memo.OptimizeFixed(db.shell, greedyOrder())
		if err != nil {
			return fail(sp, err)
		}
		sp.End()
		data, dec, opt, plan, err = lower(m, 0)
		if err != nil {
			osp.SetErr(err)
			return nil, err
		}
	}

	sp = tr.BeginUnder(osp.ID(), "dsql-gen")
	dp, err := dsql.Generate(plan, norm.OutputCols())
	if err != nil {
		return fail(sp, err)
	}
	sp.Int("steps", int64(len(dp.Steps)))
	sp.End()

	if opts.Verify {
		sp = tr.BeginUnder(osp.ID(), "verify")
		art := planverify.Artifacts{Plan: plan, DSQL: dp, Memo: dec, Shell: db.shell}
		if opts.Mode == ModeFull {
			// The interesting-column closure check mirrors the full
			// logical memo; the serial-baseline mode derives from the
			// winner slice only.
			art.Interesting = opt.Interesting
		}
		rep := planverify.Check(art)
		// Translation validation: re-parse every emitted DSQL step and
		// abstractly re-interpret it (lineage, nullability, distribution)
		// against the plan fragment it was cut from.
		rep.Violations = append(rep.Violations, transval.Check(plan, dp, db.shell)...)
		sp.Int("violations", int64(len(rep.Violations)))
		if verr := rep.Err(); verr != nil {
			return fail(sp, verr)
		}
		sp.End()
	}
	return &QueryPlan{
		SQL:         sql,
		Normalized:  norm,
		Memo:        m,
		MemoXML:     data,
		Distributed: plan,
		DSQL:        dp,
		Regime:      regimeName(regime),
		regime:      regime,
	}, nil
}

// regimeName is QueryPlan.Regime's spelling of a regime: empty when no
// search budget was set.
func regimeName(r explain.Regime) string {
	if r.Budget == 0 {
		return ""
	}
	return r.Name()
}

// Result is a query result.
type Result struct {
	Columns []string
	Rows    []Row
}

// String renders the result as a simple table.
func (r *Result) String() string {
	var b strings.Builder
	b.WriteString(strings.Join(r.Columns, " | "))
	b.WriteByte('\n')
	for _, row := range r.Rows {
		for i, v := range row {
			if i > 0 {
				b.WriteString(" | ")
			}
			b.WriteString(v.String())
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Execute optimizes and runs a query on the simulated appliance, with
// opts.Parallelism and opts.Tracer applied to the run as well as to the
// compilation.
func (db *DB) Execute(sql string, opts Options) (*Result, error) {
	return db.ExecuteContext(context.Background(), sql, opts)
}

// ExecuteContext is Execute with caller-controlled cancellation threaded
// through per-step engine execution: cancelling ctx stops the in-flight
// step's remaining node tasks and fails the run with a typed cancelled
// StepError.
func (db *DB) ExecuteContext(ctx context.Context, sql string, opts Options) (*Result, error) {
	plan, err := db.Optimize(sql, opts)
	if err != nil {
		return nil, err
	}
	return db.Run(ctx, plan, ExecConfig{Parallelism: opts.Parallelism, Tracer: opts.Tracer})
}

// ExecutePlan runs a previously optimized plan under the zero ExecConfig.
func (db *DB) ExecutePlan(plan *QueryPlan) (*Result, error) {
	return db.Run(context.Background(), plan, ExecConfig{})
}

// ExecutePlanContext is ExecutePlan under ctx.
func (db *DB) ExecutePlanContext(ctx context.Context, plan *QueryPlan) (*Result, error) {
	return db.Run(ctx, plan, ExecConfig{})
}

// Run executes a previously optimized plan under ctx and cfg. The
// configuration belongs to this run alone: executions are isolated (each
// rewrites its temp-table names with a unique execution ID) and may
// proceed concurrently on one DB under different configurations — this is
// the entry point the query server dispatches sessions through.
func (db *DB) Run(ctx context.Context, plan *QueryPlan, cfg ExecConfig) (*Result, error) {
	res, err := db.appliance.Execute(ctx, plan.DSQL, cfg)
	if err != nil {
		return nil, err
	}
	return resultOf(res.Cols, res.Rows), nil
}

// ExecuteSerial runs the query on a single in-memory instance holding all
// data — the correctness reference the distributed engine is validated
// against (every distributed result must match it up to row order).
func (db *DB) ExecuteSerial(sql string) (*Result, error) {
	sel, err := sqlparser.ParseSelect(sql)
	if err != nil {
		return nil, err
	}
	b := algebra.NewBinder(db.shell)
	bound, err := b.Bind(sel)
	if err != nil {
		return nil, err
	}
	norm, err := normalize.New(b).Normalize(bound)
	if err != nil {
		return nil, err
	}
	src := func(name string) ([]types.Row, []string, error) {
		t := db.shell.Table(name)
		if t == nil {
			return nil, nil, fmt.Errorf("pdwqo: unknown table %q", name)
		}
		names := make([]string, len(t.Columns))
		for i, c := range t.Columns {
			names[i] = c.Name
		}
		return db.data[t.Name], names, nil
	}
	rel, err := exec.Run(norm, src)
	if err != nil {
		return nil, err
	}
	return resultOf(rel.Cols, rel.Rows), nil
}

func resultOf(cols []algebra.ColumnMeta, rows []types.Row) *Result {
	names := make([]string, len(cols))
	for i, c := range cols {
		names[i] = c.Name
	}
	return &Result{Columns: names, Rows: rows}
}
