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
	"fmt"
	"strings"

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
	// memo.DefaultBudget, negative means unlimited. A query the
	// SearchBudget sends to the greedy regime explores nothing.
	Budget int
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
	// SearchBudget bounds the search space a compile may take on, in the
	// units of core.SearchSpace: the weight of the memo that exploring the
	// normalized tree to its fixpoint builds (groups, plus two per join
	// split, per non-root node), counted off the tree before any memo
	// exists. 0 or less disables the cap (exhaustive search, the default).
	// When the count meets the budget, compilation does not fail: it plans
	// in the greedy regime — the join order is fixed by the
	// cheapest-feasible-edge heuristic (normalize.GreedyJoinOrder), the
	// memo is built without exploration, and the enumerator runs over that
	// structurally bounded search space, still inserting movement
	// enforcers so the plan stays collocation-correct. Otherwise the memo
	// is explored under Budget and the enumerator covers all of it. The
	// decision is made once, in every Mode; QueryPlan.Regime reports it,
	// and the EXPLAIN header prints the count beside the budget.
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
	if err := shell.BuildMissingStats(data); err != nil {
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
	// search budget was set, "exhaustive" when one was set and the
	// search space stayed below it, and "greedy" when the search space
	// met it and the plan came from the greedy join-order regime.
	Regime string
	// regime is what EXPLAIN prints of it: the budget in force and the
	// search space counted against it.
	regime explain.Regime
}

// Cost returns the plan's modeled DMS cost.
func (p *QueryPlan) Cost() float64 { return p.Distributed.TotalCost }

// Moves counts data-movement operations by kind.
func (p *QueryPlan) Moves() map[MoveKind]int { return p.Distributed.Root.CountMoves() }

// Optimize compiles a SQL query into a distributed plan. With a plan
// cache installed (SetPlanCache), the query is parameterized and the
// cache is consulted first; a hit re-binds the cached template's literal
// slots instead of running the pipeline.
func (db *DB) Optimize(sql string, opts Options) (*QueryPlan, error) {
	if db.planCache == nil {
		qp, _, err := db.compile(sql, opts, nil)
		return qp, err
	}
	return db.optimizeCached(sql, opts)
}

// cachedPlan is the value the plan cache stores: a compiled QueryPlan
// whose DSQL text may carry literal-slot placeholders, plus whether it is
// safe to re-bind to different constants.
type cachedPlan struct {
	qp *QueryPlan
	// rebindable means every literal slot's constants survived
	// compilation holding their own values, so the template is published
	// under the shape fingerprint and can serve any same-shape query.
	// Value-dependent plans (a fold consumed a literal) stay pinned to
	// their exact literal signature.
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
		// The lexer rejected the text, or it holds a raw parameter marker;
		// compile cold so the caller gets the same error the parser or the
		// binder produces without a cache.
		qp, _, err := db.compile(sql, opts, nil)
		return qp, err
	}
	epoch := db.shell.Epoch()
	fp := pq.Fingerprint(db.envSignature(opts))
	sp := tr.Begin("plancache")
	defer sp.End()
	if v, ok := cache.Get(fp, epoch); ok {
		// Equal fingerprints mean equal Canon, hence equal slot counts.
		qp := v.(*cachedPlan).rebind(sql, pq)
		qp.CacheStatus = "hit"
		sp.Str("outcome", "hit")
		tr.Counters().Add("optimize.cache.hit", 1)
		return qp, nil
	}
	fpExact := fp + "|" + pq.LitSig()
	v, outcome, err := cache.Do(fpExact, epoch, func() (any, error) {
		qp, rebindable, cerr := db.compile(sql, opts, pq)
		if cerr != nil {
			// Parameterization can perturb compilation (e.g. an ORDER BY
			// expression no longer matching a slotted select item by
			// fingerprint); retry cold before failing so a cache never
			// rejects a query that compiles without one.
			qp, rebindable, cerr = db.compile(sql, opts, nil)
		}
		if cerr != nil {
			return nil, cerr
		}
		return &cachedPlan{qp: qp, rebindable: rebindable}, nil
	})
	if err != nil {
		sp.SetErr(err)
		tr.Counters().Add("optimize.cache.error", 1)
		return nil, err
	}
	t := v.(*cachedPlan)
	if t.rebindable {
		cache.Move(fpExact, fp, epoch, t)
	}
	qp := t.rebind(sql, pq)
	qp.CacheStatus = outcome.String()
	sp.Str("outcome", qp.CacheStatus)
	tr.Counters().Add("optimize.cache."+qp.CacheStatus, 1)
	return qp, nil
}

// envSignature renders every plan-affecting input beyond the query text —
// optimizer options and appliance topology — and Verify, so a caller who
// asks for a verified plan never gets one compiled unverified. Parallelism
// and tracing are deliberately excluded — they never change the plan (the
// difftest harness certifies plans are identical across Parallelism
// settings) — and every SearchBudget ≤ 0 is the one "no cap".
func (db *DB) envSignature(opts Options) string {
	return fmt.Sprintf("mode=%d budget=%d sb=%d noir=%t nosplit=%t seedcol=%t verify=%t nodes=%d",
		opts.Mode, opts.Budget, max(opts.SearchBudget, 0), opts.DisableInterestingRetention,
		opts.DisableAggSplit, opts.SeedCollocated, opts.Verify,
		db.shell.Topology.ComputeNodes)
}

// compile runs the Figure 2 pipeline. A non-nil pq compiles the query's
// marker template instead of its text (ParamQuery.Template), with the
// compile each compute node runs on a step (normalize.Compile), so the
// generated DSQL carries re-binding placeholders. rebindable reports
// whether that plan may serve other literal values: every slot bound a
// constant and every one of them survived normalization.
func (db *DB) compile(sql string, opts Options, pq *normalize.ParamQuery) (qp *QueryPlan, rebindable bool, err error) {
	tr := opts.Tracer
	osp := tr.Begin("optimize")
	defer osp.End()
	// fail closes the current phase span and the root span with the error.
	fail := func(sp trace.Active, err error) (*QueryPlan, bool, error) {
		sp.SetErr(err)
		sp.End()
		osp.SetErr(err)
		return nil, false, err
	}

	text, args := sql, []types.Value(nil)
	if pq != nil {
		text, args = pq.Template()
	}
	norm, slots, exact, err := normalize.Compile(db.shell, text, args, tr, osp.ID())
	if err != nil {
		osp.SetErr(err)
		return nil, false, err
	}
	rebindable = pq != nil && exact && len(slots) == len(args)

	// The regime is decided once, from the tree: the greedy join-order
	// regime when a search budget is set and the search space meets it,
	// else exploration under Budget and a full enumeration of the memo.
	var sp trace.Active
	var regime explain.Regime
	if opts.SearchBudget > 0 {
		regime.Budget, regime.SearchSpace = opts.SearchBudget, core.SearchSpace(norm)
		regime.Greedy = regime.SearchSpace >= regime.Budget
	}
	var m *memo.Memo
	if regime.Greedy {
		// The join order is fixed by the cheapest-feasible-edge heuristic
		// and the memo is built without exploration; the enumerator still
		// inserts movement enforcers, so the plan stays
		// collocation-correct.
		sp = tr.BeginUnder(osp.ID(), "greedy-fallback")
		sp.Int("budget", int64(regime.Budget))
		sp.Int("search_space", int64(regime.SearchSpace))
		tr.Counters().Add("optimize.greedy_fallback", 1)
		m, err = memo.OptimizeFixed(db.shell, normalize.GreedyJoinOrder(norm))
		if err != nil {
			return fail(sp, err)
		}
		sp.End()
	} else {
		var seeds []*algebra.Tree
		if opts.SeedCollocated {
			// §3.1: seed the MEMO with a distribution-aware plan — the
			// greedy regime's join order — *alongside* the normalized one,
			// so a tight budget still explores the collocated neighborhood.
			if g := normalize.GreedyJoinOrder(norm); g.Fingerprint() != norm.Fingerprint() {
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
		sp = tr.BeginUnder(osp.ID(), "memo")
		sp.Int("budget", int64(budget))
		m, err = memo.OptimizeSeeded(db.shell, norm, budget, seeds...)
		if err != nil {
			return fail(sp, err)
		}
		sp.Int("exprs", int64(m.NumExprs()))
		sp.Int("groups", int64(m.NumGroups()))
		sp.Bool("exhausted", m.Exhausted())
		sp.End()
	}
	if opts.Mode == ModeSerialBaseline {
		if err := m.CostSerial(); err != nil {
			osp.SetErr(err)
			return nil, false, err
		}
	}

	sp = tr.BeginUnder(osp.ID(), "memoxml-encode")
	data, err := memoxml.Encode(m)
	if err != nil {
		return fail(sp, err)
	}
	sp.Int("bytes", int64(len(data)))
	sp.End()

	sp = tr.BeginUnder(osp.ID(), "memoxml-decode")
	dec, err := memoxml.Decode(data, db.shell)
	if err != nil {
		return fail(sp, err)
	}
	sp.End()

	sp = tr.BeginUnder(osp.ID(), "pdw-optimize")
	opt := core.New(dec, db.shell, cost.NewModel(db.shell.Topology.ComputeNodes, cost.DefaultLambda()), core.Config{
		Mode:                        opts.Mode,
		DisableInterestingRetention: opts.DisableInterestingRetention,
		DisableAggSplit:             opts.DisableAggSplit,
		Parallelism:                 opts.Parallelism,
		Tracer:                      tr,
		TraceParent:                 sp.ID(),
	})
	plan, err := opt.Optimize()
	if err != nil {
		return fail(sp, err)
	}
	sp.Int("options_considered", int64(plan.OptionsConsidered))
	sp.End()

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
	}, rebindable, nil
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
// stores its temp tables under names carrying a unique execution ID) and may
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
// against (every distributed result must match it up to row order). The
// tree comes from the same compile as the optimizer's (normalize.Compile)
// and runs on the row engine (exec.Run), the oracle the nodes' vectorized
// engine answers to.
func (db *DB) ExecuteSerial(sql string) (*Result, error) {
	norm, _, _, err := normalize.Compile(db.shell, sql, nil, nil, 0)
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
