package main

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"pdwqo"
	"pdwqo/internal/algebra"
	"pdwqo/internal/core"
	"pdwqo/internal/cost"
	"pdwqo/internal/difftest"
	"pdwqo/internal/dsql"
	"pdwqo/internal/memo"
	"pdwqo/internal/memoxml"
	"pdwqo/internal/normalize"
	"pdwqo/internal/planverify"
	"pdwqo/internal/planverify/transval"
	"pdwqo/internal/qgen"
	"pdwqo/internal/sqlparser"
	"pdwqo/internal/tpch"
)

// largeJoinBudget is the PDW-side search budget of compile_largejoin. All
// eight generated queries trip it, so every operation runs the greedy
// regime: exhaustive attempt, greedy join order, fixed memo, second XML
// round trip.
const largeJoinBudget = 5000

// compileQuery is one query of a compile workload with everything the
// set-up run learnt about it.
type compileQuery struct {
	name, sql string
	db        *pdwqo.DB
	dsql      string  // the DSQL text every later compile must reproduce
	cost      float64 // modeled DMS cost of the plan
}

// compileWorkload is compile_tpch (the 22 TPC-H queries, exhaustive
// search) or, with large set, compile_largejoin (eight generated 10- and
// 30-relation joins under a search budget). One client, no plan cache:
// every operation is a cold DB.Optimize with the verifiers on.
type compileWorkload struct {
	cfg     *config
	large   bool
	opts    pdwqo.Options
	queries []compileQuery
	rng     *rand.Rand
	// setupDMS is what executing each compiled plan once moved.
	setupDMS int64
}

// A compile pass costs seconds, and set-up compiles every query once to
// learn its DSQL and check its result, so set-up runs once and doubles as
// the warm-up pass.
func (w *compileWorkload) setups() int { return 1 }
func (w *compileWorkload) warmup() int { return 0 }

func (w *compileWorkload) close() { w.queries = nil }

func (w *compileWorkload) setup(tm *setupTimes) error {
	w.queries, w.setupDMS = nil, 0
	w.rng = rand.New(rand.NewSource(w.cfg.seed))
	w.opts = pdwqo.Options{Verify: true}
	if w.large {
		w.opts.SearchBudget = largeJoinBudget
		if w.cfg.small {
			w.opts.SearchBudget = 1 // trips at the first wave, whatever the query's size
		}
		if err := w.openLargeJoins(tm); err != nil {
			return err
		}
	} else if err := w.openTPCH(tm); err != nil {
		return err
	}
	for i := range w.queries {
		q := &w.queries[i]
		plan, err := q.db.Optimize(q.sql, w.opts)
		if err != nil {
			return fmt.Errorf("%s: %w", q.name, err)
		}
		if w.large && plan.Regime != "greedy" {
			return fmt.Errorf("%s: regime %q, want greedy", q.name, plan.Regime)
		}
		q.dsql, q.cost = plan.DSQL.String(), plan.Cost()
		dist, err := q.db.ExecutePlan(plan)
		if err != nil {
			return fmt.Errorf("%s: execute: %w", q.name, err)
		}
		t := time.Now()
		serial, err := q.db.ExecuteSerial(q.sql)
		tm.reference += time.Since(t)
		if err != nil {
			return fmt.Errorf("%s: serial reference: %w", q.name, err)
		}
		if err := agreesWithSerial(q.sql, dist, serial); err != nil {
			return fmt.Errorf("%s: %w", q.name, err)
		}
	}
	seen := map[*pdwqo.DB]bool{}
	for _, q := range w.queries {
		if !seen[q.db] {
			seen[q.db] = true
			w.setupDMS += q.db.Appliance().Metrics.TotalBytesMoved()
		}
	}
	return nil
}

func (w *compileWorkload) openTPCH(tm *setupTimes) error {
	sf := w.cfg.sf
	if sf == 0 {
		sf = 0.01
	}
	db, err := openTPCH(sf, tm)
	if err != nil {
		return err
	}
	for _, q := range tpch.Queries() {
		if w.cfg.small && bigCompile[q.Name] {
			continue
		}
		w.queries = append(w.queries, compileQuery{name: q.Name, sql: q.SQL, db: db})
	}
	return nil
}

// bigCompile names the TPC-H queries whose cold compile takes more than a
// second; together they are nine tenths of a compile_tpch pass.
var bigCompile = map[string]bool{"q02": true, "q05": true, "q07": true, "q08": true, "q09": true}

func (w *compileWorkload) openLargeJoins(tm *setupTimes) error {
	sizes := []int{10, 30}
	if w.cfg.small {
		sizes = []int{4}
	}
	for _, topo := range qgen.Topologies() {
		for _, n := range sizes {
			t := time.Now()
			q, err := qgen.Generate(qgen.Spec{Topology: topo, Relations: n, Seed: dataSeed*1000 + int64(n), Nodes: nodes})
			tm.buildShell += time.Since(t)
			if err != nil {
				return err
			}
			t = time.Now()
			db, err := difftest.OpenQGen(q)
			tm.open += time.Since(t)
			if err != nil {
				return fmt.Errorf("%s: %w", q.Name, err)
			}
			w.queries = append(w.queries, compileQuery{name: q.Name, sql: q.SQL, db: db})
		}
	}
	return nil
}

// openTPCH generates and loads the TPC-H appliance, timing generation and
// load separately.
func openTPCH(sf float64, tm *setupTimes) (*pdwqo.DB, error) {
	t := time.Now()
	shell, data, err := tpch.BuildShell(sf, nodes, dataSeed)
	tm.buildShell += time.Since(t)
	if err != nil {
		return nil, err
	}
	t = time.Now()
	db, err := pdwqo.Open(shell, data)
	tm.open += time.Since(t)
	return db, err
}

func (w *compileWorkload) planCosts() []float64 {
	costs := make([]float64, len(w.queries))
	for i, q := range w.queries {
		costs[i] = q.cost
	}
	return costs
}

// dmsKBPerOp is what the compiled plans moved when set-up executed each
// of them once: the measured counterpart of the modeled plan cost.
func (w *compileWorkload) dmsKBPerOp(runStats) float64 {
	return float64(w.setupDMS) / 1024 / float64(len(w.queries))
}

func (w *compileWorkload) run(more func(int) bool, rec *recorder) runStats {
	return w.passes(more, func(q *compileQuery, _ int) (string, error) {
		plan, err := q.db.Optimize(q.sql, w.opts)
		if err != nil {
			return "", err
		}
		return plan.DSQL.String(), nil
	})
}

// passes times compile, which returns the DSQL text it produced, on every
// query in seeded order, pass after pass. The text is compared after the
// timer stops.
func (w *compileWorkload) passes(more func(int) bool, compile func(q *compileQuery, op int) (string, error)) runStats {
	var st runStats
	for done := 0; more(done); done++ {
		start := time.Now()
		for _, i := range w.rng.Perm(len(w.queries)) {
			q := &w.queries[i]
			t := time.Now()
			text, err := compile(q, len(st.samples)+1)
			st.samples = append(st.samples, sample{slot: i, ms: msSince(t)})
			switch {
			case err != nil:
				st.fail("%s: %v", q.name, err)
			case text != q.dsql:
				st.fail("%s: DSQL differs from the set-up compile", q.name)
			}
		}
		st.wall += time.Since(start)
	}
	return st
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// traced compiles every query twice in a row, through DB.Optimize and
// through replica, a copy of pdwqo's compile pipeline made of the layers'
// exported calls with a span around each. Pairing them query by query
// lets coverage and overhead compare two times taken in the same second,
// not two phases of the run.
func (w *compileWorkload) traced(more func(int) bool, rec *recorder, _ runStats, layer map[string]float64) runStats {
	var plainMS float64
	st := w.passes(more, func(q *compileQuery, op int) (string, error) {
		t := time.Now()
		if _, err := q.db.Optimize(q.sql, w.opts); err != nil {
			return "", err
		}
		plainMS += msSince(t)
		dp, err := replica(q.db, q.sql, w.opts, rec, op)
		if err != nil {
			return "", err
		}
		return dp.String(), nil
	})
	passes := float64(len(st.samples)) / float64(len(w.queries))
	var layers float64
	for name, ms := range rec.selfMS() {
		if name != "pdwqo.optimize" {
			layer[name+"_ms"] = ms / passes
			layers += ms
		}
	}
	for name, n := range rec.counts {
		layer[name] = n / passes
	}
	layer["pdwqo.replica_coverage"] = layers / plainMS
	layer["trace.overhead_share"] = 1 - plainMS/rec.totalMS("pdwqo.optimize")
	return st
}

// replica is pdwqo.DB.Optimize without a plan cache, rebuilt from the
// calls each layer exports, so that every layer can be timed from outside.
// It must stay a faithful copy: the workload fails unless the DSQL text it
// returns equals DB.Optimize's.
func replica(db *pdwqo.DB, sql string, opts pdwqo.Options, rec *recorder, op int) (*dsql.Plan, error) {
	root := rec.begin(0, op, "pdwqo.optimize")
	defer rec.end(root)
	shell := db.Shell()

	id := rec.begin(root, op, "sqlparser.parse")
	sel, err := sqlparser.ParseSelect(sql)
	rec.end(id)
	if err != nil {
		return nil, err
	}
	id = rec.begin(root, op, "algebra.bind")
	b := algebra.NewBinder(shell)
	bound, err := b.Bind(sel)
	rec.end(id)
	if err != nil {
		return nil, err
	}
	id = rec.begin(root, op, "normalize.normalize")
	norm, err := normalize.New(b).Normalize(bound)
	rec.end(id)
	if err != nil {
		return nil, err
	}
	id = rec.begin(root, op, "memo.explore")
	m, err := memo.OptimizeSeeded(shell, norm, memo.DefaultBudget)
	rec.end(id)
	if err != nil {
		return nil, err
	}

	model := cost.NewModel(shell.Topology.ComputeNodes, cost.DefaultLambda())
	// lower is the back half of the pipeline over one memo: the XML round
	// trip and the PDW-side enumeration under a search budget.
	lower := func(m *memo.Memo, budget int) (*memoxml.Decoded, *core.Optimizer, *core.Plan, error) {
		id := rec.begin(root, op, "memoxml.encode")
		data, err := memoxml.Encode(m)
		rec.end(id)
		if err != nil {
			return nil, nil, nil, err
		}
		rec.count("memoxml.doc_kb", float64(len(data))/1024)
		rec.count("memoxml.roundtrips", 1)
		id = rec.begin(root, op, "memoxml.decode")
		dec, err := memoxml.Decode(data, shell)
		rec.end(id)
		if err != nil {
			return nil, nil, nil, err
		}
		id = rec.begin(root, op, "core.enumerate")
		opt := core.New(dec, shell, model, core.Config{SearchBudget: budget})
		plan, err := opt.Optimize()
		rec.end(id)
		if err != nil {
			return nil, nil, nil, err
		}
		rec.count("core.options_considered", float64(plan.OptionsConsidered))
		rec.count("core.groups", float64(plan.Groups))
		return dec, opt, plan, nil
	}
	dec, opt, plan, err := lower(m, opts.SearchBudget)
	var be *core.BudgetError
	if errors.As(err, &be) {
		rec.count("core.greedy_fallbacks", 1)
		rec.count("core.options_considered", float64(be.Considered))
		id = rec.begin(root, op, "normalize.greedy_order")
		order := normalize.GreedyJoinOrder(norm)
		rec.end(id)
		id = rec.begin(root, op, "memo.fixed")
		m, err = memo.OptimizeFixed(shell, order)
		rec.end(id)
		if err != nil {
			return nil, err
		}
		dec, opt, plan, err = lower(m, 0)
	}
	if err != nil {
		return nil, err
	}

	id = rec.begin(root, op, "dsql.generate")
	dp, err := dsql.Generate(plan, norm.OutputCols())
	rec.end(id)
	if err != nil {
		return nil, err
	}
	if opts.Verify {
		id = rec.begin(root, op, "planverify.check")
		rep := planverify.Check(planverify.Artifacts{Plan: plan, DSQL: dp, Memo: dec, Shell: shell, Interesting: opt.Interesting})
		rec.end(id)
		id = rec.begin(root, op, "planverify.transval")
		rep.Violations = append(rep.Violations, transval.Check(plan, dp, shell)...)
		rec.end(id)
		if err := rep.Err(); err != nil {
			return nil, err
		}
	}
	return dp, nil
}
