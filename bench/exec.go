package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"pdwqo"
	"pdwqo/internal/algebra"
	"pdwqo/internal/catalog"
	"pdwqo/internal/core"
	"pdwqo/internal/cost"
	"pdwqo/internal/dsql"
	"pdwqo/internal/engine"
	"pdwqo/internal/exec"
	"pdwqo/internal/normalize"
	"pdwqo/internal/sqlparser"
	"pdwqo/internal/storage"
	"pdwqo/internal/tpch"
	"pdwqo/internal/vec"
)

// execQuery is one pre-compiled TPC-H plan and the rows it must return.
type execQuery struct {
	name string
	plan *pdwqo.QueryPlan
	want []pdwqo.Row
}

// execWorkload is exec_tpch: one client runs the 22 pre-compiled TPC-H
// plans over and over on a data set large enough that row work, not
// per-query overhead, sets the time.
type execWorkload struct {
	cfg     *config
	db      *pdwqo.DB
	queries []execQuery
	rng     *rand.Rand
}

// Set-up generates and loads sf 0.05, compiles 22 plans and runs the
// serial reference over all of it: tens of seconds, so it runs once.
func (w *execWorkload) setups() int { return 1 }
func (w *execWorkload) warmup() int { return 1 }

func (w *execWorkload) close() { w.db, w.queries = nil, nil }

func (w *execWorkload) setup(tm *setupTimes) error {
	w.queries = nil
	w.rng = rand.New(rand.NewSource(w.cfg.seed))
	sf := w.cfg.sf
	if sf == 0 {
		sf = 0.05
	}
	db, err := openTPCH(sf, tm)
	if err != nil {
		return err
	}
	w.db = db
	for _, q := range tpch.Queries() {
		if w.cfg.small && bigCompile[q.Name] {
			continue
		}
		plan, want, err := planAndCheck(db, q.SQL, pdwqo.Options{Verify: true}, tm)
		if err != nil {
			return fmt.Errorf("%s: %w", q.Name, err)
		}
		w.queries = append(w.queries, execQuery{name: q.Name, plan: plan, want: want})
	}
	return nil
}

// planAndCheck compiles sql, executes the plan once and checks the rows
// against the serial reference. The rows it returns are what every later
// execution of the plan must reproduce exactly.
func planAndCheck(db *pdwqo.DB, sql string, opts pdwqo.Options, tm *setupTimes) (*pdwqo.QueryPlan, []pdwqo.Row, error) {
	plan, err := db.Optimize(sql, opts)
	if err != nil {
		return nil, nil, err
	}
	dist, err := db.ExecutePlan(plan)
	if err != nil {
		return nil, nil, fmt.Errorf("execute: %w", err)
	}
	t := time.Now()
	serial, err := db.ExecuteSerial(sql)
	tm.reference += time.Since(t)
	if err != nil {
		return nil, nil, fmt.Errorf("serial reference: %w", err)
	}
	if err := agreesWithSerial(sql, dist, serial); err != nil {
		return nil, nil, err
	}
	return plan, dist.Rows, nil
}

func (w *execWorkload) planCosts() []float64 {
	costs := make([]float64, len(w.queries))
	for i, q := range w.queries {
		costs[i] = q.plan.Cost()
	}
	return costs
}

func (w *execWorkload) dmsKBPerOp(st runStats) float64 {
	return float64(st.dmsBytes) / 1024 / float64(len(st.samples))
}

func (w *execWorkload) run(more func(int) bool, rec *recorder) runStats {
	var st runStats
	m := &w.db.Appliance().Metrics
	moved := m.TotalBytesMoved()
	for done := 0; more(done); done++ {
		start := time.Now()
		for _, i := range w.rng.Perm(len(w.queries)) {
			q := &w.queries[i]
			id := rec.begin(0, len(st.samples)+1, "engine.execute")
			t := time.Now()
			res, err := w.db.ExecutePlanContext(context.Background(), q.plan)
			st.samples = append(st.samples, sample{slot: i, ms: msSince(t)})
			rec.end(id)
			switch {
			case err != nil:
				st.fail("%s: %v", q.name, err)
			case !sameRows(res.Rows, q.want):
				st.fail("%s: rows differ from the checked set-up run", q.name)
			}
		}
		st.wall += time.Since(start)
	}
	st.dmsBytes = m.TotalBytesMoved() - moved
	return st
}

// traced runs the passes again with a span around each execution, reads
// the engine's own step metrics for them, then replays every step that
// reads only base tables through the node executor, layer by layer.
func (w *execWorkload) traced(more func(int) bool, rec *recorder, untraced runStats, layer map[string]float64) runStats {
	m := &w.db.Appliance().Metrics
	steps, retries := m.StepCount(), m.RetryCount()
	st := w.run(more, rec)
	passes := float64(len(st.samples)) / float64(len(w.queries))
	stepLayers(m.Snapshot()[steps:], rec.totalMS("engine.execute"), passes, layer)
	layer["engine.retries"] = float64(m.RetryCount()-retries) / passes

	plans := make([]*dsql.Plan, len(w.queries))
	for i, q := range w.queries {
		plans[i] = q.plan.DSQL
	}
	if err := replaySteps(w.db, plans, rec, len(st.samples)+1, layer); err != nil {
		st.fail("step replay: %v", err)
	}
	layer["pdwqo.replica_coverage"] = 1 - layer["engine.orchestration_ms"]/layer["engine.execute_ms"]
	layer["trace.overhead_share"] = 1 - st.opsPerS()/untraced.opsPerS()
	return st
}

// stepLayers turns the engine's step metrics for a set of executions into
// the engine.* layer metrics, as sums per pass. execMS is the wall time of
// the executions themselves; what the steps do not account for is
// orchestration: session catalog, step compile, temp-table cleanup.
func stepLayers(steps []engine.StepMetric, execMS, passes float64, layer map[string]float64) {
	var stepMS, bytes, hashBytes, hashMax float64
	for _, s := range steps {
		ms := float64(s.Duration.Nanoseconds()) / 1e6
		stepMS += ms
		switch {
		case !s.IsMove:
			layer["engine.return_ms"] += ms / passes
		case s.Move == cost.Shuffle:
			layer["engine.shuffle_ms"] += ms / passes
		case s.Move == cost.Broadcast:
			layer["engine.broadcast_ms"] += ms / passes
		case s.Move == cost.PartitionMove:
			layer["engine.partition_move_ms"] += ms / passes
		default:
			layer["engine.other_move_ms"] += ms / passes
		}
		if s.IsMove {
			bytes += float64(s.Bytes)
			layer["engine.dms_rows"] += float64(s.Rows) / passes
			layer["engine.hashed_rows"] += float64(s.HashedRow) / passes
			if s.Move.Hashes() {
				hashBytes += float64(s.Bytes)
				hashMax += float64(s.MaxNodeBytes)
			}
		}
	}
	layer["engine.execute_ms"] = execMS / passes
	layer["engine.orchestration_ms"] = (execMS - stepMS) / passes
	layer["engine.steps"] = float64(len(steps)) / passes
	layer["engine.dms_kb"] = bytes / 1024 / passes
	if hashBytes > 0 {
		// The share of hash-routed bytes that landed on the fullest node:
		// 1/nodes when keys spread evenly.
		layer["engine.max_node_share"] = hashMax / hashBytes
	}
}

// sessionShell is the catalog a plan's steps compile against: the base
// tables plus the temp table each move step publishes.
func sessionShell(base *catalog.Shell, p *dsql.Plan) (*catalog.Shell, error) {
	s := catalog.NewShell(base.Topology.ComputeNodes)
	for _, t := range base.Tables() {
		if err := s.AddTable(t); err != nil {
			return nil, err
		}
	}
	for _, step := range p.Steps {
		if step.Kind != dsql.StepMove {
			continue
		}
		dist := catalog.Distribution{Kind: catalog.DistReplicated}
		if step.MoveKind.Hashes() {
			dist = catalog.Distribution{Kind: catalog.DistHash, Column: step.HashCol}
		}
		if err := s.AddTable(&catalog.Table{Name: step.Dest, Columns: step.DestCols, Dist: dist}); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// compileStep is what a node's local SQL instance does with a step's
// text: parse, bind, normalize.
func compileStep(sql string, session *catalog.Shell) (*algebra.Tree, error) {
	sel, err := sqlparser.ParseSelect(sql)
	if err != nil {
		return nil, err
	}
	b := algebra.NewBinder(session)
	tree, err := b.Bind(sel)
	if err != nil {
		return nil, err
	}
	return normalize.New(b).Normalize(tree)
}

// readsOnly reports whether every table the tree scans is in shell.
func readsOnly(t *algebra.Tree, shell *catalog.Shell) bool {
	if g, ok := t.Op.(*algebra.Get); ok && shell.Table(g.Table.Name) == nil {
		return false
	}
	for _, c := range t.Children {
		if !readsOnly(c, shell) {
			return false
		}
	}
	return true
}

// replaySteps times, from outside, the layers under one execution of each
// plan. Every step is compiled the way the engine compiles it. A step
// that reads only base tables is then run on each compute node that would
// run it, with the node executor and the storage scan in spans of their
// own, and the rows it produced are columnarized and bulk-inserted into a
// scratch database: what delivering them costs the next step.
func replaySteps(db *pdwqo.DB, plans []*dsql.Plan, rec *recorder, firstOp int, layer map[string]float64) error {
	base, app := db.Shell(), db.Appliance()
	scratch := storage.NewDB()
	for pi, p := range plans {
		op := firstOp + pi
		session, err := sessionShell(base, p)
		if err != nil {
			return err
		}
		for _, step := range p.Steps {
			id := rec.begin(0, op, "engine.step_compile")
			tree, err := compileStep(step.SQL, session)
			rec.end(id)
			if err != nil {
				return fmt.Errorf("step %d: %w", step.ID, err)
			}
			if !readsOnly(tree, base) || step.Where == core.DistSingle {
				continue
			}
			targets := app.Compute
			if step.Where == core.DistReplicated {
				targets = targets[:1]
			}
			tree.OutputCols()
			for _, n := range targets {
				var stats exec.Stats
				run := rec.begin(0, op, "exec.runvec")
				rel, err := exec.RunVecStats(tree, func(name string) (*vec.Table, error) {
					scan := rec.begin(run, op, "storage.scan_columns")
					defer rec.end(scan)
					return n.DB.ScanColumns(name)
				}, &stats)
				rec.end(run)
				if err != nil {
					return fmt.Errorf("step %d on node %d: %w", step.ID, n.ID, err)
				}
				rec.count("exec.ops", float64(stats.Ops))
				rec.count("exec.rows_out", float64(stats.Rows))
				rec.count("exec.scan_rows", float64(stats.ScanRows))
				rec.count("exec.batches", float64(stats.Batches))

				cols := make([]catalog.Column, len(rel.Cols))
				names := make([]string, len(rel.Cols))
				for i, c := range rel.Cols {
					names[i] = fmt.Sprintf("c%d", i)
					cols[i] = catalog.Column{Name: names[i], Type: c.Type}
				}
				id = rec.begin(0, op, "vec.from_rows")
				vec.FromRows(names, rel.Rows)
				rec.end(id)
				if err := scratch.Create("t", cols); err != nil {
					return err
				}
				id = rec.begin(0, op, "storage.bulk_insert")
				err = scratch.BulkInsert("t", rel.Rows)
				rec.end(id)
				scratch.Drop("t")
				if err != nil {
					return err
				}
			}
		}
	}
	self := rec.selfMS()
	for _, name := range []string{"engine.step_compile", "exec.runvec", "storage.scan_columns", "vec.from_rows", "storage.bulk_insert"} {
		layer[name+"_ms"] = self[name]
	}
	for _, name := range []string{"exec.ops", "exec.rows_out", "exec.scan_rows", "exec.batches"} {
		layer[name] = rec.counts[name]
	}
	return nil
}
