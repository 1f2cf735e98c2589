// Package engine simulates the PDW appliance (paper §2.1–§2.4): a control
// node plus N compute nodes, each owning a node-local database instance and
// a DMS endpoint. DSQL plans execute exactly as described in the paper —
// steps run serially; each step ships a SQL *string* to the participating
// nodes, whose local engines parse and execute it themselves, concurrently
// across nodes; DMS operations route the resulting column batches into temp
// tables; the final step streams rows back to the client through the
// control node, the one place results are boxed into rows.
//
// Node-level work inside one step fans out through par.For, the one loop
// every worker count runs (ExecConfig.Parallelism; default GOMAXPROCS).
// Parallelism == 1 runs that loop on the calling goroutine alone — the
// strictly serial reference order: the differential harness
// (internal/difftest) certifies byte-identical results at every setting.
// Each node stores its tables in one columnar form (internal/storage) and
// evaluates a step with the vectorized executor.
//
// The appliance is shared infrastructure: nodes, their data and the
// lifetime-aggregate Metrics. Everything about one query's run — how it is
// configured (ExecConfig), its isolated plan, its session catalog and temp
// tables, the steps it recorded and its retry / fault tallies — lives in a
// per-run value (paper §2.3–§2.4), so concurrent executions with different
// configurations share no mutable state beyond the nodes' storage.
package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"pdwqo/internal/algebra"
	"pdwqo/internal/catalog"
	"pdwqo/internal/core"
	"pdwqo/internal/cost"
	"pdwqo/internal/dsql"
	"pdwqo/internal/exec"
	"pdwqo/internal/normalize"
	"pdwqo/internal/par"
	"pdwqo/internal/sqlparser"
	"pdwqo/internal/storage"
	"pdwqo/internal/trace"
	"pdwqo/internal/types"
	"pdwqo/internal/vec"
)

// Node is one appliance node: the control node or a compute node.
type Node struct {
	ID        int
	IsControl bool
	DB        *storage.DB
}

// StepMetric records one executed step for calibration and experiments.
type StepMetric struct {
	// StepID is the DSQL step that produced this measurement, so EXPLAIN
	// ANALYZE can line actuals up against the optimizer's estimates.
	StepID    int
	Move      cost.MoveKind
	IsMove    bool
	Rows      int64
	Bytes     int64
	HashedRow int64 // rows that went through hash routing
	// MaxNodeBytes is the largest per-destination-node byte share: under
	// the uniformity assumption it is ≈ Bytes/N for shuffles; skewed keys
	// push it toward Bytes (E13).
	MaxNodeBytes int64
	Duration     time.Duration
	// Attempts is how many executions the step took to succeed (1 = no
	// retries fired).
	Attempts int
	// LocalOps/LocalRows tally the node-local evaluation work behind the
	// step (operator nodes run and rows they produced, summed over the
	// source nodes). Collected only while tracing, zero otherwise.
	LocalOps  int64
	LocalRows int64
	// LocalBatches counts the column batches the vectorized executor
	// emitted for the step (zero under the row engine or untraced).
	LocalBatches int64
}

// Metrics accumulates execution measurements. The step slice is private:
// it is appended concurrently with reader access, so every consumer goes
// through the locked accessors (Snapshot, StepCount, TotalBytesMoved) —
// an unlocked read of the slice would race with execution.
type Metrics struct {
	mu    sync.Mutex
	steps []StepMetric
	// retries counts step attempts beyond the first; faults counts
	// injected faults that fired. Both live under mu — fault sites run
	// concurrently on the worker pool.
	retries int64
	faults  int64
}

func (m *Metrics) add(s StepMetric) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.steps = append(m.steps, s)
}

func (m *Metrics) addRetry() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.retries++
}

func (m *Metrics) addFault() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.faults++
}

// RetryCount returns how many step re-executions the retry layer issued.
func (m *Metrics) RetryCount() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.retries
}

// FaultCount returns how many injected faults fired on this appliance.
func (m *Metrics) FaultCount() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.faults
}

// TotalBytesMoved sums DMS bytes across steps.
func (m *Metrics) TotalBytesMoved() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var n int64
	for _, s := range m.steps {
		if s.IsMove {
			n += s.Bytes
		}
	}
	return n
}

// StepCount returns the number of recorded steps under the lock; safe to
// call while queries execute concurrently.
func (m *Metrics) StepCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.steps)
}

// Snapshot returns a copy of the recorded steps. Callers observing metrics
// while the appliance executes (experiment harnesses, monitors, EXPLAIN
// ANALYZE) must use this: the slice is appended under the mutex, and an
// unlocked read races with execution.
func (m *Metrics) Snapshot() []StepMetric {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]StepMetric(nil), m.steps...)
}

// Export feeds the accumulated totals into a tracer counter registry (the
// observability layer's bridge from engine measurements to exported
// counters). Nil-safe on the registry side.
func (m *Metrics) Export(reg *trace.Registry) {
	reg.Set("exec.steps", int64(m.StepCount()))
	reg.Set("exec.bytes_moved", m.TotalBytesMoved())
	reg.Set("exec.retries", m.RetryCount())
	reg.Set("exec.faults", m.FaultCount())
}

// Appliance is the simulated PDW box: the nodes, their data and the
// lifetime-aggregate Metrics. It holds nothing about any one execution.
type Appliance struct {
	Shell   *catalog.Shell
	Control *Node
	Compute []*Node
	Metrics Metrics

	// execSeq numbers executions; each run rewrites its plan's temp-table
	// names with the ID (dsql.Plan.Isolate) so concurrent executions on
	// one appliance never collide on the nodes' local storage.
	execSeq atomic.Uint64
}

// ExecConfig configures one execution. It is a plain value handed to
// Execute and dies with the run; the zero value is the default
// configuration (GOMAXPROCS workers, no retries, no faults, untraced).
type ExecConfig struct {
	// Parallelism bounds the worker pool that fans node-local work out
	// within one step: 0 means GOMAXPROCS, 1 means strictly serial, n > 1
	// caps concurrent node tasks at n. Steps themselves always run
	// serially (paper §2.4).
	Parallelism int
	// NodeLatency simulates the control→compute dispatch round trip paid
	// once per node per step (network hop + remote statement setup). The
	// default 0 keeps tests exact; experiments set it to make node-overlap
	// speedups observable regardless of host core count.
	NodeLatency time.Duration

	// MaxRetries is how many times a failed idempotent step is re-executed
	// after its partial temp table is cleaned up. 0 disables retries.
	// Non-idempotent steps (Return) and deterministic failures (exec
	// errors) never retry regardless.
	MaxRetries int
	// StepTimeout bounds each step attempt; the attempt's context is
	// cancelled at the deadline and the failure classifies as
	// ErrKindTimeout (retryable). 0 disables the bound.
	StepTimeout time.Duration
	// RetryBackoff is the delay before the first retry; it doubles per
	// subsequent retry, capped at maxRetryBackoff. 0 means defaultBackoff.
	RetryBackoff time.Duration
	// Faults is the run's fault-injection plan; nil injects nothing.
	Faults *FaultPlan

	// RowExec evaluates steps with the row-at-a-time reference executor
	// (exec.Run, over rows boxed from the column store) instead of the
	// vectorized engine. Only internal/difftest sets it, to certify the
	// two byte-identical.
	RowExec bool

	// Tracer records per-step execution spans (payload: the step's
	// StepMetric) and feeds the exec.* counters. Nil disables tracing at
	// zero cost on the execution path.
	Tracer *trace.Tracer

	// sleep waits between retry attempts; tests swap in a fake clock so
	// backoff arithmetic is assertable without real time passing.
	sleep func(ctx context.Context, d time.Duration) error
}

// Backoff bounds: the first retry waits RetryBackoff (or defaultBackoff),
// doubling per retry up to maxRetryBackoff.
const (
	defaultBackoff  = time.Millisecond
	maxRetryBackoff = 250 * time.Millisecond
)

// backoffDelay is the capped exponential wait before retry `attempt`
// (attempt 1 = first retry): base·2^(attempt−1), clamped to max.
func backoffDelay(base, max time.Duration, attempt int) time.Duration {
	if base <= 0 {
		base = defaultBackoff
	}
	d := base
	for i := 1; i < attempt && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	return d
}

// New builds an appliance for the shell's topology with empty storage.
func New(shell *catalog.Shell) *Appliance {
	a := &Appliance{
		Shell:   shell,
		Control: &Node{ID: -1, IsControl: true, DB: storage.NewDB()},
	}
	for i := 0; i < shell.Topology.ComputeNodes; i++ {
		a.Compute = append(a.Compute, &Node{ID: i, DB: storage.NewDB()})
	}
	return a
}

// LoadTable places a table's rows per its declared distribution:
// replicated tables land on every compute node, hash tables are routed by
// the distribution column. Per-node loads fan out over GOMAXPROCS workers.
func (a *Appliance) LoadTable(name string, rows []types.Row) error {
	tbl := a.Shell.Table(name)
	if tbl == nil {
		return fmt.Errorf("engine: unknown table %q", name)
	}
	buckets := make([][]types.Row, len(a.Compute))
	if tbl.Dist.Kind == catalog.DistReplicated {
		for i := range buckets {
			buckets[i] = rows
		}
	} else {
		ci := tbl.ColumnIndex(tbl.Dist.Column)
		for _, r := range rows {
			n := int(types.Hash(r[ci]) % uint64(len(a.Compute)))
			buckets[n] = append(buckets[n], r)
		}
	}
	n := len(a.Compute)
	return par.For(context.Background(), n, workers(0, n), func(_ context.Context, i int) error {
		db := a.Compute[i].DB
		if err := db.Create(tbl.Name, tbl.Columns); err != nil {
			return err
		}
		return db.BulkInsert(tbl.Name, buckets[i])
	})
}

// Result is the client-visible query result plus the run's own record:
// the steps it completed, in execution order, and its retry / fault
// tallies. Execute returns the record alongside the error when a run
// fails, covering the steps that completed; Cols and Rows are set only on
// success.
type Result struct {
	Cols []algebra.ColumnMeta
	Rows []types.Row

	Steps   []StepMetric
	Retries int64
	Faults  int64
}

// run is everything one execution owns: its configuration, the isolated
// plan, the session catalog (shell tables plus the temp tables its steps
// publish), the temp tables to drop when it ends, and what it recorded.
// Nothing here is shared with another execution.
type run struct {
	a       *Appliance
	cfg     ExecConfig
	plan    *dsql.Plan
	session *catalog.Shell
	temps   []string

	steps   []StepMetric
	retries int64
	// faults is bumped from the step's worker goroutines.
	faults atomic.Int64
}

// Execute runs a DSQL plan step by step under cfg (paper §2.4: "query
// plans are executed serially, one step at a time", each step parallel
// across nodes — the per-node fan-out is what cfg.Parallelism bounds). A
// failing node cancels the step's remaining node tasks, and cancelling
// ctx stops between-node work as soon as the running tasks notice.
//
// Executions are isolated from each other and may run concurrently on one
// appliance, each under its own configuration: a run works against a
// private copy of the plan whose temp tables carry a unique per-execution
// suffix, so a long-lived server can dispatch many sessions' plans at
// once. Every run's steps, retries and faults also accumulate in the
// appliance-lifetime Metrics.
func (a *Appliance) Execute(ctx context.Context, p *dsql.Plan, cfg ExecConfig) (*Result, error) {
	r := &run{
		a:       a,
		cfg:     cfg,
		plan:    p.Isolate(a.execSeq.Add(1)),
		session: catalog.NewShell(a.Shell.Topology.ComputeNodes),
	}
	defer func() {
		for _, name := range r.temps {
			a.dropEverywhere(name)
		}
	}()
	res, err := r.execute(ctx)
	if res == nil {
		res = &Result{}
	}
	res.Steps, res.Retries, res.Faults = r.steps, r.retries, r.faults.Load()
	return res, err
}

// execute registers the shell tables in the session catalog and runs the
// plan's steps in order until the return step yields the result.
func (r *run) execute(ctx context.Context) (*Result, error) {
	for _, t := range r.a.Shell.Tables() {
		if err := r.session.AddTable(t); err != nil {
			return nil, err
		}
	}
	esp := r.cfg.Tracer.Begin("execute")
	esp.Int("steps", int64(len(r.plan.Steps)))
	defer esp.End()
	for _, step := range r.plan.Steps {
		res, err := r.runStep(ctx, esp.ID(), step)
		if err != nil {
			return nil, err
		}
		if res != nil {
			return res, nil
		}
	}
	return nil, errors.New("engine: plan has no return step")
}

// forEach runs fn(ctx, i) for every i in [0, n) on the run's worker pool;
// see par.For for the cancellation and error contract.
func (r *run) forEach(ctx context.Context, n int, fn func(ctx context.Context, i int) error) error {
	return par.For(ctx, n, workers(r.cfg.Parallelism, n), fn)
}

// runStep executes one DSQL step under the retry policy: idempotent
// steps get up to 1+MaxRetries attempts at transient failures (injected
// faults, corrupt deliveries, timeouts), with capped exponential backoff
// between attempts and the partial temp table dropped before each rerun.
// Deterministic failures, non-idempotent steps and exhausted budgets
// surface a *StepError. A non-nil Result means the plan is done.
//
// On success the step's metric — stamped with the step ID and attempt
// count — is recorded by the run and in the appliance's Metrics and, when
// tracing, attached to the step's span as its payload.
func (r *run) runStep(ctx context.Context, parent trace.SpanID, step dsql.Step) (*Result, error) {
	sp := r.cfg.Tracer.BeginUnder(parent, "step")
	defer sp.End()
	// Compilation is deterministic — the same SQL fails the same way — so
	// it runs once, outside the retry loop.
	tree, err := r.compile(step.SQL)
	if err != nil {
		serr := stepError(step.ID, NoNode, ErrKindExec, err)
		sp.SetErr(serr)
		return nil, serr
	}
	maxAttempts := 1
	if step.Idempotent && r.cfg.MaxRetries > 0 {
		maxAttempts += r.cfg.MaxRetries
	}
	sleep := r.cfg.sleep
	if sleep == nil {
		sleep = sleepCtx
	}
	var last *StepError
	for attempt := 0; attempt < maxAttempts; attempt++ {
		if attempt > 0 {
			r.retries++
			r.a.Metrics.addRetry()
			if err := sleep(ctx, backoffDelay(r.cfg.RetryBackoff, maxRetryBackoff, attempt)); err != nil {
				break
			}
		}
		res, sm, serr := r.attemptStep(ctx, step, tree)
		if serr == nil {
			sm.StepID = step.ID
			sm.Attempts = attempt + 1
			r.steps = append(r.steps, sm)
			r.a.Metrics.add(sm)
			r.recordStepTrace(sp, sm)
			return res, nil
		}
		serr.Attempt = attempt
		last = serr
		if step.Kind == dsql.StepMove {
			// A failed move may have staged or published partial rows on
			// any subset of nodes; drop both names everywhere so the next
			// attempt (or the caller) sees a clean appliance.
			r.a.dropEverywhere(step.Dest)
			r.a.dropEverywhere(stagingName(step.Dest))
		}
		if !serr.Retryable() {
			break
		}
	}
	if last != nil {
		sp.SetErr(last)
	}
	return nil, last
}

// recordStepTrace attaches the completed step's measurements to its span
// and bumps the exec.* counters. Guarded so the disabled-tracer execution
// path does no conversion work at all.
func (r *run) recordStepTrace(sp trace.Active, sm StepMetric) {
	if r.cfg.Tracer == nil {
		return
	}
	sp.SetStep(trace.StepStats{
		Step:         sm.StepID,
		Move:         sm.Move.String(),
		IsMove:       sm.IsMove,
		Rows:         sm.Rows,
		Bytes:        sm.Bytes,
		HashedRows:   sm.HashedRow,
		MaxNodeBytes: sm.MaxNodeBytes,
		Attempts:     sm.Attempts,
		Duration:     sm.Duration,
		LocalOps:     sm.LocalOps,
		LocalRows:    sm.LocalRows,
		LocalBatches: sm.LocalBatches,
	})
	c := r.cfg.Tracer.Counters()
	c.Add("exec.steps", 1)
	c.Add("exec.retries", int64(sm.Attempts-1))
	c.Add("exec.local_ops", sm.LocalOps)
	c.Add("exec.local_rows", sm.LocalRows)
	c.Add("exec.local_batches", sm.LocalBatches)
	if sm.IsMove {
		c.Add("exec.bytes_moved", sm.Bytes)
		c.Add("exec.rows_moved", sm.Rows)
	}
}

// attemptStep runs one attempt of a step under the per-attempt timeout
// and classifies any failure. On success it returns the step's metric
// with its wall time (StepID/Attempts are stamped by the retry loop).
func (r *run) attemptStep(ctx context.Context, step dsql.Step, tree *algebra.Tree) (*Result, StepMetric, *StepError) {
	actx := ctx
	if r.cfg.StepTimeout > 0 {
		var cancel context.CancelFunc
		actx, cancel = context.WithTimeout(ctx, r.cfg.StepTimeout)
		defer cancel()
	}
	start := time.Now()
	var res *Result
	var sm StepMetric
	var err error
	switch step.Kind {
	case dsql.StepMove:
		sm, err = r.executeMove(actx, step, tree)
	case dsql.StepReturn:
		res, sm, err = r.executeReturn(actx, step, tree)
	default:
		err = fmt.Errorf("unknown step kind %d", step.Kind)
	}
	if err != nil {
		return nil, StepMetric{}, classify(step.ID, actx, ctx, err)
	}
	sm.Duration = time.Since(start)
	return res, sm, nil
}

// classify turns an attempt's failure into a *StepError, distinguishing
// the attempt deadline (timeout, retryable) from caller cancellation
// (not retryable) and deterministic execution errors.
func classify(stepID int, attemptCtx, parentCtx context.Context, err error) *StepError {
	timedOut := errors.Is(attemptCtx.Err(), context.DeadlineExceeded) && parentCtx.Err() == nil
	var se *StepError
	if errors.As(err, &se) {
		if timedOut && se.Kind == ErrKindCancelled {
			// A fault-site sleep interrupted by the attempt deadline is a
			// step timeout, not a caller cancel.
			se.Kind = ErrKindTimeout
		}
		return se
	}
	switch {
	case timedOut:
		return stepError(stepID, NoNode, ErrKindTimeout, err)
	case parentCtx.Err() != nil:
		return stepError(stepID, NoNode, ErrKindCancelled, err)
	default:
		return stepError(stepID, NoNode, ErrKindExec, err)
	}
}

// dropEverywhere removes a temp table from the control node and every
// compute node.
func (a *Appliance) dropEverywhere(name string) {
	a.Control.DB.Drop(name)
	for _, n := range a.Compute {
		n.DB.Drop(name)
	}
}

// stagingName is where a DMS delivery accumulates rows before the
// publishing rename; it shares the destination's temp-table lifecycle.
func stagingName(dest string) string { return dest + "__stage" }

// compile parses, binds and normalizes a DSQL step's SQL text against the
// run's session catalog — the role of each node's local SQL instance
// compilation.
func (r *run) compile(sql string) (*algebra.Tree, error) {
	sel, err := sqlparser.ParseSelect(sql)
	if err != nil {
		return nil, err
	}
	b := algebra.NewBinder(r.session)
	tree, err := b.Bind(sel)
	if err != nil {
		return nil, err
	}
	return normalize.New(b).Normalize(tree)
}

// sourceNodes picks the nodes that run a step's SQL.
func (a *Appliance) sourceNodes(step dsql.Step) []*Node {
	switch {
	case step.Kind == dsql.StepMove && step.MoveKind == cost.ControlNodeMove:
		return []*Node{a.Control}
	case step.Kind == dsql.StepMove &&
		(step.MoveKind == cost.ReplicatedBroadcast || step.MoveKind == cost.RemoteCopySingle):
		// A replicated (or single-compute-node) source is read once.
		if step.Where == core.DistSingle {
			return []*Node{a.Control}
		}
		return []*Node{a.Compute[0]}
	case step.Where == core.DistSingle:
		return []*Node{a.Control}
	case step.Where == core.DistReplicated && step.Kind == dsql.StepReturn:
		return []*Node{a.Compute[0]}
	case step.Where == core.DistReplicated && step.Kind == dsql.StepMove && step.MoveKind != cost.Trim:
		return []*Node{a.Compute[0]}
	default:
		return a.Compute
	}
}

// runOnNodes executes the compiled tree on each node, fanned out over the
// run's worker pool, and returns each node's result as one column batch.
// Results keep node order; the first failing node's error cancels the
// remaining tasks. stepID and move address the per-node fault-injection
// site (move is Any for non-move steps).
func (r *run) runOnNodes(ctx context.Context, stepID, move int, tree *algebra.Tree, nodes []*Node) ([]*vec.Batch, exec.Stats, error) {
	// The step tree is shared by every node's executor, and Tree.OutputCols
	// memoizes lazily; derive the full schema cache here, before the
	// fan-out, so the workers only ever read it.
	tree.OutputCols()
	outs := make([]*vec.Batch, len(nodes))
	// Per-node stat slots (merged after the barrier) exist only while
	// tracing, so the untraced path allocates nothing extra.
	var stats []exec.Stats
	if r.cfg.Tracer != nil {
		stats = make([]exec.Stats, len(nodes))
	}
	err := r.forEach(ctx, len(nodes), func(ctx context.Context, i int) error {
		// Simulated dispatch round trip; whoever cancels it reports why.
		_ = sleepCtx(ctx, r.cfg.NodeLatency)
		n := nodes[i]
		if _, serr := r.injectFault(ctx, OpQuery, stepID, n.ID, move); serr != nil {
			return serr
		}
		var st *exec.Stats
		if stats != nil {
			st = &stats[i]
		}
		var out *vec.Batch
		var err error
		if r.cfg.RowExec {
			var rel *exec.Relation
			rel, err = exec.RunStats(tree, func(name string) ([]types.Row, []string, error) {
				t, err := n.DB.ScanColumns(name)
				if err != nil {
					return nil, nil, err
				}
				return t.Rows(), t.Names, nil
			}, st)
			if err == nil {
				out = vec.BatchFromRows(len(rel.Cols), rel.Rows)
			}
		} else {
			out, err = exec.RunColumns(tree, n.DB.ScanColumns, st)
		}
		if err != nil {
			// Node-local evaluation failures are deterministic: attribute
			// the node but classify as exec (not retryable).
			return stepError(stepID, n.ID, ErrKindExec, err)
		}
		outs[i] = out
		return nil
	})
	var total exec.Stats
	for _, s := range stats {
		total.Merge(s)
	}
	if err != nil {
		return nil, total, err
	}
	return outs, total, nil
}

// delivery is what one destination node receives: the selected rows of
// each source batch, in source order (vec.Concat's parts and selections;
// a nil selection takes the whole part). It is gathered into one batch on
// the destination's worker.
type delivery struct {
	node  *Node
	parts []*vec.Batch
	sels  [][]int32
}

// executeMove runs the step SQL on the source nodes and routes their
// column batches per the DMS operation into the destination temp table.
// Routing is computed per source batch and gathered per destination node,
// both on the worker pool; the merged row order is independent of
// scheduling (source order within each destination), so parallel and
// serial execution materialize byte-identical temp tables.
//
// Delivery is transactional: rows accumulate in a per-node staging table
// that is renamed to the destination only after every batch lands, so a
// mid-shuffle failure never leaves a half-populated destination visible
// to later steps — the retry path drops the staging leftovers and reruns.
func (r *run) executeMove(ctx context.Context, step dsql.Step, tree *algebra.Tree) (StepMetric, error) {
	a := r.a
	sources := a.sourceNodes(step)
	outs, local, err := r.runOnNodes(ctx, step.ID, int(step.MoveKind), tree, sources)
	if err != nil {
		return StepMetric{}, err
	}
	// Destination setup: create the staging table on each receiving node.
	staging := stagingName(step.Dest)
	destNodes, destDist := a.destFor(step)
	if err := r.forEach(ctx, len(destNodes), func(ctx context.Context, i int) error {
		if _, serr := r.injectFault(ctx, OpCreate, step.ID, destNodes[i].ID, int(step.MoveKind)); serr != nil {
			return serr
		}
		return destNodes[i].DB.Create(staging, step.DestCols)
	}); err != nil {
		return StepMetric{}, err
	}

	hashPos := -1
	if step.HashCol != "" {
		for i, c := range step.DestCols {
			if c.Name == step.HashCol {
				hashPos = i
			}
		}
		if hashPos < 0 {
			return StepMetric{}, stepError(step.ID, NoNode, ErrKindExec,
				fmt.Errorf("hash column %q missing from destination", step.HashCol))
		}
	}

	for _, b := range outs {
		if len(b.Cols) != len(step.DestCols) {
			return StepMetric{}, stepError(step.ID, NoNode, ErrKindExec,
				fmt.Errorf("step yields %d columns, destination %q has %d", len(b.Cols), step.Dest, len(step.DestCols)))
		}
	}
	var dests []delivery
	var hashed int64

	switch step.MoveKind {
	case cost.Shuffle, cost.Trim:
		// Hash-route each source batch on the worker pool, then merge per
		// destination in source order (deterministic under any schedule).
		// Trim is the node-local form of the same routing: the sources are
		// the compute nodes themselves, and each keeps only the rows that
		// hash to it.
		trim := step.MoveKind == cost.Trim
		if trim && len(sources) != len(a.Compute) {
			return StepMetric{}, stepError(step.ID, NoNode, ErrKindExec,
				errors.New("trim requires all compute nodes as sources"))
		}
		perSrc := make([][][]int32, len(outs))
		if err := r.forEach(ctx, len(outs), func(_ context.Context, si int) error {
			perSrc[si] = route(outs[si], hashPos, len(a.Compute), trim, si)
			return nil
		}); err != nil {
			return StepMetric{}, err
		}
		for _, b := range outs {
			hashed += int64(b.N)
		}
		for ni, n := range a.Compute {
			d := delivery{node: n}
			for si, b := range outs {
				if sel := perSrc[si][ni]; len(sel) > 0 {
					if len(sel) == b.N {
						sel = nil // every row: the batch itself
					}
					d.parts = append(d.parts, b)
					d.sels = append(d.sels, sel)
				}
			}
			dests = append(dests, d)
		}

	case cost.Broadcast, cost.ControlNodeMove, cost.ReplicatedBroadcast:
		// One batch, gathered once, shared by every destination.
		all := []*vec.Batch{vec.Concat(len(step.DestCols), outs, nil)}
		for _, n := range a.Compute {
			dests = append(dests, delivery{node: n, parts: all})
		}

	case cost.PartitionMove, cost.RemoteCopySingle:
		dests = append(dests, delivery{node: a.Control, parts: outs})

	default:
		return StepMetric{}, stepError(step.ID, NoNode, ErrKindExec,
			fmt.Errorf("unsupported move kind %v", step.MoveKind))
	}

	// Gather and deliver every destination's batch into staging on the
	// worker pool, tallying per destination so the step metric aggregates
	// race-free and deterministically.
	type tally struct{ rows, bytes int64 }
	tallies := make([]tally, len(dests))
	if err := r.forEach(ctx, len(dests), func(ctx context.Context, i int) error {
		_ = sleepCtx(ctx, r.cfg.NodeLatency) // dispatch round trip, as in runOnNodes
		d := dests[i]
		b := vec.Concat(len(step.DestCols), d.parts, d.sels)
		if f, serr := r.injectFault(ctx, OpDeliver, step.ID, d.node.ID, int(step.MoveKind)); serr != nil {
			if f.Kind == FaultCorrupt {
				// Model a payload garbled in transit and caught by
				// verification: the staged copy duplicates every row, so
				// any row-count or checksum verification fails. The
				// garbage lands in staging, which is never published and
				// is dropped on the retry path.
				_ = d.node.DB.InsertColumns(staging, vec.Concat(len(step.DestCols), []*vec.Batch{b, b}, nil))
			}
			return serr
		}
		tallies[i] = tally{rows: int64(b.N), bytes: b.Bytes()}
		return d.node.DB.InsertColumns(staging, b)
	}); err != nil {
		return StepMetric{}, err
	}
	var rows, bytes, maxNode int64
	for _, t := range tallies {
		rows += t.rows
		bytes += t.bytes
		if t.bytes > maxNode {
			maxNode = t.bytes
		}
	}

	// Publish: every batch landed, so rename staging to the destination
	// and only then register the temp table for later steps and cleanup.
	if err := r.forEach(ctx, len(destNodes), func(_ context.Context, i int) error {
		return destNodes[i].DB.Rename(staging, step.Dest)
	}); err != nil {
		return StepMetric{}, err
	}
	r.temps = append(r.temps, step.Dest)
	if err := r.session.AddTable(&catalog.Table{
		Name:    step.Dest,
		Columns: step.DestCols,
		Dist:    destDist,
	}); err != nil {
		return StepMetric{}, err
	}

	return StepMetric{
		Move: step.MoveKind, IsMove: true,
		Rows: rows, Bytes: bytes, HashedRow: hashed,
		MaxNodeBytes: maxNode,
		LocalOps:     local.Ops, LocalRows: local.Rows,
		LocalBatches: local.Batches,
	}, nil
}

// route hash-partitions one source batch: the returned selections list,
// per destination node, the rows whose key column hashes there
// (types.Hash, folded over the typed column; NULL keys go to node 0), in
// row order. Under trim only the source's own node keeps rows.
func route(b *vec.Batch, hashPos, nodes int, trim bool, self int) [][]int32 {
	key := b.Cols[hashPos]
	hs := make([]uint64, b.N)
	for i := range hs {
		hs[i] = types.HashSeed
	}
	key.FoldHash(hs)
	sels := make([][]int32, nodes)
	for i, h := range hs {
		n := 0
		if !key.IsNull(i) {
			n = int(h % uint64(nodes))
		}
		if !trim || n == self {
			sels[n] = append(sels[n], int32(i))
		}
	}
	return sels
}

// destFor returns the nodes receiving a move's rows and the temp table's
// catalog placement.
func (a *Appliance) destFor(step dsql.Step) ([]*Node, catalog.Distribution) {
	switch step.MoveKind {
	case cost.Shuffle, cost.Trim:
		return a.Compute, catalog.Distribution{Kind: catalog.DistHash, Column: step.HashCol}
	case cost.Broadcast, cost.ControlNodeMove, cost.ReplicatedBroadcast:
		return a.Compute, catalog.Distribution{Kind: catalog.DistReplicated}
	default: // PartitionMove, RemoteCopySingle
		return append([]*Node{}, a.Control), catalog.Distribution{Kind: catalog.DistReplicated}
	}
}

// executeReturn runs the final SQL and assembles the client result,
// merging per-node streams in node order, then applying the plan's order
// spec and TOP — so the merged relation is identical under any worker
// schedule.
func (r *run) executeReturn(ctx context.Context, step dsql.Step, tree *algebra.Tree) (*Result, StepMetric, error) {
	p := r.plan
	outs, local, err := r.runOnNodes(ctx, step.ID, Any, tree, r.a.sourceNodes(step))
	if err != nil {
		return nil, StepMetric{}, err
	}
	// The client result is the one place rows are boxed.
	out := &Result{Cols: p.OutCols, Rows: vec.AppendRows(nil, outs...)}
	var bytes int64
	for _, b := range outs {
		bytes += b.Bytes()
	}
	if len(p.OrderBy) > 0 {
		keys := make([]exec.MergeKey, len(p.OrderBy))
		for i, k := range p.OrderBy {
			keys[i] = exec.MergeKey{Pos: k.Pos, Desc: k.Desc}
		}
		// The final merge runs the exact comparator the node-local sorts
		// ran, so NULL placement cannot diverge between a node's ORDER BY
		// and the control node's re-merge. Merge keys can mix kinds when
		// a CASE column mixes branch types; the checked sort turns that
		// into a step error instead of a panic mid-sort.
		if err := exec.SortRows(out.Rows, keys); err != nil {
			return nil, StepMetric{}, stepError(step.ID, NoNode, ErrKindExec, err)
		}
	}
	if p.Top > 0 && int64(len(out.Rows)) > p.Top {
		out.Rows = out.Rows[:p.Top]
	}
	return out, StepMetric{
		Rows: int64(len(out.Rows)), Bytes: bytes,
		LocalOps:     local.Ops,
		LocalRows:    local.Rows,
		LocalBatches: local.Batches,
	}, nil
}
