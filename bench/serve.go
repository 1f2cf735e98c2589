package main

import (
	"context"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"time"

	"pdwqo"
	"pdwqo/internal/dsql"
	"pdwqo/internal/loadgen"
	"pdwqo/internal/normalize"
	"pdwqo/internal/plancache"
	"pdwqo/internal/server"
)

// A serve_mixed pass, per session, is every point shape under each of
// pointRotations literal vectors plus each analytic query analyticRepeats
// times: 155 point and 20 analytic operations. The analytic share (11 %)
// is chosen so that the 90th percentile of a pass falls inside the
// fastest analytic query's samples and not on the edge between the two
// classes, where it would jump between a point and an analytic latency
// from run to run.
const (
	pointRotations  = 31
	analyticRepeats = 5
	planCacheSize   = 4096
)

// analyticQueries are multi-step TPC-H plans whose DMS steps write temp
// tables on the same node stores the point queries scan.
var analyticQueries = []string{"q03", "q10", "q12", "q14"}

// serveOp is one operation of a pass: the statement it prepares, the
// literal values it binds, the text that amounts to, and the rows the
// wire must carry back.
type serveOp struct {
	shape    int
	args     []any
	sql      string
	analytic bool
	want     [][]string
}

// serveSession is one client connection with a statement prepared for
// every shape.
type serveSession struct {
	id    int
	c     *server.Client
	stmts []*server.Stmt
	rng   *rand.Rand
	done  int // passes run so far, across phases
}

// serveWorkload is serve_mixed: sessions over the wire protocol send
// mostly point queries that hit the plan cache, beside a few analytic
// ones, against an in-process server.
type serveWorkload struct {
	cfg      *config
	db       *pdwqo.DB
	srv      *server.Server
	shapes   []string // the statements sessions prepare
	ops      []serveOp
	costs    []float64
	sessions []*serveSession
}

// Set-up is a second of data generation and a second of reference
// queries, so it is repeated for a steadier median.
func (w *serveWorkload) setups() int { return 3 }
func (w *serveWorkload) warmup() int { return 5 }

func (w *serveWorkload) close() {
	for _, s := range w.sessions {
		s.c.Close()
	}
	if w.srv != nil {
		w.srv.Shutdown()
	}
	w.db, w.srv, w.sessions, w.ops = nil, nil, nil, nil
}

func (w *serveWorkload) setup(tm *setupTimes) error {
	sf := w.cfg.sf
	if sf == 0 {
		sf = 0.01
	}
	db, err := openTPCH(sf, tm)
	if err != nil {
		return err
	}
	w.db = db.SetPlanCache(planCacheSize)
	if err := w.buildOps(tm); err != nil {
		return err
	}
	w.srv = server.New(db, server.Config{})
	addr, err := w.srv.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	for i := 0; i < clients(); i++ {
		c, err := server.Dial(addr.String())
		if err != nil {
			return err
		}
		s := &serveSession{id: i, c: c, rng: rand.New(rand.NewSource(w.cfg.seed + int64(i)*7919))}
		w.sessions = append(w.sessions, s)
		for _, sql := range w.shapes {
			st, err := c.Prepare(sql)
			if err != nil {
				return fmt.Errorf("prepare: %w", err)
			}
			s.stmts = append(s.stmts, st)
		}
	}
	return nil
}

// buildOps lays out one pass and, for every distinct statement text in
// it, runs the text once in process: that warms the plan cache, checks the
// result against the serial reference and keeps the rows the wire must
// return.
func (w *serveWorkload) buildOps(tm *setupTimes) error {
	w.shapes, w.ops, w.costs = nil, nil, nil
	w.shapes = append(w.shapes, loadgen.DefaultMix...)
	rotations, repeats := pointRotations, analyticRepeats
	if w.cfg.small {
		rotations, repeats = 4, 1
	}
	for _, name := range analyticQueries {
		sql, _ := pdwqo.TPCHQuery(name)
		w.shapes = append(w.shapes, sql)
	}
	for shape, sql := range w.shapes {
		pq, err := normalize.Parameterize(sql)
		if err != nil {
			return err
		}
		analytic := shape >= len(loadgen.DefaultMix)
		variants := rotations
		if analytic {
			variants = 1
		}
		for rot := 0; rot < variants; rot++ {
			op := serveOp{shape: shape, analytic: analytic}
			texts := make([]string, len(pq.Lits))
			for i, l := range pq.Lits {
				texts[i] = rotatedLiteral(pq, l, rot)
				op.args = append(op.args, rawArgument(l.Kind, texts[i]))
			}
			if op.sql, err = pq.Splice(texts); err != nil {
				return err
			}
			plan, rows, err := planAndCheck(w.db, op.sql, pdwqo.Options{}, tm)
			if err != nil {
				return fmt.Errorf("%s: %w", op.sql, err)
			}
			op.want = wireRows(rows)
			if rot == 0 {
				w.costs = append(w.costs, plan.Cost())
			}
			n := 1
			if analytic {
				n = repeats
			}
			for ; n > 0; n-- {
				w.ops = append(w.ops, op)
			}
		}
	}
	return nil
}

// rotatedLiteral is literal l of a shape as SQL text, under rotation rot:
// integers shifted and floats scaled, as loadgen rotates them, so that
// one cached shape serves many constant vectors. Rotation 0 is the
// shape's own text. A float keeps its decimal point, or the statement
// would change shape.
func rotatedLiteral(pq *normalize.ParamQuery, l normalize.Literal, rot int) string {
	switch {
	case rot == 0:
		return pq.SQL[l.Spans[0].Pos:l.Spans[0].End]
	case l.Kind == normalize.LitInt:
		return strconv.FormatInt(l.Val.Int()+int64(rot), 10)
	case l.Kind == normalize.LitFloat:
		return strconv.FormatFloat(l.Val.Float()*(1+0.001*float64(rot)), 'f', 1, 64)
	}
	return l.Val.SQLLiteral()
}

// rawArgument is a literal's SQL text as the wire carries a bound
// argument: strings unquoted, numbers as they are.
func rawArgument(kind normalize.LitKind, text string) any {
	if kind == normalize.LitString {
		return strings.ReplaceAll(text[1:len(text)-1], "''", "'")
	}
	return text
}

func (w *serveWorkload) planCosts() []float64 { return w.costs }

func (w *serveWorkload) dmsKBPerOp(st runStats) float64 {
	return float64(st.dmsBytes) / 1024 / float64(len(st.samples))
}

func (w *serveWorkload) run(more func(int) bool, rec *recorder) runStats {
	return w.runSessions(w.sessions, more, rec)
}

// runSessions drives the given sessions concurrently, each a closed loop:
// the next request goes out when the previous reply is in.
func (w *serveWorkload) runSessions(sessions []*serveSession, more func(int) bool, rec *recorder) runStats {
	m := &w.db.Appliance().Metrics
	moved := m.TotalBytesMoved()
	parts := make([]runStats, len(sessions))
	var wg sync.WaitGroup
	start := time.Now()
	for i, s := range sessions {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for done := 0; more(done); done++ {
				w.pass(s, &parts[i], rec)
			}
		}()
	}
	wg.Wait()
	var st runStats
	st.wall = time.Since(start)
	for _, p := range parts {
		st.merge(p)
	}
	st.dmsBytes = m.TotalBytesMoved() - moved
	return st
}

// pass sends one pass of operations down a session. Sessions alternate,
// pass by pass, between prepared statements and ad-hoc text, half of them
// starting on each, so both paths are always under load whatever the
// session count.
func (w *serveWorkload) pass(s *serveSession, st *runStats, rec *recorder) {
	prepared := (s.id+s.done)%2 == 0
	s.done++
	ctx := context.Background()
	for _, i := range s.rng.Perm(len(w.ops)) {
		op := &w.ops[i]
		id := rec.begin(0, s.id<<24+len(st.samples)+1, "server.op")
		t := time.Now()
		var res *server.Result
		var err error
		if prepared {
			res, err = s.stmts[op.shape].Exec(ctx, op.args...)
		} else {
			res, err = s.c.Query(ctx, op.sql)
		}
		st.samples = append(st.samples, sample{slot: i, ms: msSince(t), analytic: op.analytic, prepared: prepared})
		rec.end(id)
		switch {
		case err != nil:
			st.fail("%s: %v", op.sql, err)
		case !sameWireRows(res.Rows, op.want):
			st.fail("%s: rows differ from the checked set-up run", op.sql)
		case res.CacheStatus != "hit":
			st.fail("%s: plan cache %s after warm-up", op.sql, res.CacheStatus)
		}
	}
}

// traced measures the server's layers by substitution. The same pass is
// timed through the wire at every session count, through the wire from a
// single session, and in process through the calls the server makes:
// Optimize on a cache hit, then ExecutePlanContext. What is left of the
// single-session wire time is the wire, session and admission overhead.
func (w *serveWorkload) traced(more func(int) bool, rec *recorder, untraced runStats, layer map[string]float64) runStats {
	adm, cache := w.srv.Stats().Admission, w.db.PlanCache().Metrics()
	st := w.run(more, rec)
	adm2, cache2 := w.srv.Stats().Admission, w.db.PlanCache().Metrics()
	layer["trace.overhead_share"] = 1 - st.opsPerS()/untraced.opsPerS()

	point := func(s sample) bool { return !s.analytic }
	analytic := func(s sample) bool { return s.analytic }
	layer["server.point_ms_p50"] = st.percentile(0.50, point)
	layer["server.point_ms_p90"] = st.percentile(0.90, point)
	layer["server.analytic_ms_p50"] = st.percentile(0.50, analytic)
	layer["server.analytic_ms_p90"] = st.percentile(0.90, analytic)
	layer["server.prepared_ms_p50"] = st.percentile(0.50, func(s sample) bool { return !s.analytic && s.prepared })
	layer["server.adhoc_ms_p50"] = st.percentile(0.50, func(s sample) bool { return !s.analytic && !s.prepared })
	layer["server.op_ms_p99"] = st.percentile(0.99, nil)
	layer["server.admitted"] = float64(adm2.Admitted - adm.Admitted)
	layer["server.rejected"] = float64(adm2.RejectedFull + adm2.RejectedTimeout - adm.RejectedFull - adm.RejectedTimeout)
	lookups := float64(cache2.Hits + cache2.Shared + cache2.Misses - cache.Hits - cache.Shared - cache.Misses)
	layer["plancache.hit_share"] = float64(cache2.Hits-cache.Hits) / lookups
	layer["plancache.compiles"] = float64(cache2.Compiles - cache.Compiles)
	layer["plancache.evictions"] = float64(cache2.Evictions - cache.Evictions)

	// Two passes from one session, one prepared and one ad-hoc.
	single := w.runSessions(w.sessions[:1], until(2, 0), nil)
	st.merge(single)
	layer["server.scaling_c_v_1"] = untraced.opsPerS() / single.opsPerS()

	inproc, err := w.substitute(rec, layer)
	if err != nil {
		st.fail("in-process substitution: %v", err)
	}
	layer["server.wire_overhead_us"] = (single.meanMS() - inproc) * 1000
	layer["pdwqo.replica_coverage"] = inproc / single.meanMS()
	return st
}

// substitute runs one pass in process, a span around each call the server
// makes for an operation and around the calls those make in turn, and
// returns the mean time of Optimize plus ExecutePlanContext per operation
// in milliseconds.
func (w *serveWorkload) substitute(rec *recorder, layer map[string]float64) (float64, error) {
	// A cache of the program's size and fill, probed from outside.
	probe := plancache.New(planCacheSize)
	for i := 0; i < w.db.PlanCache().Len(); i++ {
		probe.Put(strconv.Itoa(i), 0, i)
	}
	s := w.sessions[0]
	m := &w.db.Appliance().Metrics
	steps := m.StepCount()
	var plans []*dsql.Plan
	for i := range w.ops {
		op := &w.ops[i]
		opID := 1<<30 + i
		root := rec.begin(0, opID, "server.inproc")

		id := rec.begin(root, opID, "pdwqo.optimize_hit")
		plan, err := w.db.Optimize(op.sql, pdwqo.Options{})
		rec.end(id)
		if err != nil {
			return 0, err
		}
		id = rec.begin(root, opID, "engine.execute")
		_, err = w.db.ExecutePlanContext(context.Background(), plan)
		rec.end(id)
		if err != nil {
			return 0, err
		}
		rec.end(root)
		plans = append(plans, plan.DSQL)

		id = rec.begin(0, opID, "normalize.parameterize")
		pq, err := normalize.Parameterize(op.sql)
		rec.end(id)
		if err != nil {
			return 0, err
		}
		id = rec.begin(0, opID, "plancache.get")
		probe.Get("0", 0)
		rec.end(id)
		id = rec.begin(0, opID, "dsql.bind")
		plan.DSQL.Bind(pq.BindTexts())
		rec.end(id)

		// The smallest exchange the protocol has: a statement prepared and
		// acknowledged, with no admission and no execution.
		id = rec.begin(0, opID, "server.frame_rt")
		stmt, err := s.c.Prepare(op.sql)
		rec.end(id)
		if err != nil {
			return 0, err
		}
		if err := stmt.Close(); err != nil {
			return 0, err
		}
	}
	stepLayers(m.Snapshot()[steps:], rec.totalMS("engine.execute"), 1, layer)
	if err := replaySteps(w.db, plans, rec, 1<<30+len(w.ops), layer); err != nil {
		return 0, err
	}
	n := float64(len(w.ops))
	self := rec.selfMS()
	for _, name := range []string{"normalize.parameterize", "plancache.get", "dsql.bind", "pdwqo.optimize_hit", "server.frame_rt"} {
		layer[name+"_us"] = self[name] / n * 1000
	}
	return rec.totalMS("server.inproc") / n, nil
}
