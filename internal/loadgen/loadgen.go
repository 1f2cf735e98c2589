// Package loadgen drives concurrent client sessions against a query
// server and reports latency percentiles, throughput, plan-cache
// outcomes, and typed-error counts. It is the engine behind cmd/pdwload,
// the E21 experiment, and the soak test.
package loadgen

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"pdwqo/internal/normalize"
	"pdwqo/internal/server"
)

// DefaultMix is the standard workload: small TPC-H-table shapes with
// literal slots to rotate, so a plan cache sees a few hot fingerprints
// under many distinct constant vectors — the forced-parameterization
// sweet spot the paper's control node banks on.
var DefaultMix = []string{
	"SELECT n_name FROM nation WHERE n_regionkey = 1 ORDER BY n_name",
	"SELECT r_name FROM region WHERE r_regionkey = 2",
	"SELECT c_name, c_acctbal FROM customer WHERE c_custkey < 40 ORDER BY c_name",
	"SELECT o_orderkey, o_totalprice FROM orders WHERE o_totalprice > 100000.0 AND o_orderkey < 600 ORDER BY o_orderkey",
	"SELECT n_regionkey, count(*) AS cnt FROM nation WHERE n_nationkey > 3 GROUP BY n_regionkey ORDER BY n_regionkey",
}

// Config tunes one load run.
type Config struct {
	// Addr is the server's TCP address.
	Addr string
	// Sessions is how many concurrent client sessions to open.
	Sessions int
	// QueriesPerSession is how many queries each session issues; 0 means
	// run until Duration (one of the two must be set).
	QueriesPerSession int
	// Duration caps the whole run; 0 means run until every session has
	// issued QueriesPerSession queries.
	Duration time.Duration
	// PreparedFraction is the share of sessions (0..1) that prepare their
	// shapes once and re-execute with rotated constants; the rest send
	// ad-hoc text with the constants spliced in.
	PreparedFraction float64
	// Seed makes the constant rotation and mix assignment deterministic.
	Seed int64
	// Mix is the SQL shapes to draw from; nil uses DefaultMix.
	Mix []string
}

// Report is the outcome of one load run.
type Report struct {
	Sessions  int
	Queries   uint64
	Errors    uint64
	ByCode    map[server.Code]uint64
	ByStatus  map[string]uint64 // plan-cache outcome counts ("hit", ...)
	Elapsed   time.Duration
	P50       time.Duration
	P90       time.Duration
	P99       time.Duration
	Max       time.Duration
	DialFails uint64
}

// Throughput is successful queries per second over the whole run.
func (r *Report) Throughput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Queries-r.Errors) / r.Elapsed.Seconds()
}

// HitRate is the fraction of successful queries answered by re-binding a
// cached plan.
func (r *Report) HitRate() float64 {
	var total, hits uint64
	for st, n := range r.ByStatus {
		total += n
		if st == "hit" {
			hits += n
		}
	}
	if total == 0 {
		return 0
	}
	return float64(hits) / float64(total)
}

// String renders the report as one summary block.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "sessions=%d queries=%d errors=%d elapsed=%v\n",
		r.Sessions, r.Queries, r.Errors, r.Elapsed.Round(time.Millisecond))
	fmt.Fprintf(&b, "latency p50=%v p90=%v p99=%v max=%v throughput=%.1f q/s cache-hit-rate=%.1f%%\n",
		r.P50.Round(time.Microsecond), r.P90.Round(time.Microsecond),
		r.P99.Round(time.Microsecond), r.Max.Round(time.Microsecond),
		r.Throughput(), 100*r.HitRate())
	if len(r.ByCode) > 0 {
		codes := make([]server.Code, 0, len(r.ByCode))
		for c := range r.ByCode {
			codes = append(codes, c)
		}
		sort.Slice(codes, func(i, j int) bool { return codes[i] < codes[j] })
		b.WriteString("errors by code:")
		for _, c := range codes {
			fmt.Fprintf(&b, " %s=%d", c, r.ByCode[c])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// sessionStats is one session's tally, merged after the run.
type sessionStats struct {
	lat       []time.Duration
	queries   uint64
	errors    uint64
	byCode    map[server.Code]uint64
	byStatus  map[string]uint64
	dialFails uint64
}

// Run executes the configured load against the server and blocks until
// every session finishes (or ctx/Duration ends the run).
func Run(ctx context.Context, cfg Config) (*Report, error) {
	if cfg.Sessions <= 0 {
		return nil, fmt.Errorf("loadgen: Sessions must be positive")
	}
	if cfg.QueriesPerSession <= 0 && cfg.Duration <= 0 {
		return nil, fmt.Errorf("loadgen: set QueriesPerSession or Duration")
	}
	mix := cfg.Mix
	if len(mix) == 0 {
		mix = DefaultMix
	}
	shapes := make([]*normalize.ParamQuery, len(mix))
	for i, sql := range mix {
		pq, err := normalize.Parameterize(sql)
		if err != nil {
			return nil, fmt.Errorf("loadgen: mix[%d]: %w", i, err)
		}
		shapes[i] = pq
	}
	if cfg.Duration > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.Duration)
		defer cancel()
	}

	start := time.Now()
	all := make([]*sessionStats, cfg.Sessions)
	var wg sync.WaitGroup
	for i := 0; i < cfg.Sessions; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed + int64(id)*7919))
			prepared := float64(id%1000)/1000 < cfg.PreparedFraction
			all[id] = runSession(ctx, cfg, shapes, mix, rng, prepared)
		}(i)
	}
	wg.Wait()

	rep := &Report{
		Sessions: cfg.Sessions,
		ByCode:   map[server.Code]uint64{},
		ByStatus: map[string]uint64{},
		Elapsed:  time.Since(start),
	}
	var lat []time.Duration
	for _, st := range all {
		if st == nil {
			continue
		}
		rep.Queries += st.queries
		rep.Errors += st.errors
		rep.DialFails += st.dialFails
		for c, n := range st.byCode {
			rep.ByCode[c] += n
		}
		for s, n := range st.byStatus {
			rep.ByStatus[s] += n
		}
		lat = append(lat, st.lat...)
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	rep.P50 = percentile(lat, 0.50)
	rep.P90 = percentile(lat, 0.90)
	rep.P99 = percentile(lat, 0.99)
	if n := len(lat); n > 0 {
		rep.Max = lat[n-1]
	}
	return rep, nil
}

func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p * float64(len(sorted)-1))
	return sorted[i]
}

// runSession is one client's whole life: dial, optionally prepare every
// shape, then issue queries with rotated constants until done.
func runSession(ctx context.Context, cfg Config, shapes []*normalize.ParamQuery, mix []string, rng *rand.Rand, prepared bool) *sessionStats {
	st := &sessionStats{
		byCode:   map[server.Code]uint64{},
		byStatus: map[string]uint64{},
	}
	c, err := server.Dial(cfg.Addr)
	if err != nil {
		st.dialFails++
		return st
	}
	defer c.Close()

	var stmts []*server.Stmt
	if prepared {
		for _, sql := range mix {
			s, err := c.Prepare(sql)
			if err != nil {
				st.errors++
				st.byCode[server.CodeOf(err)]++
				return st
			}
			stmts = append(stmts, s)
		}
	}

	for q := 0; cfg.QueriesPerSession <= 0 || q < cfg.QueriesPerSession; q++ {
		if ctx.Err() != nil {
			return st
		}
		shape := rng.Intn(len(shapes))
		rot := rng.Intn(64)
		begin := time.Now()
		var res *server.Result
		if prepared {
			res, err = stmts[shape].Exec(ctx, rotatedArgs(shapes[shape], rot)...)
		} else {
			sql, serr := shapes[shape].Splice(RotatedTexts(shapes[shape], rot))
			if serr != nil {
				st.errors++
				continue
			}
			res, err = c.Query(ctx, sql)
		}
		st.queries++
		if err != nil {
			if ctx.Err() != nil {
				// The run deadline aborted this query mid-flight; that is
				// the harness ending the run, not a server failure.
				st.queries--
				return st
			}
			st.errors++
			st.byCode[server.CodeOf(err)]++
			// A cancelled/shutdown/dead session cannot continue; typed
			// per-query rejections (queue full/timeout, exec) can.
			switch server.CodeOf(err) {
			case server.CodeQueueFull, server.CodeQueueTimeout, server.CodeExec:
				continue
			default:
				return st
			}
		}
		st.lat = append(st.lat, time.Since(begin))
		st.byStatus[res.CacheStatus]++
	}
	return st
}

// RotatedTexts renders shape's constant vector for one rotation:
// integers shifted, floats scaled, strings kept — same canonical shape,
// different values, exactly what forced parameterization deduplicates.
func RotatedTexts(pq *normalize.ParamQuery, rot int) []string {
	out := make([]string, len(pq.Lits))
	for i, l := range pq.Lits {
		switch l.Kind {
		case normalize.LitInt:
			out[i] = strconv.FormatInt(l.Val.Int()+int64(rot), 10)
		case normalize.LitFloat:
			out[i] = strconv.FormatFloat(l.Val.Float()*(1+0.001*float64(rot)), 'g', -1, 64)
		default:
			out[i] = l.Val.SQLLiteral()
		}
	}
	return out
}

// rotatedArgs is RotatedTexts as prepared-statement argument values.
func rotatedArgs(pq *normalize.ParamQuery, rot int) []any {
	out := make([]any, len(pq.Lits))
	for i, l := range pq.Lits {
		switch l.Kind {
		case normalize.LitInt:
			out[i] = l.Val.Int() + int64(rot)
		case normalize.LitFloat:
			out[i] = l.Val.Float() * (1 + 0.001*float64(rot))
		default:
			out[i] = l.Val.Str()
		}
	}
	return out
}
