package main

import (
	"context"
	"fmt"
	"time"

	"pdwqo"
	"pdwqo/internal/loadgen"
	"pdwqo/internal/server"
)

// e21 measures the concurrent query server at scale: an in-process
// server over the benchmark appliance is driven by loadgen at a sweep of
// session counts (up to -sessions), reporting p50/p99 latency,
// throughput, and plan-cache hit rate per row — the control node's
// prepared-statement economics under real concurrency. A second arm
// oversubscribes a deliberately tiny admission gate and reports the
// typed load-shedding counts: the server must reject with queue-full /
// queue-timeout errors, never stall or panic.
func e21(db *pdwqo.DB) {
	header("E21", "concurrent query server — latency, throughput, and admission control under load")
	db.SetPlanCache(4096)
	defer db.SetPlanCache(-1)
	// Per-node parallelism keeps yield points inside query execution even
	// on a one-CPU host, so admitted workers genuinely overlap in the
	// admission gate instead of each running to completion unpreempted.
	exec := runConfig()
	exec.Parallelism = 2

	srv := server.New(db, server.Config{MaxConcurrent: 8, MaxQueue: 1 << 16, Exec: exec})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		fatal(err)
	}
	defer srv.Shutdown()

	// Warm the plan cache so the sweep measures the steady state the
	// paper's forced parameterization is designed for.
	warm, err := loadgen.Run(context.Background(), loadgen.Config{
		Addr: addr.String(), Sessions: 2, QueriesPerSession: 2 * len(loadgen.DefaultMix), Seed: 7,
	})
	if err != nil {
		fatal(err)
	}
	if warm.Errors > 0 {
		fatal(fmt.Errorf("e21 warmup saw %d errors: %v", warm.Errors, warm.ByCode))
	}

	counts := sessionSweep(*sessions)
	fmt.Printf("%9s %9s %11s %11s %11s %12s %9s\n",
		"sessions", "queries", "p50", "p99", "max", "throughput", "hit-rate")
	var last *loadgen.Report
	for _, n := range counts {
		rep, err := loadgen.Run(context.Background(), loadgen.Config{
			Addr:              addr.String(),
			Sessions:          n,
			QueriesPerSession: perSessionQueries(n),
			PreparedFraction:  0.5,
			Seed:              42,
		})
		if err != nil {
			fatal(err)
		}
		if rep.DialFails > 0 {
			fatal(fmt.Errorf("e21: %d sessions failed to connect at n=%d", rep.DialFails, n))
		}
		fmt.Printf("%9d %9d %11v %11v %11v %10.1f/s %8.1f%%\n",
			n, rep.Queries,
			rep.P50.Round(time.Microsecond), rep.P99.Round(time.Microsecond),
			rep.Max.Round(time.Microsecond), rep.Throughput(), 100*rep.HitRate())
		if rep.Errors > 0 {
			fmt.Printf("          errors: %v\n", rep.ByCode)
		}
		last = rep
	}

	// Oversubscription arm: 1 slot, a 1-deep queue, a 1ms wait budget,
	// hammered far beyond capacity. Load must shed as typed rejections.
	shed := server.New(db, server.Config{
		MaxConcurrent: 1, MaxQueue: 1, QueueTimeout: time.Millisecond, Exec: exec,
	})
	shedAddr, err := shed.Listen("127.0.0.1:0")
	if err != nil {
		fatal(err)
	}
	defer shed.Shutdown()
	rep, err := loadgen.Run(context.Background(), loadgen.Config{
		Addr: shedAddr.String(), Sessions: 64, QueriesPerSession: 16, PreparedFraction: 0.5, Seed: 9,
	})
	if err != nil {
		fatal(err)
	}
	st := shed.Stats()
	fmt.Printf("\noversubscribed (1 slot, queue 1, 1ms budget, 64 sessions): "+
		"admitted=%d queue-full=%d queue-timeout=%d\n",
		st.Admission.Admitted, st.Admission.RejectedFull, st.Admission.RejectedTimeout)
	if st.Admission.RejectedFull+st.Admission.RejectedTimeout == 0 {
		fatal(fmt.Errorf("e21: oversubscribed arm shed no load (admission %+v)", st.Admission))
	}
	for code := range rep.ByCode {
		switch code {
		case server.CodeQueueFull, server.CodeQueueTimeout:
		default:
			fatal(fmt.Errorf("e21: oversubscribed arm saw unexpected error code %s: %v", code, rep.ByCode))
		}
	}

	fmt.Printf("\nE21 RESULT: sessions=%d p50=%v p99=%v throughput=%.1fq/s hit-rate=%.1f%% shed-full=%d shed-timeout=%d\n\n",
		last.Sessions, last.P50.Round(time.Microsecond), last.P99.Round(time.Microsecond),
		last.Throughput(), 100*last.HitRate(),
		st.Admission.RejectedFull, st.Admission.RejectedTimeout)
}

// sessionSweep builds the session-count ladder up to max.
func sessionSweep(max int) []int {
	if max < 1 {
		max = 1
	}
	var out []int
	for _, n := range []int{1, 8, 64, 256, 1000} {
		if n < max {
			out = append(out, n)
		}
	}
	return append(out, max)
}

// perSessionQueries keeps total work roughly constant across the sweep
// so big session counts measure concurrency, not a larger workload.
func perSessionQueries(sessions int) int {
	const totalTarget = 4000
	q := totalTarget / sessions
	if q < 2 {
		return 2
	}
	if q > 50 {
		return 50
	}
	return q
}
