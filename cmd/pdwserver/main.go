// Command pdwserver runs the PDW query server: a TPC-H appliance behind
// the wire protocol of internal/server, with a shared plan cache,
// admission control, and per-session prepared statements.
//
// Usage:
//
//	pdwserver [-addr 127.0.0.1:7420] [-sf 0.01] [-nodes 8] [-seed 42]
//	          [-max-concurrent 8] [-max-queue 64] [-queue-timeout 0]
//	          [-cache 4096] [-parallel 0] [-retries 0] [-step-timeout 0]
//
// The server prints the bound address on stdout once it is accepting
// connections and runs until SIGINT/SIGTERM, then drains sessions and
// exits.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"pdwqo"
	"pdwqo/internal/server"
)

func main() {
	var (
		addr          = flag.String("addr", "127.0.0.1:7420", "listen address")
		sf            = flag.Float64("sf", 0.01, "TPC-H scale factor")
		nodes         = flag.Int("nodes", 8, "compute nodes")
		seed          = flag.Int64("seed", 42, "generator seed")
		maxConcurrent = flag.Int("max-concurrent", 8, "concurrent query executions")
		maxQueue      = flag.Int("max-queue", 64, "admission queue length")
		queueTimeout  = flag.Duration("queue-timeout", 0, "max admission wait (0 = unbounded)")
		batchRows     = flag.Int("batch-rows", 256, "rows per result frame")
		cache         = flag.Int("cache", 4096, "plan cache capacity (negative disables)")
		parallel      = flag.Int("parallel", 0, "per-node execution parallelism (0 = GOMAXPROCS)")
		retries       = flag.Int("retries", 0, "per-step retries for idempotent steps")
		stepTimeout   = flag.Duration("step-timeout", 0, "per-step attempt timeout (0 = unbounded)")
	)
	flag.Parse()

	db, err := pdwqo.OpenTPCH(*sf, *nodes, *seed)
	if err != nil {
		fatal(err)
	}
	if *cache >= 0 {
		db.SetPlanCache(*cache)
	}

	srv := server.New(db, server.Config{
		MaxConcurrent: *maxConcurrent,
		MaxQueue:      *maxQueue,
		QueueTimeout:  *queueTimeout,
		BatchRows:     *batchRows,
		Exec: pdwqo.ExecConfig{
			Parallelism: *parallel,
			MaxRetries:  *retries,
			StepTimeout: *stepTimeout,
		},
	})
	bound, err := srv.Listen(*addr)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("pdwserver: listening on %s (sf=%g nodes=%d concurrent=%d queue=%d)\n",
		bound, *sf, *nodes, *maxConcurrent, *maxQueue)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("pdwserver: draining sessions")
	start := time.Now()
	srv.Shutdown()
	st := srv.Stats()
	fmt.Printf("pdwserver: stopped after %v — %d sessions, %d queries, %d panics, admission %+v\n",
		time.Since(start).Round(time.Millisecond), st.Sessions, st.Queries, st.Panics, st.Admission)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pdwserver:", err)
	os.Exit(1)
}
