package loadgen

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"pdwqo"
	"pdwqo/internal/server"
)

// TestSoak is the load/soak harness from the issue: a long mixed
// prepared/ad-hoc run against an in-process server, then a chaos arm with
// a seeded fault plan and retries, then a zero-goroutine-leak gate. The
// whole test is capped at 30s of driving time (split across the two
// arms and the GOMAXPROCS settings); -short trims it to a few seconds for
// CI. Both arms run at GOMAXPROCS 1, 2 and NumCPU, so a schedule that only
// one core count produces cannot hide.
func TestSoak(t *testing.T) {
	total := 30 * time.Second
	if testing.Short() {
		total = 6 * time.Second
	}
	ladder := []int{1, 2}
	if n := runtime.NumCPU(); n > 2 {
		ladder = append(ladder, n)
	}
	arm := total / time.Duration(2*len(ladder))

	db, err := pdwqo.OpenTPCH(0.001, 2, 99)
	if err != nil {
		t.Fatal(err)
	}
	db.SetPlanCache(1024)
	before := runtime.NumGoroutine()
	for _, procs := range ladder {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			soakArms(t, db, arm)
		})
	}

	// Leak gate: every server is down, so every session, worker, and
	// recvLoop goroutine must be gone.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak after soak: %d -> %d\n%s",
				before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// soakArms drives the clean arm, then the chaos arm, each for arm long.
func soakArms(t *testing.T, db *pdwqo.DB, arm time.Duration) {
	// Execution-level parallelism keeps yield points inside queries so
	// admitted workers genuinely interleave even on a one-CPU host.
	exec := pdwqo.ExecConfig{Parallelism: 2}
	srv := server.New(db, server.Config{MaxConcurrent: 4, MaxQueue: 256, Exec: exec})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	// Clean arm: every query must succeed and the cache must be hot.
	rep, err := Run(context.Background(), Config{
		Addr:             addr.String(),
		Sessions:         24,
		Duration:         arm,
		PreparedFraction: 0.5,
		Seed:             3,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("clean arm: %s", rep.String())
	if rep.DialFails != 0 {
		t.Fatalf("clean arm: %d dial failures", rep.DialFails)
	}
	if rep.Errors != 0 {
		t.Fatalf("clean arm: %d errors by code %v", rep.Errors, rep.ByCode)
	}
	if rep.Queries == 0 {
		t.Fatal("clean arm issued no queries")
	}
	if hr := rep.HitRate(); hr < 0.9 {
		t.Fatalf("clean arm cache hit rate %.2f, want >= 0.9 (%v)", hr, rep.ByStatus)
	}
	srv.Shutdown()

	// Chaos arm: a seeded random fault plan with retries on a fresh
	// server. Absorbed faults look like clean queries; surviving ones must
	// surface as typed execution errors that the session shrugs off —
	// never a protocol wedge or a dead connection.
	exec.Faults = pdwqo.RandomFaultPlan(424242, 8, 2)
	exec.MaxRetries = 3
	chaosSrv := server.New(db, server.Config{MaxConcurrent: 4, MaxQueue: 256, Exec: exec})
	chaosAddr, err := chaosSrv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	crep, err := Run(context.Background(), Config{
		Addr:             chaosAddr.String(),
		Sessions:         24,
		Duration:         arm,
		PreparedFraction: 0.5,
		Seed:             4,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("chaos arm: %s", crep.String())
	if crep.DialFails != 0 {
		t.Fatalf("chaos arm: %d dial failures", crep.DialFails)
	}
	if crep.Queries == 0 {
		t.Fatal("chaos arm issued no queries")
	}
	for code := range crep.ByCode {
		if code != server.CodeExec {
			t.Fatalf("chaos arm saw non-exec error code %s: %v", code, crep.ByCode)
		}
	}
	if crep.Errors > crep.Queries/2 {
		t.Fatalf("chaos arm mostly failed: %d/%d errors", crep.Errors, crep.Queries)
	}
	chaosSrv.Shutdown()
}
