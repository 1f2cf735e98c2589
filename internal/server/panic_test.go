package server

import (
	"context"
	"io"
	"log"
	"sync/atomic"
	"testing"

	"pdwqo"
	"pdwqo/internal/par"
)

// quietLog drops the stacks execErr logs while a test provokes panics on
// purpose.
func quietLog(t *testing.T) {
	prev := log.Writer()
	log.SetOutput(io.Discard)
	t.Cleanup(func() { log.SetOutput(prev) })
}

// TestPanicBecomesInternalError panics once in each query phase — the
// first three on the query's worker goroutine, streaming on the session
// goroutine — and requires what the recover boundaries promise: the
// client is answered CodeInternal, the panic is counted, the admission
// slot comes back, nothing is left on the nodes, and the server goes on
// serving (the same session too, when only its worker died).
func TestPanicBecomesInternalError(t *testing.T) {
	quietLog(t)
	const sql = "SELECT r_name FROM region ORDER BY r_name"
	for _, ph := range []Phase{PhaseQueued, PhaseCompiling, PhaseExecuting, PhaseStreaming} {
		t.Run(ph.String(), func(t *testing.T) {
			db := sharedDB(t)
			var armed atomic.Bool
			armed.Store(true)
			// One slot: a second query can only run if the first gave its back.
			srv, addr := startServer(t, db, Config{MaxConcurrent: 1, PhaseHook: func(p Phase, _ string) {
				if p == ph && armed.CompareAndSwap(true, false) {
					panic("hook blew up while " + p.String())
				}
			}})
			c, err := Dial(addr)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if _, err := c.Query(context.Background(), sql); CodeOf(err) != CodeInternal {
				t.Fatalf("want CodeInternal, got %v", err)
			}
			if got := srv.Stats().Panics; got != 1 {
				t.Errorf("Stats().Panics = %d, want 1", got)
			}
			waitAdmissionDrained(t, srv)
			if ph != PhaseStreaming {
				if _, err := c.Query(context.Background(), sql); err != nil {
					t.Fatalf("session unusable after its worker panicked: %v", err)
				}
			}
			c2, err := Dial(addr)
			if err != nil {
				t.Fatalf("server down after a panic: %v", err)
			}
			defer c2.Close()
			if _, err := c2.Query(context.Background(), sql); err != nil {
				t.Fatalf("server unusable after a panic: %v", err)
			}
			if leaks := leakedServerTables(db); len(leaks) > 0 {
				t.Fatalf("leaked tables: %v", leaks)
			}
		})
	}
}

// TestEnginePanicIsInternal: a panic caught inside the engine's fan-out
// reaches the session wrapped in a step error, and must still be told
// apart from an ordinary execution failure.
func TestEnginePanicIsInternal(t *testing.T) {
	quietLog(t)
	srv := New(sharedDB(t), Config{})
	defer srv.Shutdown()
	stepErr := &pdwqo.StepError{Step: 1, Err: &par.PanicError{Value: "nil map write"}}
	if e := srv.execErr(stepErr); e.Code != CodeInternal {
		t.Errorf("step error wrapping a panic mapped to %s", e.Code)
	}
	if e := srv.execErr(&pdwqo.StepError{Step: 1, Err: io.ErrUnexpectedEOF}); e.Code != CodeExec {
		t.Errorf("plain step error mapped to %s", e.Code)
	}
	if got := srv.Stats().Panics; got != 1 {
		t.Errorf("Stats().Panics = %d, want 1", got)
	}
}
