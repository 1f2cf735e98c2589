package server

import (
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"pdwqo"
)

// cancelAction is one way a query can be torn down mid-flight.
type cancelAction string

const (
	actClientCancel cancelAction = "client-cancel"
	actConnDrop     cancelAction = "conn-drop"
	actShutdown     cancelAction = "shutdown"
)

// TestCancellationMatrix runs every teardown action at every query
// phase: the client sends Cancel, the connection drops, or the server
// shuts down while a query is queued, compiling, executing, or
// streaming. In every cell the server must answer promptly with the
// right typed error (when the connection still exists to answer on),
// release the admission slot, leave no temp tables, and strand no
// goroutines. Every cell runs at GOMAXPROCS 1, 2 and NumCPU, so the
// verdict does not depend on how many cores the host happens to have.
func TestCancellationMatrix(t *testing.T) {
	phases := []Phase{PhaseQueued, PhaseCompiling, PhaseExecuting, PhaseStreaming}
	actions := []cancelAction{actClientCancel, actConnDrop, actShutdown}
	for _, ph := range phases {
		for _, act := range actions {
			t.Run(fmt.Sprintf("%s/%s", ph, act), func(t *testing.T) {
				for _, procs := range procsLadder() {
					t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
						defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
						runCancelCase(t, ph, act)
					})
				}
			})
		}
	}
}

// procsLadder is the GOMAXPROCS settings schedule-sensitive tests run at.
func procsLadder() []int {
	ladder := []int{1, 2}
	if n := runtime.NumCPU(); n > 2 {
		ladder = append(ladder, n)
	}
	return ladder
}

// rawSession is a frame-level client for tests that need to control
// exact wire timing (the high-level Client hides when Cancel is sent).
type rawSession struct {
	t    *testing.T
	conn net.Conn
}

func dialRaw(t *testing.T, addr string) *rawSession {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	conn.SetDeadline(time.Now().Add(30 * time.Second))
	r := &rawSession{t: t, conn: conn}
	t.Cleanup(func() { conn.Close() })
	r.send(OpHello, helloPayload(Magic, Version))
	if op, _, err := ReadFrame(conn); err != nil || op != OpHelloAck {
		t.Fatalf("handshake: op=%v err=%v", op, err)
	}
	return r
}

func (r *rawSession) send(op Op, payload []byte) {
	r.t.Helper()
	if err := WriteFrame(r.conn, op, payload); err != nil {
		r.t.Fatalf("send %s: %v", op, err)
	}
}

// readToTerminal reads result frames until Done or Error, returning the
// terminal op and (for errors) the decoded code.
func (r *rawSession) readToTerminal() (Op, Code, error) {
	for {
		op, p, err := ReadFrame(r.conn)
		if err != nil {
			return 0, 0, err
		}
		switch op {
		case OpRowHeader, OpRowBatch:
		case OpDone:
			return OpDone, 0, nil
		case OpError:
			return OpError, CodeOf(decodeError(p)), nil
		default:
			return op, 0, fmt.Errorf("unexpected %s frame", op)
		}
	}
}

func runCancelCase(t *testing.T, target Phase, act cancelAction) {
	db := sharedDB(t)
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	cfg := Config{
		MaxConcurrent: 2,
		MaxQueue:      4,
		BatchRows:     8, // small batches so streaming has many cancel points
		PhaseHook: func(ph Phase, _ string) {
			if ph == target {
				once.Do(func() {
					entered <- struct{}{}
					<-release
				})
			}
		},
	}
	srv := New(db, cfg)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()
	baseline := runtime.NumGoroutine()

	// A query with a non-trivial result so streaming has work to cancel.
	const sql = "SELECT o_orderkey FROM orders ORDER BY o_orderkey"
	r := dialRaw(t, addr.String())
	r.send(OpQuery, queryPayload(sql))
	select {
	case <-entered:
	case <-time.After(30 * time.Second):
		t.Fatal("query never reached the target phase")
	}

	switch act {
	case actClientCancel:
		r.send(OpCancel, nil)
		// Give the frame time to cross the loopback into the session's
		// frame channel before the query is allowed to proceed.
		time.Sleep(50 * time.Millisecond)
		close(release)
		op, code, err := r.readToTerminal()
		if err != nil {
			t.Fatalf("reading cancel response: %v", err)
		}
		if op != OpError || code != CodeCancelled {
			t.Fatalf("phase %s: terminal = %s/%s, want Error/cancelled", target, op, code)
		}
		// The session survives a cancelled query.
		r.send(OpQuery, queryPayload("SELECT r_name FROM region ORDER BY r_name"))
		if op, code, err := r.readToTerminal(); err != nil || op != OpDone {
			t.Fatalf("session unusable after cancel: op=%s code=%s err=%v", op, code, err)
		}
		r.send(OpBye, nil)

	case actConnDrop:
		r.conn.Close()
		close(release)

	case actShutdown:
		shutdownDone := make(chan struct{})
		go func() {
			srv.Shutdown()
			close(shutdownDone)
		}()
		// Shutdown blocks on the session, which is blocked on the hook;
		// release it so the teardown can complete.
		time.Sleep(50 * time.Millisecond)
		close(release)
		op, code, err := r.readToTerminal()
		// The shutdown answer races the connection close; an EOF/reset is
		// acceptable, but any frame that does arrive must be the typed
		// shutdown error.
		if err == nil && (op != OpError || code != CodeShutdown) {
			t.Fatalf("phase %s: terminal = %s/%s, want Error/shutdown", target, op, code)
		}
		select {
		case <-shutdownDone:
		case <-time.After(30 * time.Second):
			t.Fatal("shutdown hung")
		}
	}

	// Whatever the action, the admission slot must come back, no temp or
	// staging table may survive, and no session goroutine may linger.
	waitAdmissionDrained(t, srv)
	if leaks := leakedServerTables(db); len(leaks) > 0 {
		t.Fatalf("phase %s/%s leaked tables: %v", target, act, leaks)
	}
	if act != actShutdown {
		srv.Shutdown()
	}
	assertNoGoroutineGrowth(t, baseline)
}

func waitAdmissionDrained(t *testing.T, srv *Server) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		st := srv.Stats().Admission
		if st.Running == 0 && st.Waiting == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("admission never drained: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// leakedServerTables scans every node for temp or staging tables; after
// any query teardown there must be none.
func leakedServerTables(db *pdwqo.DB) []string {
	a := db.Appliance()
	var leaks []string
	check := func(nodeID int, names []string) {
		for _, n := range names {
			if strings.HasPrefix(n, "TEMP") || strings.Contains(n, "__stage") {
				leaks = append(leaks, fmt.Sprintf("node %d: %s", nodeID, n))
			}
		}
	}
	check(a.Control.ID, a.Control.DB.Names())
	for _, n := range a.Compute {
		check(n.ID, n.DB.Names())
	}
	return leaks
}
