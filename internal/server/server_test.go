package server

import (
	"context"
	"math"
	"net"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"pdwqo"
	"pdwqo/internal/rowcmp"
	"pdwqo/internal/types"
)

var (
	dbOnce sync.Once
	dbVal  *pdwqo.DB
	dbErr  error
)

// sharedDB is one tiny TPC-H appliance (2 nodes, sf 0.001) with a plan
// cache, shared by every test that only reads from it.
func sharedDB(t testing.TB) *pdwqo.DB {
	dbOnce.Do(func() {
		dbVal, dbErr = pdwqo.OpenTPCH(0.001, 2, 42)
		if dbErr == nil {
			dbVal.SetPlanCache(0)
		}
	})
	if dbErr != nil {
		t.Fatalf("open tpch: %v", dbErr)
	}
	return dbVal
}

// startServer runs a server on an ephemeral TCP port and tears it down
// with the test.
func startServer(t testing.TB, db *pdwqo.DB, cfg Config) (*Server, string) {
	t.Helper()
	srv := New(db, cfg)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(srv.Shutdown)
	return srv, addr.String()
}

// sameAsLibrary compares a wire result with the library's result of the
// same query under the exact rule.
func sameAsLibrary(got *Result, want *pdwqo.Result) error {
	wire := rowcmp.Relation{Name: "wire", Columns: got.Columns, Rows: got.Rows}
	return rowcmp.Exact.Compare(wire, rowcmp.Exact.Render("library", want.Columns, want.Rows))
}

func TestQueryRoundTrip(t *testing.T) {
	db := sharedDB(t)
	srv, addr := startServer(t, db, Config{})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.SessionID() == 0 {
		t.Error("session ID must be assigned")
	}
	if c.Epoch() != db.Shell().Epoch() {
		t.Error("handshake epoch snapshot")
	}

	const sql = "SELECT r_name FROM region ORDER BY r_name"
	got, err := c.Query(context.Background(), sql)
	if err != nil {
		t.Fatal(err)
	}
	want, err := db.Execute(sql, pdwqo.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := sameAsLibrary(got, want); err != nil {
		t.Error(err)
	}
	if got.Epoch != db.Shell().Epoch() {
		t.Error("Done must carry the current epoch")
	}
	if st := srv.Stats(); st.Queries == 0 || st.Sessions == 0 || st.Admission.Admitted == 0 {
		t.Errorf("stats not counting: %+v", st)
	}
}

func TestQueryExecErrorKeepsSession(t *testing.T) {
	_, addr := startServer(t, sharedDB(t), Config{})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.Query(context.Background(), "SELECT nonsense FROM nowhere")
	if CodeOf(err) != CodeExec {
		t.Fatalf("want CodeExec, got %v", err)
	}
	// The session must survive an execution error.
	if _, err := c.Query(context.Background(), "SELECT r_name FROM region ORDER BY r_name"); err != nil {
		t.Fatalf("session unusable after exec error: %v", err)
	}
}

func TestPreparedStatements(t *testing.T) {
	db := sharedDB(t)
	_, addr := startServer(t, db, Config{})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const tpl = "SELECT n_name FROM nation WHERE n_regionkey = 1 ORDER BY n_name"
	st, err := c.Prepare(tpl)
	if err != nil {
		t.Fatal(err)
	}
	if st.NumParams() != 1 {
		t.Fatalf("params = %d, want 1", st.NumParams())
	}

	for rk := 0; rk < 3; rk++ {
		got, err := st.Exec(context.Background(), rk)
		if err != nil {
			t.Fatalf("exec rk=%d: %v", rk, err)
		}
		lib := strings.Replace(tpl, "= 1", "= "+itoa(rk), 1)
		want, err := db.Execute(lib, pdwqo.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := sameAsLibrary(got, want); err != nil {
			t.Errorf("rk=%d: %v", rk, err)
		}
		if rk > 0 && got.CacheStatus != "hit" {
			// The first execution may miss (or hit, if another test already
			// compiled the shape); every re-bound execution must hit.
			t.Errorf("rk=%d: cache status %q, want hit", rk, got.CacheStatus)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// Closed statement: the server must answer a typed stmt-not-found.
	if _, err := st.Exec(context.Background(), 1); CodeOf(err) != CodeStmtNotFound {
		t.Errorf("exec after close: want CodeStmtNotFound, got %v", err)
	}
}

func itoa(n int) string {
	return string(rune('0' + n))
}

// TestSignedArgumentStaysOneToken: a negative argument spliced after a
// minus must not open a -- comment that swallows the rest of the
// statement; the result is the library's serial answer for 10-(-3).
func TestSignedArgumentStaysOneToken(t *testing.T) {
	db := sharedDB(t)
	_, addr := startServer(t, db, Config{})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	st, err := c.Prepare("SELECT COUNT(*) FROM orders WHERE o_orderkey > 10-5 AND o_orderkey < 7")
	if err != nil {
		t.Fatal(err)
	}
	got, err := st.Exec(context.Background(), 10, -3, 7)
	if err != nil {
		t.Fatal(err)
	}
	want, err := db.ExecuteSerial("SELECT COUNT(*) FROM orders WHERE o_orderkey > 10-(-3) AND o_orderkey < 7")
	if err != nil {
		t.Fatal(err)
	}
	if err := sameAsLibrary(got, want); err != nil {
		t.Error(err)
	}
}

func TestPreparedStatementErrors(t *testing.T) {
	_, addr := startServer(t, sharedDB(t), Config{MaxStmts: 2})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	st, err := c.Prepare("SELECT n_name FROM nation WHERE n_regionkey = 1 AND n_nationkey > 1.5 AND n_name <> 'FRANCE'")
	if err != nil {
		t.Fatal(err)
	}
	if st.NumParams() != 3 {
		t.Fatalf("params = %d, want 3", st.NumParams())
	}
	// Client-side arity check.
	if _, err := st.Exec(context.Background(), 1); CodeOf(err) != CodeBadParams {
		t.Errorf("arity: want CodeBadParams, got %v", err)
	}
	// Client-side unsupported type.
	if _, err := st.Exec(context.Background(), 1, 2.5, struct{}{}); CodeOf(err) != CodeBadParams {
		t.Errorf("bad type: want CodeBadParams, got %v", err)
	}
	// Server-side kind validation: a non-numeric string bound to an int slot.
	if _, err := st.Exec(context.Background(), "DROP TABLE nation", 2.5, "GERMANY"); CodeOf(err) != CodeBadParams {
		t.Errorf("int slot with garbage text: want CodeBadParams, got %v", err)
	}
	if _, err := st.Exec(context.Background(), 1, "not-a-float", "GERMANY"); CodeOf(err) != CodeBadParams {
		t.Errorf("float slot with garbage text: want CodeBadParams, got %v", err)
	}
	// A quote in a string argument must be escaped, not break the splice.
	if _, err := st.Exec(context.Background(), 1, 2.5, "O'BRIEN"); err != nil {
		t.Errorf("quoted string argument: %v", err)
	}
	// Lexically invalid SQL fails at prepare with a typed error.
	if _, err := c.Prepare("SELECT ' dangling"); CodeOf(err) != CodeExec {
		t.Errorf("bad prepare: want CodeExec, got %v", err)
	}
	// The statement cap is enforced with a typed rejection.
	if _, err := c.Prepare("SELECT r_name FROM region WHERE r_regionkey = 2"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Prepare("SELECT r_name FROM region WHERE r_regionkey = 3"); CodeOf(err) != CodeTooManyStmts {
		t.Errorf("stmt cap: want CodeTooManyStmts, got %v", err)
	}
}

// TestFloatArgumentsAreDecimalLiterals: a float argument is spliced into
// the statement's text, so only a finite decimal literal may reach it.
// NaN once became a reference to a column named NaN (and returned that
// column's comparison's rows), ±Inf a reference to an unknown column,
// and a hex float a parse error. Each is refused with CodeBadParams, the
// decimal spellings accepted before still run, and the session serves on.
func TestFloatArgumentsAreDecimalLiterals(t *testing.T) {
	shell, err := pdwqo.NewShellFromDDL(2,
		"CREATE TABLE t (k BIGINT PRIMARY KEY, x FLOAT, NaN FLOAT) WITH (DISTRIBUTION = HASH(k))")
	if err != nil {
		t.Fatal(err)
	}
	db, err := pdwqo.Open(shell, map[string][]pdwqo.Row{"t": {
		{types.NewInt(1), types.NewFloat(5), types.NewFloat(1)},
		{types.NewInt(2), types.NewFloat(0), types.NewFloat(-1)},
	}})
	if err != nil {
		t.Fatal(err)
	}
	_, addr := startServer(t, db, Config{})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	st, err := c.Prepare("SELECT k FROM t WHERE x > 1.5")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, arg := range []any{math.NaN(), math.Inf(1), math.Inf(-1), "0x1p3", "NaN", "Inf", "1e", "1.5.2", "-", ""} {
		if res, err := st.Exec(ctx, arg); CodeOf(err) != CodeBadParams {
			t.Errorf("argument %v: want CodeBadParams, got rows %v, err %v", arg, res, err)
		}
	}
	for _, arg := range []any{1.5, "+5", "0005", "1e+06", "-2", ".5", "4.", "2E0"} {
		if _, err := st.Exec(ctx, arg); err != nil {
			t.Errorf("argument %v: %v", arg, err)
		}
	}
	res, err := st.Exec(ctx, 1.5)
	if err != nil || len(res.Rows) != 1 || res.Rows[0][0] != "1" {
		t.Fatalf("session after the refused arguments: %v, %v", res, err)
	}
}

// TestArgumentsAreOneLiteral: a numeric argument is exactly one literal.
// Blanks or a comment beside it are refused: spliced, 1 -- x would
// comment out the rest of the line.
func TestArgumentsAreOneLiteral(t *testing.T) {
	_, addr := startServer(t, sharedDB(t), Config{})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	st, err := c.Prepare("SELECT n_name FROM nation WHERE n_regionkey = 1 AND n_nationkey > 1.5")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, arg := range []string{"1 -- x", " 5", "5/**/"} {
		if _, err := st.Exec(ctx, arg, 1.5); CodeOf(err) != CodeBadParams {
			t.Errorf("INT argument %q: want CodeBadParams, got %v", arg, err)
		}
		if _, err := st.Exec(ctx, 1, arg); CodeOf(err) != CodeBadParams {
			t.Errorf("FLOAT argument %q: want CodeBadParams, got %v", arg, err)
		}
	}
	if _, err := st.Exec(ctx, -1, -1.5); err != nil {
		t.Errorf("signed arguments: %v", err)
	}
}

// TestNegativeArgumentsShareThePlan: a negative argument fills a slot as
// one signed literal, so the statement keeps the shape it was prepared
// with and its second execution re-binds the first one's plan.
func TestNegativeArgumentsShareThePlan(t *testing.T) {
	db := sharedDB(t)
	_, addr := startServer(t, db, Config{})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	st, err := c.Prepare("SELECT o_orderkey, o_custkey FROM orders WHERE o_orderkey = 7")
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range []int{-3, -4} {
		got, err := st.Exec(context.Background(), k)
		if err != nil {
			t.Fatal(err)
		}
		want, err := db.ExecuteSerial("SELECT o_orderkey, o_custkey FROM orders WHERE o_orderkey = " + strconv.Itoa(k))
		if err != nil {
			t.Fatal(err)
		}
		if err := sameAsLibrary(got, want); err != nil {
			t.Error(err)
		}
		if i == 1 && got.CacheStatus != "hit" {
			t.Errorf("o_orderkey = %d: cache status %q, want hit", k, got.CacheStatus)
		}
	}
}

// TestPrepareTooManyLiterals prepares a statement with one more literal
// slot than the ack's uint16 count can carry (a ~380 KB IN list, well
// under MaxFrame): the server must refuse it with a typed error before
// registering it, and the session must stay usable.
func TestPrepareTooManyLiterals(t *testing.T) {
	_, addr := startServer(t, sharedDB(t), Config{MaxStmts: 1})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var b strings.Builder
	b.WriteString("SELECT r_name FROM region WHERE r_regionkey IN (0")
	for i := 1; i <= math.MaxUint16; i++ {
		b.WriteString(", ")
		b.WriteString(strconv.Itoa(i))
	}
	b.WriteString(")")
	if _, err := c.Prepare(b.String()); CodeOf(err) != CodeExec {
		t.Fatalf("65,536 literals: want CodeExec, got %v", err)
	}
	// Not registered: the one-statement cap still has room.
	st, err := c.Prepare("SELECT r_name FROM region WHERE r_regionkey = 1")
	if err != nil {
		t.Fatal(err)
	}
	res, err := st.Exec(context.Background(), 2)
	if err != nil || len(res.Rows) != 1 {
		t.Fatalf("session after the refused prepare: %v, %v", res, err)
	}
}

// TestOversizedRequestKeepsSession sends a query and a statement argument
// that do not fit one frame: each is refused with a typed protocol error
// before a byte is written, and the session goes on serving.
func TestOversizedRequestKeepsSession(t *testing.T) {
	_, addr := startServer(t, sharedDB(t), Config{})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	huge := strings.Repeat("x", MaxFrame+1<<20)
	ctx := context.Background()
	if _, err := c.Query(ctx, "SELECT r_name FROM region WHERE r_name = '"+huge+"'"); CodeOf(err) != CodeProtocol {
		t.Fatalf("oversized query: want CodeProtocol, got %v", err)
	}
	st, err := c.Prepare("SELECT r_regionkey FROM region WHERE r_name = 'ASIA'")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Exec(ctx, huge); CodeOf(err) != CodeProtocol {
		t.Fatalf("oversized argument: want CodeProtocol, got %v", err)
	}
	res, err := c.Query(ctx, "SELECT r_name FROM region ORDER BY r_name")
	if err != nil || len(res.Rows) != 5 {
		t.Fatalf("session after the refused frames: %v, %v", res, err)
	}
	if res, err = st.Exec(ctx, "EUROPE"); err != nil || len(res.Rows) != 1 {
		t.Fatalf("statement after the refused frame: %v, %v", res, err)
	}
}

func TestHandshakeErrors(t *testing.T) {
	_, addr := startServer(t, sharedDB(t), Config{})
	cases := []struct {
		name string
		raw  []byte
		want Code
	}{
		{"bad magic", frameBytes([2]any{OpHello, helloPayload("EVIL", Version)}), CodeHandshake},
		{"bad version", frameBytes([2]any{OpHello, helloPayload(Magic, 42)}), CodeHandshake},
		{"query first", frameBytes([2]any{OpQuery, queryPayload("SELECT 1")}), CodeHandshake},
		{"garbage hello payload", frameBytes([2]any{OpHello, []byte{1, 2}}), CodeProtocol},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if _, err := conn.Write(tc.raw); err != nil {
				t.Fatal(err)
			}
			conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			op, p, err := ReadFrame(conn)
			if err != nil {
				t.Fatalf("read: %v", err)
			}
			if op != OpError {
				t.Fatalf("want Error frame, got %s", op)
			}
			if got := CodeOf(decodeError(p)); got != tc.want {
				t.Errorf("code = %v, want %v", got, tc.want)
			}
		})
	}
}

// TestBusyRejection pipelines a second query while the first is held
// mid-compile and expects the typed one-query-at-a-time rejection.
func TestBusyRejection(t *testing.T) {
	release := make(chan struct{})
	var once sync.Once
	cfg := Config{PhaseHook: func(ph Phase, _ string) {
		if ph == PhaseCompiling {
			once.Do(func() { <-release })
		}
	}}
	_, addr := startServer(t, sharedDB(t), cfg)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := conn.Write(frameBytes([2]any{OpHello, helloPayload(Magic, Version)})); err != nil {
		t.Fatal(err)
	}
	if op, _, err := ReadFrame(conn); err != nil || op != OpHelloAck {
		t.Fatalf("handshake: %v %v", op, err)
	}
	const sql = "SELECT r_name FROM region ORDER BY r_name"
	conn.Write(frameBytes([2]any{OpQuery, queryPayload(sql)}))
	conn.Write(frameBytes([2]any{OpQuery, queryPayload(sql)}))
	// The pipelined query is rejected first, while the held one is busy.
	op, p, err := ReadFrame(conn)
	if err != nil || op != OpError {
		t.Fatalf("want Error frame, got %v %v", op, err)
	}
	if got := CodeOf(decodeError(p)); got != CodeBusy {
		t.Fatalf("code = %v, want busy", got)
	}
	close(release)
	// The held query then completes normally.
	sawDone := false
	for !sawDone {
		op, p, err := ReadFrame(conn)
		if err != nil {
			t.Fatalf("read after busy: %v", err)
		}
		switch op {
		case OpRowHeader, OpRowBatch:
		case OpDone:
			sawDone = true
		case OpError:
			t.Fatalf("held query failed: %v", decodeError(p))
		}
	}
}

func TestShutdownIdleSession(t *testing.T) {
	srv, addr := startServer(t, sharedDB(t), Config{})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	done := make(chan struct{})
	go func() {
		srv.Shutdown()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("shutdown hung on an idle session")
	}
	// The idle session is told why before the connection closes.
	c.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	op, p, err := ReadFrame(c.br)
	if err == nil && op == OpError {
		if got := CodeOf(decodeError(p)); got != CodeShutdown {
			t.Errorf("code = %v, want shutdown", got)
		}
	}
	// Queries against a shut-down server fail rather than hang.
	if _, err := c.Query(context.Background(), "SELECT r_name FROM region"); err == nil {
		t.Error("query after shutdown must fail")
	}
	// A shut-down server refuses new listeners.
	if _, err := srv.Listen("127.0.0.1:0"); CodeOf(err) != CodeShutdown {
		t.Errorf("listen after shutdown: %v", err)
	}
}

// TestConcurrentSessions drives parallel clients through one server and
// cross-checks every result against the library path.
func TestConcurrentSessions(t *testing.T) {
	db := sharedDB(t)
	const sql = "SELECT n_name, n_regionkey FROM nation ORDER BY n_name"
	want, err := db.Execute(sql, pdwqo.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, addr := startServer(t, db, Config{MaxConcurrent: 4, MaxQueue: 64})
	const sessions = 16
	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for q := 0; q < 3; q++ {
				got, err := c.Query(context.Background(), sql)
				if err != nil {
					errs <- err
					return
				}
				if err := sameAsLibrary(got, want); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestShutdownReleasesEverything asserts the server leaves no goroutines
// behind after serving traffic and shutting down.
func TestShutdownReleasesEverything(t *testing.T) {
	db := sharedDB(t) // open the fixture before taking the goroutine baseline
	before := runtime.NumGoroutine()
	srv := New(db, Config{})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Query(context.Background(), "SELECT r_name FROM region ORDER BY r_name"); err != nil {
		t.Fatal(err)
	}
	c.Close()
	srv.Shutdown()
	assertNoGoroutineGrowth(t, before)
}

// TestLargeBatchesFitTheFrame sets BatchRows above what a RowBatch frame
// can say or hold: its row count is a uint16 and the frame is bounded by
// MaxFrame, so the server must cut such batches short. A 70,001-row result
// must reach the client row for row, and a result whose rows fit one
// batch's count but not one frame's bytes must arrive in several frames.
func TestLargeBatchesFitTheFrame(t *testing.T) {
	db := sharedDB(t)
	_, addr := startServer(t, db, Config{BatchRows: 70000})

	const narrow = "SELECT TOP 70001 l_orderkey, n_nationkey FROM lineitem, nation"
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	got, err := c.Query(context.Background(), narrow)
	if err != nil {
		t.Fatal(err)
	}
	want, err := db.Execute(narrow, pdwqo.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Rows) != 70001 {
		t.Errorf("%d rows over the wire, want 70001", len(got.Rows))
	}
	if err := sameAsLibrary(got, want); err != nil {
		t.Error(err)
	}

	const wide = `SELECT TOP 65000 l_orderkey, l_partkey, l_suppkey, l_linenumber, l_quantity,
		l_extendedprice, l_discount, l_tax, l_returnflag, l_linestatus, l_shipdate,
		l_commitdate, l_receiptdate, l_shipmode, n_name FROM lineitem, nation`
	r := dialRaw(t, addr)
	var e enc
	e.str(wide)
	r.send(OpQuery, e.b)
	frames, rows, size := 0, 0, 0
	for done := false; !done; {
		op, p, err := ReadFrame(r.conn) // rejects a frame over MaxFrame
		if err != nil {
			t.Fatal(err)
		}
		switch op {
		case OpRowHeader:
		case OpRowBatch:
			d := dec{b: p}
			frames, rows, size = frames+1, rows+int(d.u16()), size+len(p)
		case OpDone:
			done = true
		default:
			t.Fatalf("unexpected %s frame: %v", op, decodeError(p))
		}
	}
	if rows != 65000 || size <= MaxFrame || frames < 2 {
		t.Errorf("%d rows in %d frames of %d bytes: want 65000 rows, more bytes than one frame's %d, so several frames", rows, frames, size, MaxFrame)
	}
}

// TestRawMarkerQueryFails: an ad-hoc query or a prepared statement whose
// text holds a raw parameter marker is a CodeExec error naming the
// marker, through the server's plan cache as through a cold compile, and
// the session survives it.
func TestRawMarkerQueryFails(t *testing.T) {
	_, addr := startServer(t, sharedDB(t), Config{})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const sql = "SELECT o_orderkey FROM orders WHERE o_orderkey = \x00?0\x00 AND o_custkey > 5"
	const want = "parameter marker 0 has no argument"
	res, err := c.Query(context.Background(), sql)
	if CodeOf(err) != CodeExec || !strings.Contains(err.Error(), want) {
		t.Fatalf("ad-hoc: got %v (result %v), want a CodeExec error with %q", err, res, want)
	}
	if _, err := c.Prepare(sql); CodeOf(err) != CodeExec || !strings.Contains(err.Error(), want) {
		t.Fatalf("prepare: got %v, want a CodeExec error with %q", err, want)
	}
	if _, err := c.Query(context.Background(), "SELECT r_name FROM region ORDER BY r_name"); err != nil {
		t.Fatalf("session unusable after the error: %v", err)
	}
}
