package server

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := map[Op][]byte{
		OpHello:    []byte("hello payload"),
		OpQuery:    {},
		OpDone:     {0x00, 0x01, 0xff},
		OpRowBatch: bytes.Repeat([]byte{0xAB}, 4096),
	}
	order := []Op{OpHello, OpQuery, OpDone, OpRowBatch}
	for _, op := range order {
		if err := WriteFrame(&buf, op, payloads[op]); err != nil {
			t.Fatal(err)
		}
	}
	for _, op := range order {
		gotOp, gotP, err := ReadFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if gotOp != op {
			t.Errorf("op = %s, want %s", gotOp, op)
		}
		if !bytes.Equal(gotP, payloads[op]) {
			t.Errorf("payload mismatch for %s", op)
		}
	}
	if _, _, err := ReadFrame(&buf); err != io.EOF {
		t.Errorf("exhausted stream must return io.EOF, got %v", err)
	}
}

func TestReadFrameMalformed(t *testing.T) {
	cases := []struct {
		name string
		raw  []byte
	}{
		{"empty length", []byte{0, 0, 0, 0}},
		{"oversized length", []byte{0xff, 0xff, 0xff, 0xff, 0x01}},
		{"truncated header", []byte{0, 0}},
		{"truncated body", []byte{0, 0, 0, 9, byte(OpQuery), 'S', 'E', 'L'}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := ReadFrame(bytes.NewReader(tc.raw))
			if CodeOf(err) != CodeProtocol {
				t.Errorf("want CodeProtocol, got %v", err)
			}
		})
	}
	// A clean EOF mid-header (after zero bytes) is io.EOF, not a protocol
	// error: it is how every well-behaved connection ends.
	if _, _, err := ReadFrame(bytes.NewReader(nil)); err != io.EOF {
		t.Errorf("empty stream: want io.EOF, got %v", err)
	}
}

func TestEncDecRoundTrip(t *testing.T) {
	var e enc
	e.u8(7)
	e.u16(300)
	e.u32(70000)
	e.u64(1 << 40)
	e.str("hello")
	e.str("")
	d := &dec{b: e.b}
	if d.u8() != 7 || d.u16() != 300 || d.u32() != 70000 || d.u64() != 1<<40 {
		t.Error("integer round trip")
	}
	if d.str() != "hello" || d.str() != "" {
		t.Error("string round trip")
	}
	if err := d.done(); err != nil {
		t.Errorf("clean payload: %v", err)
	}
}

func TestDecPoisoning(t *testing.T) {
	d := &dec{b: []byte{0x01}}
	d.u32() // underflows: poisons the decoder
	if d.err() == nil {
		t.Fatal("underflow must poison")
	}
	if d.u8() != 0 || d.u16() != 0 || d.u64() != 0 || d.str() != "" {
		t.Error("poisoned reads must return zero values")
	}
	if CodeOf(d.done()) != CodeProtocol {
		t.Error("done must surface the poison error")
	}

	// A string length that overruns the payload must not allocate.
	var e enc
	e.u32(1 << 30)
	d = &dec{b: e.b}
	if d.str() != "" || d.err() == nil {
		t.Error("overrunning string must poison, not allocate")
	}

	// Trailing garbage is a protocol error.
	d = &dec{b: []byte{1, 2, 3}}
	d.u8()
	if CodeOf(d.done()) != CodeProtocol {
		t.Error("trailing bytes must fail done")
	}
}

func TestErrorAndCodeStrings(t *testing.T) {
	codes := []Code{CodeProtocol, CodeHandshake, CodeBusy, CodeQueueFull, CodeQueueTimeout,
		CodeCancelled, CodeShutdown, CodeStmtNotFound, CodeBadParams, CodeTooManyStmts, CodeExec, CodeInternal}
	if CodeProtocol != 1 || CodeExec != 11 || CodeInternal != 12 {
		t.Errorf("wire code values moved: protocol=%d exec=%d internal=%d", CodeProtocol, CodeExec, CodeInternal)
	}
	seen := map[string]bool{}
	for _, c := range codes {
		s := c.String()
		if seen[s] {
			t.Errorf("duplicate code string %q", s)
		}
		seen[s] = true
	}
	if Code(999).String() != "code(999)" {
		t.Error("unknown code string")
	}
	e := &Error{Code: CodeBusy, Msg: "one at a time"}
	if e.Error() != "server: busy: one at a time" {
		t.Errorf("error text = %q", e.Error())
	}
	if (&Error{Code: CodeBusy}).Error() != "server: busy" {
		t.Error("message-less error text")
	}
	if CodeOf(nil) != 0 || CodeOf(io.EOF) != 0 {
		t.Error("CodeOf without a wire code must be 0")
	}
	if CodeOf(wrapErr{e}) != CodeBusy {
		t.Error("CodeOf must unwrap")
	}
	ops := []Op{OpHello, OpQuery, OpPrepare, OpExecStmt, OpCloseStmt, OpCancel, OpBye,
		OpHelloAck, OpPrepareAck, OpRowHeader, OpRowBatch, OpDone, OpError}
	names := map[string]bool{}
	for _, op := range ops {
		s := op.String()
		if names[s] || strings.HasPrefix(s, "Op(") {
			t.Errorf("op %d string %q", op, s)
		}
		names[s] = true
	}
	if Op(0x7f).String() != "Op(0x7f)" {
		t.Error("unknown op string")
	}
}

type wrapErr struct{ inner error }

func (w wrapErr) Error() string { return "wrapped: " + w.inner.Error() }
func (w wrapErr) Unwrap() error { return w.inner }

// frameBytes renders frames into one byte stream, for fuzz seeds and raw
// protocol tests.
func frameBytes(frames ...[2]any) []byte {
	var buf bytes.Buffer
	for _, f := range frames {
		WriteFrame(&buf, f[0].(Op), f[1].([]byte))
	}
	return buf.Bytes()
}

func helloPayload(magic string, version uint16) []byte {
	var e enc
	e.str(magic)
	e.u16(version)
	return e.b
}

func queryPayload(sql string) []byte {
	var e enc
	e.str(sql)
	return e.b
}

// serveBytes runs raw as one client's byte stream against a fresh
// session of srv and returns when the session exits, draining whatever
// the server writes.
func serveBytes(t testing.TB, srv *Server, raw []byte) {
	t.Helper()
	client, serverEnd := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.ServeConn(serverEnd)
	}()
	go func() {
		client.SetWriteDeadline(time.Now().Add(5 * time.Second))
		client.Write(raw)
		// Close as soon as the bytes are delivered: for truncated-frame
		// inputs the server is blocked mid-io.ReadFull and only the close
		// can end the session.
		client.Close()
	}()
	io.Copy(io.Discard, client)
	client.Close()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("session did not exit")
	}
}

// FuzzWireDecode throws arbitrary byte streams at a live session:
// truncated frames, oversized lengths, bad opcodes, garbage mid-
// handshake. The invariant is the server's, not the input's: every
// session must terminate without panicking, and every complaint it
// writes must be a well-formed typed Error frame.
func FuzzWireDecode(f *testing.F) {
	for _, seed := range fuzzSeeds() {
		f.Add(seed)
	}
	srv := New(sharedDB(f), Config{MaxConcurrent: 2, MaxQueue: 2})
	defer srv.Shutdown()
	f.Fuzz(func(t *testing.T, raw []byte) {
		client, serverEnd := net.Pipe()
		done := make(chan struct{})
		go func() {
			defer close(done)
			srv.ServeConn(serverEnd)
		}()
		go func() {
			client.SetWriteDeadline(time.Now().Add(2 * time.Second))
			client.Write(raw)
			client.Close()
		}()
		// Drain and validate the server's side of the conversation: it
		// must emit only well-formed frames with server-side opcodes.
		br := bytesReaderFromConn(client)
		for {
			op, p, err := ReadFrame(br)
			if err != nil {
				break
			}
			switch op {
			case OpHelloAck, OpPrepareAck, OpRowHeader, OpRowBatch, OpDone:
			case OpError:
				if e, ok := decodeError(p).(*Error); !ok || e.Code == 0 {
					t.Fatalf("malformed Error frame: %x", p)
				}
			default:
				t.Fatalf("server wrote client-side opcode %s", op)
			}
		}
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("session did not exit")
		}
	})
}

func bytesReaderFromConn(c net.Conn) io.Reader {
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	return c
}

// fuzzSeeds is the in-code seed corpus; the same streams are checked in
// under testdata/fuzz/FuzzWireDecode for the CI fuzz smoke.
func fuzzSeeds() [][]byte {
	hello := frameBytes([2]any{OpHello, helloPayload(Magic, Version)})
	seeds := [][]byte{
		{},
		hello,
		frameBytes(
			[2]any{OpHello, helloPayload(Magic, Version)},
			[2]any{OpQuery, queryPayload("SELECT r_name FROM region ORDER BY r_name")},
			[2]any{OpBye, []byte{}},
		),
		frameBytes(
			[2]any{OpHello, helloPayload(Magic, Version)},
			[2]any{OpPrepare, queryPayload("SELECT n_name FROM nation WHERE n_regionkey = 1")},
		),
		frameBytes([2]any{OpHello, helloPayload("NOPE", Version)}),
		frameBytes([2]any{OpHello, helloPayload(Magic, 99)}),
		frameBytes([2]any{OpQuery, queryPayload("SELECT 1")}),     // query before handshake
		frameBytes([2]any{Op(0x77), []byte("mystery")}),           // unknown opcode
		append(hello, frameBytes([2]any{Op(0x00), []byte{}})...),  // zero opcode after handshake
		append(hello, 0xff, 0xff, 0xff, 0xff),                     // oversized length prefix
		append(hello, 0x00, 0x00, 0x00, 0x09, byte(OpQuery), 'S'), // truncated body
		hello[:len(hello)-3],                                           // truncated handshake
		[]byte("GET / HTTP/1.1\r\nHost: pdw\r\n\r\n"),                  // wrong protocol entirely
		append(hello, frameBytes([2]any{OpCancel, []byte{}})...),       // idle cancel
		append(hello, frameBytes([2]any{OpExecStmt, []byte{0, 0}})...), // truncated ExecStmt payload
	}
	return seeds
}

// TestFuzzSeedsNoLeak runs every seed through a live server and holds
// the satellite invariant directly: no session goroutine survives its
// connection.
func TestFuzzSeedsNoLeak(t *testing.T) {
	srv := New(sharedDB(t), Config{MaxConcurrent: 2, MaxQueue: 2})
	before := runtime.NumGoroutine()
	for _, seed := range fuzzSeeds() {
		serveBytes(t, srv, seed)
	}
	srv.Shutdown()
	assertNoGoroutineGrowth(t, before)
}

// assertNoGoroutineGrowth polls until the goroutine count returns to at
// most the baseline (scheduling is asynchronous; exiting goroutines take
// a beat to be reaped), dumping all stacks on failure.
func assertNoGoroutineGrowth(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= baseline {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d before, %d after\n%s",
				baseline, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestWriteFrameSplitWriter exercises the two-write path of WriteFrame
// against a writer that errors on the payload write.
func TestWriteFrameSplitWriter(t *testing.T) {
	w := &failAfter{n: 5}
	if err := WriteFrame(w, OpQuery, []byte("x")); err == nil {
		t.Error("payload write failure must surface")
	}
	w = &failAfter{n: 0}
	if err := WriteFrame(w, OpQuery, nil); err == nil {
		t.Error("header write failure must surface")
	}
}

type failAfter struct{ n int }

func (f *failAfter) Write(p []byte) (int, error) {
	if f.n <= 0 {
		return 0, errors.New("broken pipe")
	}
	if len(p) > f.n {
		p = p[:f.n]
	}
	f.n -= len(p)
	return len(p), nil
}

var _ = binary.BigEndian // keep binary imported for helpers below
