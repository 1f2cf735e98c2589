// Package server is the appliance's long-lived front end: a TCP wire
// protocol over pdwqo.DB that serves many concurrent client sessions the
// way the paper's control node does — each session compiles against the
// shared plan cache, prepared statements re-bind constants into cached
// parameterized templates without recompiling, an admission queue bounds
// concurrent execution with typed queue-full/timeout rejections, and
// cancellation is threaded from the connection's context through
// DB.Run into per-step engine execution.
//
// The wire format is deliberately small: length-prefixed frames, one
// opcode byte, big-endian fixed-width integers, and length-prefixed
// strings. A conversation is
//
//	client                         server
//	Hello(magic, version)      →
//	                           ←   HelloAck(version, session, epoch)
//	Query(sql)                 →
//	                           ←   RowHeader(cols)
//	                           ←   RowBatch(rows)...
//	                           ←   Done(epoch, rows, cacheStatus)
//	Prepare(sql)               →
//	                           ←   PrepareAck(stmt, epoch, paramKinds)
//	ExecStmt(stmt, args)       →
//	                           ←   RowHeader / RowBatch... / Done
//	Cancel                     →   (cancels the in-flight query)
//	                           ←   Error(code, msg)   [typed failure]
//	Bye                        →   (graceful close)
//
// Every failure surfaces as an Error frame carrying a stable Code, so
// clients can distinguish protocol violations, admission rejections,
// cancellation, and execution errors without parsing messages.
package server

import (
	"encoding/binary"
	"fmt"
	"io"
)

// Protocol constants.
const (
	// Magic opens every handshake; a connection that doesn't lead with it
	// is not speaking this protocol.
	Magic = "PDW1"
	// Version is the protocol version this package speaks.
	Version = 1
	// MaxFrame bounds one frame's encoded size (length prefix excluded); a
	// larger announced length is a protocol error, so a hostile or corrupt
	// length prefix can never make the server allocate unboundedly.
	MaxFrame = 8 << 20
)

// Op identifies a frame's type.
type Op uint8

// Client→server opcodes.
const (
	OpHello Op = 0x01 + iota
	OpQuery
	OpPrepare
	OpExecStmt
	OpCloseStmt
	OpCancel
	OpBye
)

// Server→client opcodes.
const (
	OpHelloAck Op = 0x81 + iota
	OpPrepareAck
	OpRowHeader
	OpRowBatch
	OpDone
	OpError
)

// String names the opcode for errors and traces.
func (o Op) String() string {
	switch o {
	case OpHello:
		return "Hello"
	case OpQuery:
		return "Query"
	case OpPrepare:
		return "Prepare"
	case OpExecStmt:
		return "ExecStmt"
	case OpCloseStmt:
		return "CloseStmt"
	case OpCancel:
		return "Cancel"
	case OpBye:
		return "Bye"
	case OpHelloAck:
		return "HelloAck"
	case OpPrepareAck:
		return "PrepareAck"
	case OpRowHeader:
		return "RowHeader"
	case OpRowBatch:
		return "RowBatch"
	case OpDone:
		return "Done"
	case OpError:
		return "Error"
	default:
		return fmt.Sprintf("Op(0x%02x)", uint8(o))
	}
}

// Code classifies a typed wire error.
type Code uint16

// Error codes.
const (
	// CodeProtocol is a malformed frame: bad length, truncated payload,
	// unknown opcode, or a field that does not decode.
	CodeProtocol Code = 1 + iota
	// CodeHandshake is a failed handshake (bad magic or version, or a
	// non-Hello first frame).
	CodeHandshake
	// CodeBusy rejects a query arriving while the session already has one
	// in flight; the protocol is one-query-at-a-time per session.
	CodeBusy
	// CodeQueueFull is the admission controller shedding load: every
	// execution slot is taken and the wait queue is at capacity.
	CodeQueueFull
	// CodeQueueTimeout is an admission wait that exceeded the configured
	// queue timeout before a slot freed up.
	CodeQueueTimeout
	// CodeCancelled is a query stopped by a client Cancel frame or the
	// connection dropping mid-query.
	CodeCancelled
	// CodeShutdown is a query or session terminated by server shutdown.
	CodeShutdown
	// CodeStmtNotFound is an ExecStmt or CloseStmt naming an unknown
	// prepared-statement ID.
	CodeStmtNotFound
	// CodeBadParams is an ExecStmt whose argument count or kinds do not
	// match the prepared statement's literal slots.
	CodeBadParams
	// CodeTooManyStmts rejects a Prepare beyond the per-session statement
	// cap.
	CodeTooManyStmts
	// CodeExec is a compilation or execution failure; the message carries
	// the underlying error text.
	CodeExec
	// CodeInternal is a server bug: a panic caught at one of the server's
	// recover boundaries. The query (or, from the session goroutine, the
	// session) is lost; the server keeps serving.
	CodeInternal
)

// String names the code.
func (c Code) String() string {
	switch c {
	case CodeProtocol:
		return "protocol"
	case CodeHandshake:
		return "handshake"
	case CodeBusy:
		return "busy"
	case CodeQueueFull:
		return "queue-full"
	case CodeQueueTimeout:
		return "queue-timeout"
	case CodeCancelled:
		return "cancelled"
	case CodeShutdown:
		return "shutdown"
	case CodeStmtNotFound:
		return "stmt-not-found"
	case CodeBadParams:
		return "bad-params"
	case CodeTooManyStmts:
		return "too-many-stmts"
	case CodeExec:
		return "exec"
	case CodeInternal:
		return "internal"
	default:
		return fmt.Sprintf("code(%d)", uint16(c))
	}
}

// Error is the typed failure both sides of the wire exchange: the server
// encodes it into Error frames, the client decodes frames back into it,
// and in-process callers (admission control, the session loop) pass it
// around directly.
type Error struct {
	Code Code
	Msg  string
}

// Error renders "server: <code>: <msg>".
func (e *Error) Error() string {
	if e.Msg == "" {
		return "server: " + e.Code.String()
	}
	return "server: " + e.Code.String() + ": " + e.Msg
}

// errf builds a typed error.
func errf(code Code, format string, args ...any) *Error {
	return &Error{Code: code, Msg: fmt.Sprintf(format, args...)}
}

// CodeOf extracts the wire code from any error chain (0 when err carries
// none), so callers can switch on typed failures without unwrapping.
func CodeOf(err error) Code {
	for err != nil {
		if e, ok := err.(*Error); ok {
			return e.Code
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return 0
		}
		err = u.Unwrap()
	}
	return 0
}

// --- frame I/O ---

// WriteFrame writes one frame: uint32 big-endian length (opcode byte +
// payload), then the opcode, then the payload.
func WriteFrame(w io.Writer, op Op, payload []byte) error {
	var hdr [5]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(1+len(payload)))
	hdr[4] = byte(op)
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if len(payload) > 0 {
		if _, err := w.Write(payload); err != nil {
			return err
		}
	}
	return nil
}

// ReadFrame reads one frame from r, enforcing the MaxFrame bound. A
// malformed frame returns a *Error with CodeProtocol; a clean EOF at a
// frame boundary returns io.EOF.
func ReadFrame(r io.Reader) (Op, []byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return 0, nil, io.EOF
		}
		return 0, nil, errf(CodeProtocol, "truncated frame header: %v", err)
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n < 1 {
		return 0, nil, errf(CodeProtocol, "empty frame")
	}
	if n > MaxFrame {
		return 0, nil, errf(CodeProtocol, "frame of %d bytes exceeds the %d-byte bound", n, MaxFrame)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return 0, nil, errf(CodeProtocol, "truncated frame body: %v", err)
	}
	return Op(buf[0]), buf[1:], nil
}

// --- payload encoding ---

// enc builds a frame payload.
type enc struct{ b []byte }

func (e *enc) u8(v uint8)   { e.b = append(e.b, v) }
func (e *enc) u16(v uint16) { e.b = binary.BigEndian.AppendUint16(e.b, v) }
func (e *enc) u32(v uint32) { e.b = binary.BigEndian.AppendUint32(e.b, v) }
func (e *enc) u64(v uint64) { e.b = binary.BigEndian.AppendUint64(e.b, v) }
func (e *enc) str(s string) {
	e.u32(uint32(len(s)))
	e.b = append(e.b, s...)
}

// dec walks a frame payload; the first malformed field poisons the
// decoder, every later read returns zero values, and err() surfaces the
// typed protocol error. This keeps the per-opcode parsers linear with a
// single error check at the end — exactly what the wire fuzzer hammers.
type dec struct {
	b    []byte
	fail *Error
}

func (d *dec) bad(format string, args ...any) {
	if d.fail == nil {
		d.fail = errf(CodeProtocol, format, args...)
	}
}

func (d *dec) take(n int) []byte {
	if d.fail != nil {
		return nil
	}
	if len(d.b) < n {
		d.bad("payload truncated: need %d bytes, have %d", n, len(d.b))
		return nil
	}
	out := d.b[:n]
	d.b = d.b[n:]
	return out
}

func (d *dec) u8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (d *dec) u16() uint16 {
	b := d.take(2)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint16(b)
}

func (d *dec) u32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

func (d *dec) u64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

func (d *dec) str() string {
	n := d.u32()
	if d.fail == nil && uint64(n) > uint64(len(d.b)) {
		d.bad("string of %d bytes overruns payload of %d", n, len(d.b))
	}
	return string(d.take(int(n)))
}

// done asserts the payload is fully consumed; trailing garbage is a
// protocol error (it means the two sides disagree about the layout).
func (d *dec) done() *Error {
	if d.fail == nil && len(d.b) > 0 {
		d.bad("%d trailing bytes after payload", len(d.b))
	}
	return d.fail
}

func (d *dec) err() *Error { return d.fail }
