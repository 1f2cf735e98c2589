package server

import (
	"bufio"
	"encoding/binary"
	"io"
	"math"
	"net"
	"strconv"
	"strings"

	"context"

	"pdwqo"
	"pdwqo/internal/normalize"
	"pdwqo/internal/par"
)

// frame is one decoded client frame, or the read error that ended the
// stream.
type frame struct {
	op  Op
	p   []byte
	err error
}

// stmt is one prepared statement: the parameterized template whose shape
// fingerprint keys the shared plan cache. Executing it splices the bound
// argument texts back into the source SQL and compiles through the cache,
// so every execution of the same shape re-binds the cached template
// instead of re-running the optimizer.
type stmt struct {
	pq *normalize.ParamQuery
}

// session serves one connection. The session goroutine owns every write
// to the connection; a companion recvLoop goroutine owns every read and
// feeds decoded frames through a channel, so the session can wait on
// "next frame OR query completion OR server shutdown" in one select.
type session struct {
	srv  *Server
	conn net.Conn
	id   uint64

	bw     *bufio.Writer
	frames chan frame
	gone   chan struct{} // closed when the session exits; unblocks recvLoop

	epoch    uint64 // catalog epoch snapshot taken at handshake
	stmts    map[uint32]*stmt
	nextStmt uint32
}

// qresult is what a query worker posts back to the session loop.
type qresult struct {
	res         *pdwqo.Result
	cacheStatus string
	epoch       uint64
	err         error
}

func (s *session) run() (err error) {
	defer par.Recover(&err)
	s.bw = bufio.NewWriter(s.conn)
	s.frames = make(chan frame, 1)
	s.gone = make(chan struct{})
	s.stmts = map[uint32]*stmt{}
	defer close(s.gone)
	go s.recvLoop()
	if s.handshake() {
		s.loop()
	}
	return nil
}

// recvLoop reads frames off the connection into the frames channel until
// a read error or session exit. Sends race session exit via the gone
// channel, so a session that returns while a frame is in flight never
// strands this goroutine.
func (s *session) recvLoop() {
	for {
		op, p, err := ReadFrame(s.conn)
		select {
		case s.frames <- frame{op: op, p: p, err: err}:
			if err != nil {
				return
			}
		case <-s.gone:
			return
		}
	}
}

// next waits for the next client frame or server shutdown. A shutdown
// while waiting is delivered as a synthetic frame carrying the typed
// error, so every receive point handles it uniformly.
func (s *session) next() frame {
	select {
	case f := <-s.frames:
		return f
	case <-s.srv.base.Done():
		return frame{err: errf(CodeShutdown, "server shutting down")}
	}
}

// handshake expects the Hello frame and answers HelloAck. It reports
// whether the session may proceed.
func (s *session) handshake() bool {
	f := s.next()
	if f.err != nil {
		s.writeFail(f.err)
		return false
	}
	if f.op != OpHello {
		s.writeErr(CodeHandshake, "expected Hello, got %s", f.op)
		return false
	}
	d := &dec{b: f.p}
	magic := d.str()
	ver := d.u16()
	if err := d.done(); err != nil {
		s.writeFail(err)
		return false
	}
	if magic != Magic {
		s.writeErr(CodeHandshake, "bad magic %q", magic)
		return false
	}
	if ver != Version {
		s.writeErr(CodeHandshake, "protocol version %d not supported (want %d)", ver, Version)
		return false
	}
	s.epoch = s.srv.db.Shell().Epoch()
	var e enc
	e.u16(Version)
	e.u64(s.id)
	e.u64(s.epoch)
	return s.write(OpHelloAck, e.b)
}

// loop is the idle state: dispatch one frame at a time until the
// connection ends, the client says Bye, a protocol violation closes the
// session, or the server shuts down.
func (s *session) loop() {
	for {
		f := s.next()
		if f.err != nil {
			s.writeFail(f.err)
			return
		}
		switch f.op {
		case OpQuery:
			d := &dec{b: f.p}
			sql := d.str()
			if err := d.done(); err != nil {
				s.writeFail(err)
				return
			}
			if !s.runQuery(sql) {
				return
			}
		case OpPrepare:
			if !s.prepare(f.p) {
				return
			}
		case OpExecStmt:
			if !s.execStmt(f.p) {
				return
			}
		case OpCloseStmt:
			d := &dec{b: f.p}
			id := d.u32()
			if err := d.done(); err != nil {
				s.writeFail(err)
				return
			}
			// Close is idempotent fire-and-forget: double closes and
			// unknown IDs are not errors, so it needs no ack frame.
			delete(s.stmts, id)
		case OpCancel:
			// Cancellation is inherently racy with completion; a cancel
			// arriving when nothing is in flight is a no-op.
		case OpBye:
			return
		default:
			s.writeErr(CodeProtocol, "unexpected %s frame", f.op)
			return
		}
	}
}

// prepare parameterizes the SQL and registers the statement. It reports
// whether the session may continue.
func (s *session) prepare(p []byte) bool {
	d := &dec{b: p}
	sql := d.str()
	if err := d.done(); err != nil {
		s.writeFail(err)
		return false
	}
	if len(s.stmts) >= s.srv.cfg.MaxStmts {
		return s.writeErr(CodeTooManyStmts, "session holds %d prepared statements (cap %d)",
			len(s.stmts), s.srv.cfg.MaxStmts)
	}
	pq, err := normalize.Parameterize(sql)
	if err != nil {
		return s.writeErr(CodeExec, "prepare: %v", err)
	}
	s.nextStmt++
	id := s.nextStmt
	s.stmts[id] = &stmt{pq: pq}
	var e enc
	e.u32(id)
	e.u64(s.epoch)
	e.u16(uint16(len(pq.Lits)))
	for _, l := range pq.Lits {
		e.u8(uint8(l.Kind))
	}
	return s.write(OpPrepareAck, e.b)
}

// execStmt binds arguments into a prepared statement and runs it. The
// spliced SQL has the exact canonical shape of the template, so with a
// plan cache installed the execution re-binds the cached plan without
// recompiling.
func (s *session) execStmt(p []byte) bool {
	d := &dec{b: p}
	id := d.u32()
	n := int(d.u16())
	type arg struct {
		kind normalize.LitKind
		text string
	}
	var args []arg
	for i := 0; i < n && d.err() == nil; i++ {
		k := d.u8()
		args = append(args, arg{kind: normalize.LitKind(k), text: d.str()})
	}
	if err := d.done(); err != nil {
		s.writeFail(err)
		return false
	}
	st, ok := s.stmts[id]
	if !ok {
		return s.writeErr(CodeStmtNotFound, "no prepared statement %d", id)
	}
	if n != len(st.pq.Lits) {
		return s.writeErr(CodeBadParams, "statement %d wants %d arguments, got %d", id, len(st.pq.Lits), n)
	}
	texts := make([]string, n)
	for i, a := range args {
		want := st.pq.Lits[i].Kind
		if a.kind != want {
			return s.writeErr(CodeBadParams, "argument %d is %s, statement slot wants %s", i, a.kind, want)
		}
		text, err := literalText(a.kind, a.text)
		if err != nil {
			return s.writeErr(CodeBadParams, "argument %d: %v", i, err)
		}
		texts[i] = text
	}
	sql, err := st.pq.Splice(texts)
	if err != nil {
		return s.writeErr(CodeBadParams, "%v", err)
	}
	return s.runQuery(sql)
}

// literalText renders one bound argument as a SQL literal token,
// validating numerics so arbitrary client text can never be spliced raw
// into the statement.
func literalText(kind normalize.LitKind, text string) (string, error) {
	switch kind {
	case normalize.LitInt:
		if _, err := strconv.ParseInt(text, 10, 64); err != nil {
			return "", errf(CodeBadParams, "not an integer: %q", text)
		}
		return text, nil
	case normalize.LitFloat:
		if _, err := strconv.ParseFloat(text, 64); err != nil {
			return "", errf(CodeBadParams, "not a float: %q", text)
		}
		return text, nil
	case normalize.LitString:
		return "'" + strings.ReplaceAll(text, "'", "''") + "'", nil
	default:
		return "", errf(CodeBadParams, "unknown literal kind %d", kind)
	}
}

// runQuery takes the session through one query lifecycle: admission,
// compilation, execution on a worker goroutine, then result streaming
// from the session goroutine. While the worker runs, the session keeps
// receiving so a Cancel frame (or connection drop, or shutdown) can stop
// the query promptly. It reports whether the session may continue.
func (s *session) runQuery(sql string) bool {
	qctx, qcancel := context.WithCancel(s.srv.base)
	defer qcancel()
	// Buffered, so the post never blocks even if the session has moved on.
	done := make(chan qresult, 1)
	go func() { done <- s.query(qctx, sql) }()

	var r qresult
wait:
	for {
		select {
		case r = <-done:
			break wait
		case f := <-s.frames:
			if f.err != nil {
				// Connection dropped (or sent garbage) mid-query: stop the
				// query, reap the worker, end the session.
				qcancel()
				<-done
				s.writeFail(f.err)
				return false
			}
			switch f.op {
			case OpCancel:
				qcancel()
			case OpBye:
				qcancel()
				<-done
				return false
			case OpQuery, OpPrepare, OpExecStmt, OpCloseStmt:
				// One query at a time per session; pipelined work is shed
				// with a typed rejection rather than queued.
				if !s.writeErr(CodeBusy, "query already in flight") {
					qcancel()
					<-done
					return false
				}
			default:
				qcancel()
				<-done
				s.writeErr(CodeProtocol, "unexpected %s frame", f.op)
				return false
			}
		case <-s.srv.base.Done():
			qcancel()
			<-done
			s.writeErr(CodeShutdown, "server shutting down")
			return false
		}
	}

	s.srv.queries.Add(1)
	if r.err != nil {
		return s.writeFail(s.mapQueryErr(qctx, r.err))
	}
	if hook := s.srv.cfg.PhaseHook; hook != nil {
		hook(PhaseStreaming, sql)
	}
	return s.stream(r)
}

// query takes one query, on its own goroutine, through admission wait,
// plan compilation through the shared cache, then appliance execution. A
// panic anywhere below — hook, optimizer or engine — comes back as the
// result's error with the admission slot released.
func (s *session) query(ctx context.Context, sql string) (r qresult) {
	defer par.Recover(&r.err)
	hook := s.srv.cfg.PhaseHook
	if hook != nil {
		hook(PhaseQueued, sql)
	}
	release, err := s.srv.adm.acquire(ctx)
	if err != nil {
		return qresult{err: err}
	}
	defer release()
	if hook != nil {
		hook(PhaseCompiling, sql)
	}
	plan, err := s.srv.db.Optimize(sql, s.srv.cfg.Opts)
	if err != nil {
		return qresult{err: s.srv.execErr(err)}
	}
	if ctx.Err() != nil {
		// Compilation is not interruptible; honor a cancel that landed
		// during it before paying for execution.
		return qresult{err: ctx.Err()}
	}
	if hook != nil {
		hook(PhaseExecuting, sql)
	}
	res, err := s.srv.db.Run(ctx, plan, s.srv.cfg.Exec)
	if err != nil {
		return qresult{err: err}
	}
	return qresult{res: res, cacheStatus: plan.CacheStatus, epoch: s.srv.db.Shell().Epoch()}
}

// mapQueryErr classifies a worker failure into its wire error: typed
// errors pass through; a recovered panic is CodeInternal whatever else
// was going on; anything else that failed while the query context was
// cancelled becomes CodeCancelled (or CodeShutdown when the whole server
// is stopping); the rest is CodeExec.
func (s *session) mapQueryErr(qctx context.Context, err error) *Error {
	if e, ok := err.(*Error); ok {
		if e.Code == CodeExec && qctx.Err() != nil {
			// A compile failure observed after cancel; the cancel wins.
			return s.cancelErr(err)
		}
		return e
	}
	if e := s.srv.execErr(err); e.Code == CodeInternal || qctx.Err() == nil {
		return e
	}
	return s.cancelErr(err)
}

func (s *session) cancelErr(err error) *Error {
	if s.srv.base.Err() != nil {
		return errf(CodeShutdown, "server shutting down: %v", err)
	}
	return errf(CodeCancelled, "query cancelled: %v", err)
}

// stream writes the result: RowHeader, RowBatch frames of at most
// BatchRows rows (and 65,535 rows, and MaxFrame bytes), then Done. Between
// batches it polls for a Cancel frame and for shutdown, so a client can
// stop a large result mid-stream. It reports whether the session may
// continue.
func (s *session) stream(r qresult) bool {
	var e enc
	e.u16(uint16(len(r.res.Columns)))
	for _, c := range r.res.Columns {
		e.str(c)
	}
	if !s.write(OpRowHeader, e.b) {
		return false
	}
	rows := r.res.Rows
	batch := min(s.srv.cfg.BatchRows, math.MaxUint16) // the frame counts its rows in a uint16
	for len(rows) > 0 {
		select {
		case f := <-s.frames:
			switch {
			case f.err != nil:
				s.writeFail(f.err)
				return false
			case f.op == OpCancel:
				return s.writeErr(CodeCancelled, "result stream cancelled by client")
			case f.op == OpBye:
				return false
			default:
				s.writeErr(CodeProtocol, "unexpected %s frame during result stream", f.op)
				return false
			}
		case <-s.srv.base.Done():
			s.writeErr(CodeShutdown, "server shutting down")
			return false
		default:
		}
		// A batch ends at BatchRows rows or before the row that would take
		// the frame past MaxFrame, and always carries one row.
		b := enc{b: make([]byte, 2)} // the row count, known once the batch is cut
		n := 0
		for n < batch && n < len(rows) {
			mark := len(b.b)
			for _, v := range rows[n] {
				b.str(v.String())
			}
			if n > 0 && 1+len(b.b) > MaxFrame {
				b.b = b.b[:mark]
				break
			}
			n++
		}
		binary.BigEndian.PutUint16(b.b, uint16(n))
		if !s.write(OpRowBatch, b.b) {
			return false
		}
		rows = rows[n:]
	}
	var d enc
	d.u64(r.epoch)
	d.u64(uint64(len(r.res.Rows)))
	d.str(r.cacheStatus)
	return s.write(OpDone, d.b)
}

// write sends one frame; false means the connection is unwritable and
// the session should end.
func (s *session) write(op Op, payload []byte) bool {
	if err := WriteFrame(s.bw, op, payload); err != nil {
		return false
	}
	return s.bw.Flush() == nil
}

// writeErr sends a typed Error frame; it reports write success so call
// sites can keep or end the session independently of the error sent.
func (s *session) writeErr(code Code, format string, args ...any) bool {
	return s.writeFail(errf(code, format, args...))
}

// writeFail sends err as an Error frame when it carries a wire code;
// plain I/O errors (EOF, closed connection) have nothing to tell the
// peer and send nothing.
func (s *session) writeFail(err error) bool {
	if err == nil || err == io.EOF {
		return false
	}
	e, ok := err.(*Error)
	if !ok {
		return false
	}
	var b enc
	b.u16(uint16(e.Code))
	b.str(e.Msg)
	return s.write(OpError, b.b)
}
