package server

import (
	"context"
	"errors"
	"log"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"pdwqo"
	"pdwqo/internal/par"
)

// Phase labels where in its lifecycle a query currently is; the
// cancellation test matrix uses the PhaseHook to cancel at each one.
type Phase int

// Query phases, in order.
const (
	// PhaseQueued is before admission: the query is about to wait for an
	// execution slot.
	PhaseQueued Phase = iota
	// PhaseCompiling is after admission, before optimization.
	PhaseCompiling
	// PhaseExecuting is after optimization, before appliance execution.
	PhaseExecuting
	// PhaseStreaming is after execution, before result frames are written.
	PhaseStreaming
)

// String names the phase.
func (p Phase) String() string {
	switch p {
	case PhaseQueued:
		return "queued"
	case PhaseCompiling:
		return "compiling"
	case PhaseExecuting:
		return "executing"
	case PhaseStreaming:
		return "streaming"
	default:
		return "unknown"
	}
}

// Config tunes a Server; the zero value gets sensible defaults.
type Config struct {
	// MaxConcurrent bounds simultaneously executing queries across all
	// sessions (default 8). Everything beyond it queues.
	MaxConcurrent int
	// MaxQueue bounds the admission wait queue (default 64). A query
	// arriving with the queue full is rejected immediately with
	// CodeQueueFull.
	MaxQueue int
	// QueueTimeout bounds how long an admitted query may wait for an
	// execution slot before a CodeQueueTimeout rejection; 0 (the default)
	// waits indefinitely.
	QueueTimeout time.Duration
	// BatchRows is how many rows each RowBatch frame carries (default
	// 256). Cancellation is checked between batches, so it also bounds
	// cancel latency while streaming.
	BatchRows int
	// MaxStmts caps prepared statements per session (default 64).
	MaxStmts int
	// Opts are the optimizer options every session compiles with.
	Opts pdwqo.Options
	// Exec is the execution configuration every query runs under
	// (parallelism, retry policy, fault plan, tracer). Sessions share one
	// appliance; each run takes this value and reconfigures nothing.
	Exec pdwqo.ExecConfig
	// PhaseHook, when non-nil, is called as each query enters each phase
	// (with the query SQL). Test instrumentation: the cancellation matrix
	// uses it to line up a cancel with a precise phase. It runs on the
	// query's goroutine and may block.
	PhaseHook func(Phase, string)
}

func (c Config) withDefaults() Config {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 8
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 64
	}
	if c.BatchRows <= 0 {
		c.BatchRows = 256
	}
	if c.MaxStmts <= 0 {
		c.MaxStmts = 64
	}
	return c
}

// Server serves the wire protocol over one pdwqo.DB. All sessions share
// the DB's plan cache and appliance; per-session state (prepared
// statements, epoch snapshot, in-flight query) lives in the session.
type Server struct {
	db   *pdwqo.DB
	cfg  Config
	adm  *admission
	base context.Context
	stop context.CancelFunc
	wg   sync.WaitGroup

	nextSession atomic.Uint64
	queries     atomic.Uint64 // terminal responses sent, ok or error
	panics      atomic.Uint64 // panics converted to CodeInternal

	mu        sync.Mutex
	listeners map[net.Listener]bool
	conns     map[net.Conn]bool
	closed    bool
}

// New builds a Server over db with cfg.
func New(db *pdwqo.DB, cfg Config) *Server {
	cfg = cfg.withDefaults()
	base, stop := context.WithCancel(context.Background())
	return &Server{
		db:        db,
		cfg:       cfg,
		adm:       newAdmission(cfg.MaxConcurrent, cfg.MaxQueue, cfg.QueueTimeout),
		base:      base,
		stop:      stop,
		listeners: map[net.Listener]bool{},
		conns:     map[net.Conn]bool{},
	}
}

// Serve accepts connections on l until l is closed or the server shuts
// down, serving each connection on its own goroutine. It returns nil
// after Shutdown, otherwise the accept error.
func (s *Server) Serve(l net.Listener) error {
	if !s.track(l) {
		l.Close()
		return errf(CodeShutdown, "server is shut down")
	}
	defer s.untrack(l)
	for {
		conn, err := l.Accept()
		if err != nil {
			if s.base.Err() != nil {
				return nil
			}
			return err
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.ServeConn(conn)
		}()
	}
}

// Listen starts serving on a fresh TCP listener bound to addr (use
// "127.0.0.1:0" for an ephemeral test port) and returns its address.
// Serve runs on a background goroutine owned by the server.
func (s *Server) Listen(addr string) (net.Addr, error) {
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return nil, errf(CodeShutdown, "server is shut down")
	}
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.Serve(l)
	}()
	return l.Addr(), nil
}

// ServeConn runs one session over an established connection (any
// net.Conn, including net.Pipe ends in tests) and returns when the
// session ends. The connection is always closed on return. A panic on the
// session goroutine ends that session only: the peer is told
// CodeInternal, best effort, before the close.
func (s *Server) ServeConn(conn net.Conn) {
	if !s.trackConn(conn) {
		conn.Close()
		return
	}
	defer s.untrackConn(conn)
	sess := &session{
		srv:  s,
		conn: conn,
		id:   s.nextSession.Add(1),
	}
	if err := sess.run(); err != nil {
		sess.writeFail(s.execErr(err))
	}
}

// execErr is the wire error of a failed compilation or execution:
// CodeExec, unless the failure is a panic one of the recover boundaries
// caught — then CodeInternal, counted, with the stack logged here since
// the peer is not shown it.
func (s *Server) execErr(err error) *Error {
	var pe *par.PanicError
	if !errors.As(err, &pe) {
		return errf(CodeExec, "%v", err)
	}
	s.panics.Add(1)
	log.Printf("server: recovered panic: %v\n%s", pe.Value, pe.Stack)
	return errf(CodeInternal, "%v", err)
}

// Shutdown stops the server: no new connections are accepted, every
// session's in-flight query is cancelled and answered with a typed
// CodeShutdown error, and all connections close. It blocks until every
// session goroutine has exited, so a return from Shutdown means no
// server goroutines remain.
func (s *Server) Shutdown() {
	s.stop()
	s.mu.Lock()
	s.closed = true
	for l := range s.listeners {
		l.Close()
	}
	s.mu.Unlock()
	// Sessions notice base cancellation at their next select and close
	// their own connections; no force-close is needed because every
	// session blocking point (frame wait, worker wait, admission wait,
	// engine step) selects on the base context.
	s.wg.Wait()
}

// Stats is a snapshot of server-wide counters.
type Stats struct {
	// Sessions is how many sessions have ever been opened.
	Sessions uint64
	// Queries is how many queries reached a terminal response (Done or
	// Error), ExecStmt included.
	Queries uint64
	// Panics is how many panics the recover boundaries converted into a
	// CodeInternal answer.
	Panics uint64
	// Admission is the admission gate's counter snapshot.
	Admission AdmissionStats
}

// Stats snapshots the server counters.
func (s *Server) Stats() Stats {
	return Stats{
		Sessions:  s.nextSession.Load(),
		Queries:   s.queries.Load(),
		Panics:    s.panics.Load(),
		Admission: s.adm.stats(),
	}
}

// track registers a listener; false means the server is already shut
// down.
func (s *Server) track(l net.Listener) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.listeners[l] = true
	return true
}

func (s *Server) untrack(l net.Listener) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.listeners, l)
	l.Close()
}

func (s *Server) trackConn(c net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.conns[c] = true
	return true
}

func (s *Server) untrackConn(c net.Conn) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.conns, c)
	c.Close()
}
