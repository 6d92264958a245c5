package miniredis

import (
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/resp"
)

// Options configures a Server.
type Options struct {
	// Addr is the TCP listen address. Empty means "127.0.0.1:0" (an
	// OS-assigned port, retrievable via Server.Addr).
	Addr string
	// OpDelay is an artificial per-command service delay. The paper observes
	// that Redis mappings are heavier than in-process multiprocessing queues
	// ("Redis supports more features ... which render Redis more
	// resource-intensive"); OpDelay lets the benchmark harness model that
	// extra cost explicitly and lets the ablation bench sweep it.
	OpDelay time.Duration
	// DispatchDelay is an artificial per-command delay held *inside* the
	// dispatch lock. Where OpDelay models per-connection latency (sleeps
	// overlap across connections), DispatchDelay models the server's bounded
	// single-threaded command bandwidth: real Redis executes commands on one
	// thread, so a shard caps out near 1/serviceTime ops/s no matter how many
	// clients pipeline at it. The shard-scaling bench sets it so that adding
	// shards multiplies aggregate bandwidth the way added Redis servers would,
	// which an in-process server on shared CPUs otherwise cannot exhibit.
	DispatchDelay time.Duration
	// Logf receives server diagnostics. Nil silences logging.
	Logf func(format string, args ...any)
}

// Server is the in-memory data-plane server (see the package comment for
// the command table it serves).
type Server struct {
	opts Options
	ln   net.Listener

	mu    sync.Mutex
	db    *db
	watch map[string][]*waiter // stream key -> blocked XREADGROUP wake-ups

	connMu sync.Mutex
	active map[net.Conn]struct{}

	closed   atomic.Bool
	conns    sync.WaitGroup
	commands atomic.Int64
}

// NewServer creates a server without starting it.
func NewServer(opts Options) *Server {
	return &Server{
		opts:   opts,
		db:     newDB(),
		watch:  make(map[string][]*waiter),
		active: make(map[net.Conn]struct{}),
	}
}

// Start begins listening and serving connections.
func (s *Server) Start() error {
	addr := s.opts.Addr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("miniredis: listen: %w", err)
	}
	s.ln = ln
	s.conns.Add(1)
	go s.acceptLoop()
	return nil
}

// StartTestServer starts a server on an ephemeral port and returns it. It is
// a convenience for tests and examples.
func StartTestServer() (*Server, error) {
	s := NewServer(Options{})
	if err := s.Start(); err != nil {
		return nil, err
	}
	return s, nil
}

// Addr returns the bound listen address (valid after Start).
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Commands reports how many commands the server has processed.
func (s *Server) Commands() int64 { return s.commands.Load() }

// Close stops the listener, disconnects every client (including ones
// blocked mid-read), wakes all blocked commands, and waits for connection
// goroutines to drain.
func (s *Server) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	var err error
	if s.ln != nil {
		err = s.ln.Close()
	}
	s.mu.Lock()
	for key, ws := range s.watch {
		for _, w := range ws {
			w.wake()
		}
		delete(s.watch, key)
	}
	s.mu.Unlock()
	s.connMu.Lock()
	for conn := range s.active {
		conn.Close()
	}
	s.connMu.Unlock()
	s.conns.Done()
	s.conns.Wait()
	return err
}

func (s *Server) logf(format string, args ...any) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
	}
}

// acceptLoop serves each accepted connection. A connection is counted and
// registered under connMu, where Close looks for them, so one accepted while
// Close runs is either closed by Close or refused here, never missed.
func (s *Server) acceptLoop() {
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			if !s.closed.Load() {
				s.logf("miniredis: accept: %v", err)
			}
			return
		}
		s.connMu.Lock()
		if s.closed.Load() {
			s.connMu.Unlock()
			conn.Close()
			return
		}
		s.conns.Add(1)
		s.active[conn] = struct{}{}
		s.connMu.Unlock()
		go s.serveConn(conn)
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.conns.Done()
	defer conn.Close()
	defer func() {
		s.connMu.Lock()
		delete(s.active, conn)
		s.connMu.Unlock()
	}()
	r := resp.NewReader(conn)
	w := resp.NewWriter(conn)
	for {
		argv, err := r.ReadCommand()
		if err != nil {
			if err != io.EOF && !errors.Is(err, net.ErrClosed) && !s.closed.Load() {
				s.logf("miniredis: read: %v", err)
			}
			return
		}
		if s.closed.Load() {
			return
		}
		s.commands.Add(1)
		if s.opts.OpDelay > 0 {
			time.Sleep(s.opts.OpDelay)
		}
		// Replies are coalesced: one flush carries the replies of every
		// command that arrived together, and none waits behind a block
		// (XREADGROUP is the one command that can block).
		if strings.EqualFold(argv[0], "XREADGROUP") {
			if err := w.Flush(); err != nil {
				return
			}
		}
		reply, quit := s.dispatch(argv)
		if err := w.WriteValue(reply); err != nil {
			return
		}
		if quit || r.Buffered() == 0 {
			if err := w.Flush(); err != nil {
				return
			}
		}
		if quit {
			return
		}
	}
}

// notifyKey wakes every XREADGROUP blocked on stream key. Only writes that
// can satisfy such a read call it: XADD, SINKAPPEND's XADD arm, and FLUSHALL
// (so a blocked reader re-evaluates against the emptied keyspace). Callers
// must hold s.mu.
func (s *Server) notifyKey(key string) {
	ws := s.watch[key]
	if len(ws) == 0 {
		return
	}
	for _, w := range ws {
		w.wake()
	}
	delete(s.watch, key)
}

// waiter is one blocked read's wake-up. A read blocked on several keys is
// registered under each, so it may be woken more than once before it
// deregisters; wake closes its channel only the first time. Guarded by s.mu.
type waiter struct {
	ch    chan struct{}
	fired bool
}

func (w *waiter) wake() {
	if !w.fired {
		w.fired = true
		close(w.ch)
	}
}

// awaitKeys blocks until one of the stream keys is appended to, the timeout
// elapses (zero timeout means wait forever), or the server closes. It must be
// called with s.mu held; it releases the lock while waiting and reacquires
// before returning. The return value is false on timeout/closure. A command
// dispatched after Close swept the watch map returns at once: nobody would
// wake its channel, and s.mu orders this check before any later sweep.
func (s *Server) awaitKeys(keys []string, deadline time.Time) bool {
	if s.closed.Load() {
		return false
	}
	w := &waiter{ch: make(chan struct{})}
	ch := w.ch
	for _, k := range keys {
		s.watch[k] = append(s.watch[k], w)
	}
	s.mu.Unlock()
	var ok bool
	if deadline.IsZero() {
		<-ch
		ok = !s.closed.Load()
	} else {
		timer := time.NewTimer(time.Until(deadline))
		select {
		case <-ch:
			ok = !s.closed.Load()
		case <-timer.C:
			ok = false
		}
		timer.Stop()
	}
	s.mu.Lock()
	// Deregister our channel wherever it is still present (timeout path).
	for _, k := range keys {
		ws := s.watch[k]
		for i, c := range ws {
			if c == w {
				s.watch[k] = append(ws[:i], ws[i+1:]...)
				break
			}
		}
		if len(s.watch[k]) == 0 {
			delete(s.watch, k)
		}
	}
	return ok
}

// dispatch executes one command under the server lock. The second result
// requests connection termination (QUIT).
func (s *Server) dispatch(argv []string) (resp.Value, bool) {
	cmd := strings.ToUpper(argv[0])
	args := argv[1:]

	// QUIT is handled outside the table for its connection side effect.
	if cmd == "QUIT" {
		return resp.OK, true
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.opts.DispatchDelay > 0 {
		time.Sleep(s.opts.DispatchDelay)
	}

	h, ok := commandTable[cmd]
	if !ok {
		return resp.Errf("ERR unknown command '%s'", argv[0]), false
	}
	if len(args) < h.minArgs || (h.maxArgs >= 0 && len(args) > h.maxArgs) {
		return resp.Errf("ERR wrong number of arguments for '%s' command", strings.ToLower(cmd)), false
	}
	return h.fn(s, args), false
}

// handler describes one command implementation.
type handler struct {
	fn      func(s *Server, args []string) resp.Value
	minArgs int
	maxArgs int // -1 = unbounded
}

// commandTable maps command names to handlers. Populated by init functions in
// the cmd_*.go files.
var commandTable = map[string]handler{}

func register(name string, minArgs, maxArgs int, fn func(s *Server, args []string) resp.Value) {
	if _, dup := commandTable[name]; dup {
		log.Panicf("miniredis: duplicate command %q", name)
	}
	commandTable[name] = handler{fn: fn, minArgs: minArgs, maxArgs: maxArgs}
}

// errValue converts an error produced by store helpers into a RESP error,
// preserving pre-formatted Redis error codes (WRONGTYPE, ERR ...).
func errValue(err error) resp.Value {
	msg := err.Error()
	if strings.HasPrefix(msg, "ERR ") || strings.HasPrefix(msg, "WRONGTYPE") ||
		strings.HasPrefix(msg, "BUSYGROUP") || strings.HasPrefix(msg, "NOGROUP") {
		return resp.Err(msg)
	}
	return resp.Err("ERR " + msg)
}
