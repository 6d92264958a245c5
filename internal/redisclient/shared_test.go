package redisclient_test

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/redisclient"
	"repro/internal/resp"
)

// countingDialer dials TCP and counts the connections it made and the Write
// and Read calls made on them.
type countingDialer struct {
	dials, writes, reads atomic.Int64
}

func (d *countingDialer) Dial(network, addr string, timeout time.Duration) (net.Conn, error) {
	nc, err := net.DialTimeout(network, addr, timeout)
	if err != nil {
		return nil, err
	}
	d.dials.Add(1)
	return &countedConn{Conn: nc, d: d}, nil
}

type countedConn struct {
	net.Conn
	d *countingDialer
}

func (c *countedConn) Write(b []byte) (int, error) {
	c.d.writes.Add(1)
	return c.Conn.Write(b)
}

func (c *countedConn) Read(b []byte) (int, error) {
	c.d.reads.Add(1)
	return c.Conn.Read(b)
}

// stub is a RESP server on a raw TCP listener. It records every command it
// receives and withholds every reply until release is called, so commands
// stay in flight for as long as a test needs; it never replies if release
// is never called.
type stub struct {
	ln       net.Listener
	gate     chan struct{}
	released sync.Once

	mu   sync.Mutex
	cmds [][]string
}

func newStub(t *testing.T) *stub {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &stub{ln: ln, gate: make(chan struct{})}
	var conns sync.WaitGroup
	t.Cleanup(func() {
		s.release()
		ln.Close()
		conns.Wait()
	})
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			conns.Add(1)
			go func() {
				defer conns.Done()
				s.serve(nc)
			}()
		}
	}()
	return s
}

func (s *stub) release() { s.released.Do(func() { close(s.gate) }) }

// serve reads commands as they arrive and replies to them in order once
// the gate is open.
func (s *stub) serve(nc net.Conn) {
	defer nc.Close()
	pending := make(chan []string, 1024) // above any test's command count: reading never waits on replying
	go func() {
		defer close(pending)
		r := resp.NewReader(nc)
		for {
			argv, err := r.ReadCommand()
			if err != nil {
				return
			}
			s.mu.Lock()
			s.cmds = append(s.cmds, argv)
			s.mu.Unlock()
			pending <- argv
		}
	}()
	w := resp.NewWriter(nc)
	for argv := range pending {
		select {
		case <-s.gate:
		case <-time.After(10 * time.Second):
			return
		}
		if w.WriteValue(stubReply(argv)) != nil || w.Flush() != nil {
			return
		}
	}
}

// stubReply answers each command with a reply of the shape its typed helper
// expects; HGET echoes its field, so every caller can check it got its own.
func stubReply(argv []string) resp.Value {
	switch strings.ToUpper(argv[0]) {
	case "HGET":
		return resp.Str(argv[2])
	case "XADD":
		return resp.Str("1-1")
	case "INCRBY":
		return resp.Int(1)
	case "XREADGROUP":
		return resp.NilArray()
	case "XAUTOCLAIM":
		return resp.Arr(resp.Str("0-0"), resp.Arr())
	default:
		return resp.OK
	}
}

// received returns how many commands the stub has read.
func (s *stub) received() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.cmds)
}

// waitReceived waits until the stub has read n commands.
func (s *stub) waitReceived(t *testing.T, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for s.received() < n {
		if time.Now().After(deadline) {
			t.Fatalf("stub received %d commands, want %d", s.received(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// stubClient returns a client of s whose dials d counts.
func stubClient(t *testing.T, s *stub, d *countingDialer) *redisclient.Client {
	t.Helper()
	cl := redisclient.Dial(s.ln.Addr().String())
	cl.Dialer = d.Dial
	t.Cleanup(func() { cl.Close() })
	return cl
}

// TestRetrySafeCommandsShareInFlightConn: while one retry-safe command is in
// flight, retry-safe commands from other goroutines join its connection
// instead of dialing, and each gets its own reply.
func TestRetrySafeCommandsShareInFlightConn(t *testing.T) {
	s := newStub(t)
	var d countingDialer
	cl := stubClient(t, s, &d)
	const n = 5
	got := make([]string, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	get := func(i int) {
		defer wg.Done()
		got[i], _, errs[i] = cl.HGet("h", fmt.Sprintf("f%d", i))
	}
	wg.Add(1)
	go get(0)
	s.waitReceived(t, 1)
	for i := 1; i < n; i++ {
		wg.Add(1)
		go get(i)
	}
	s.waitReceived(t, n)
	if dials := d.dials.Load(); dials != 1 {
		t.Fatalf("%d dials for %d concurrent retry-safe commands, want 1", dials, n)
	}
	s.release()
	wg.Wait()
	for i := range got {
		if errs[i] != nil || got[i] != fmt.Sprintf("f%d", i) {
			t.Errorf("caller %d: reply %q, err %v", i, got[i], errs[i])
		}
	}
	if dials := d.dials.Load(); dials != 1 {
		t.Fatalf("%d dials after the replies, want 1", dials)
	}
}

// TestExclusiveCommandsDialTheirOwnConn: a non-retry-safe command and a
// blocking read never join the shared connection, even while a retry-safe
// command holds it in flight.
func TestExclusiveCommandsDialTheirOwnConn(t *testing.T) {
	s := newStub(t)
	var d countingDialer
	cl := stubClient(t, s, &d)
	var wg sync.WaitGroup
	run := func(f func() error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := f(); err != nil {
				t.Error(err)
			}
		}()
	}
	run(func() error { _, _, err := cl.HGet("h", "f"); return err })
	s.waitReceived(t, 1)
	run(func() error { _, err := cl.XAddValues("q", "f", "v"); return err })
	s.waitReceived(t, 2)
	run(func() error { _, err := cl.XReadGroup("g", "w0", 8, time.Second, "q"); return err })
	s.waitReceived(t, 3)
	if dials := d.dials.Load(); dials != 3 {
		t.Fatalf("%d dials, want 3: shared HGET, own XADD, own blocking XREADGROUP", dials)
	}
	s.release()
	wg.Wait()
}

// TestSerialRetrySafeCommandsUseOneConn: a serial caller never needs a
// second connection, so sharing makes no dial a serial run would not make.
func TestSerialRetrySafeCommandsUseOneConn(t *testing.T) {
	cl := newPair(t)
	var d countingDialer
	cl.Dialer = d.Dial
	const n = 50
	for i := 0; i < n; i++ {
		if _, _, err := cl.FenceApplyIncr("h", fmt.Sprintf("t%d", i), "cnt", 1); err != nil {
			t.Fatal(err)
		}
		if _, _, err := cl.HGet("h", "cnt"); err != nil {
			t.Fatal(err)
		}
	}
	if dials := d.dials.Load(); dials != 1 {
		t.Fatalf("%d dials for %d serial commands, want 1", dials, 2*n)
	}
}

// TestSharedConnDropFailsEveryQueuedCommand: an injected drop on one queued
// command's read fails that command with the injected error and the others
// queued with it as a dropped connection, which they retry on a fresh one.
func TestSharedConnDropFailsEveryQueuedCommand(t *testing.T) {
	for _, retries := range []int{0, 2} {
		t.Run(fmt.Sprintf("retries=%d", retries), func(t *testing.T) {
			s := newStub(t)
			var d countingDialer
			cl := stubClient(t, s, &d)
			cl.Retries = retries
			// Two HGETs queue first; the GET that joins them is the target.
			arm(t, faultinject.Fault{
				Probe: faultinject.ProbeConnRead, Cmd: "GET", Hits: 1, Kind: faultinject.ConnDrop,
			})
			want := []string{"f0", "f1", "OK"}
			got := make([]string, len(want))
			errs := make([]error, len(want))
			var wg sync.WaitGroup
			for i := range want {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if i < 2 {
						got[i], _, errs[i] = cl.HGet("h", want[i])
					} else {
						got[i], _, errs[i] = cl.Get("k")
					}
				}()
				s.waitReceived(t, i+1)
			}
			if retries > 0 {
				s.waitReceived(t, 2*len(want)) // all three re-sent
				s.release()
			}
			wg.Wait()
			if retries == 0 {
				if !errors.Is(errs[2], faultinject.ErrConnDrop) {
					t.Fatalf("targeted command: %v, want the injected drop", errs[2])
				}
				for i := 0; i < 2; i++ {
					var ce *redisclient.CmdError
					if !errors.As(errs[i], &ce) || !ce.Retryable() || errors.Is(errs[i], faultinject.ErrConnDrop) {
						t.Fatalf("queued command %d: %v, want a retryable dropped connection", i, errs[i])
					}
				}
				return
			}
			for i := range want {
				if errs[i] != nil || got[i] != want[i] {
					t.Errorf("caller %d: reply %q, err %v", i, got[i], errs[i])
				}
			}
			if dials := d.dials.Load(); dials < 2 {
				t.Fatalf("%d dials: the retries did not move to a fresh connection", dials)
			}
		})
	}
}

// TestCmdTimeoutBoundsEverySharer: on a server that never replies, every
// command queued on the shared connection fails within CmdTimeout.
func TestCmdTimeoutBoundsEverySharer(t *testing.T) {
	s := newStub(t)
	var d countingDialer
	cl := stubClient(t, s, &d)
	cl.Retries = 0
	cl.CmdTimeout = 200 * time.Millisecond
	const n = 4
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		if i == 1 {
			s.waitReceived(t, 1) // the rest join the first one's connection
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			start := time.Now()
			_, _, err := cl.HGet("h", fmt.Sprintf("f%d", i))
			var ne net.Error
			if !errors.As(err, &ne) || !ne.Timeout() {
				t.Errorf("caller %d: %v, want a timeout", i, err)
			}
			if took := time.Since(start); took > 3*cl.CmdTimeout {
				t.Errorf("caller %d waited %v with CmdTimeout %v", i, took, cl.CmdTimeout)
			}
		}()
	}
	wg.Wait()
	if dials := d.dials.Load(); dials != 1 {
		t.Fatalf("%d dials, want the %d callers on one connection", dials, n)
	}
}

// TestCloseFailsSharersInFlight: closing the client releases every command
// queued on the shared connection instead of leaving it to wait for a reply.
func TestCloseFailsSharersInFlight(t *testing.T) {
	s := newStub(t)
	var d countingDialer
	cl := stubClient(t, s, &d)
	const n = 4
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() {
			_, _, err := cl.HGet("h", fmt.Sprintf("f%d", i))
			errs <- err
		}()
	}
	s.waitReceived(t, n)
	cl.Close()
	for i := 0; i < n; i++ {
		select {
		case err := <-errs:
			if !errors.Is(err, redisclient.ErrClosed) {
				t.Errorf("sharer failed with %v, want ErrClosed", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("a sharer is still waiting after Close")
		}
	}
}

// TestSubMillisecondDurationsRoundUp: a positive duration under a
// millisecond goes out as 1 ms, never as 0, which would mean block forever
// (BLOCK), an invalid expiry (PX) or no idle time at all (XAUTOCLAIM).
func TestSubMillisecondDurationsRoundUp(t *testing.T) {
	s := newStub(t)
	s.release()
	var d countingDialer
	cl := stubClient(t, s, &d)
	const sub = 300 * time.Microsecond
	if _, err := cl.XReadGroup("g", "w0", 8, sub, "q"); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.SetNX("lock", "me", sub); err != nil {
		t.Fatal(err)
	}
	if _, _, err := cl.XAutoClaim("q", "g", "w1", sub, "0-0", 8); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	sent := append([][]string(nil), s.cmds...)
	s.mu.Unlock()
	for _, c := range []struct {
		cmd, opt string
		at       int // index of the duration in argv, or -1 for "after opt"
	}{
		{"XREADGROUP", "BLOCK", -1},
		{"SET", "PX", -1},
		{"XAUTOCLAIM", "", 4},
	} {
		var argv []string
		for _, a := range sent {
			if a[0] == c.cmd {
				argv = a
			}
		}
		at := c.at
		for i, a := range argv {
			if c.opt != "" && a == c.opt {
				at = i + 1
			}
		}
		if at < 0 || at >= len(argv) || argv[at] != "1" {
			t.Errorf("%s sent %q, want the duration as 1", c.cmd, argv)
		}
	}

	// Against the live server: the short block returns empty instead of
	// blocking until CmdTimeout, and the short expiry is accepted.
	live := newPair(t)
	live.CmdTimeout = time.Second
	if err := live.XGroupCreate("q", "g", "$"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if entries, err := live.XReadGroup("g", "w0", 8, sub, "q"); err != nil || len(entries) != 0 {
		t.Fatalf("XReadGroup with a %v block: %v %v", sub, entries, err)
	}
	if took := time.Since(start); took > live.CmdTimeout/2 {
		t.Fatalf("XReadGroup with a %v block took %v", sub, took)
	}
	if ok, err := live.SetNX("lock", "me", sub); err != nil || !ok {
		t.Fatalf("SetNX with a %v ttl: %v %v", sub, ok, err)
	}
}

// TestSharedConnCarriesLargeCommands: commands larger than the buffer a
// connection keeps between writes go out whole and intact while other
// callers share the connection.
func TestSharedConnCarriesLargeCommands(t *testing.T) {
	cl := newPair(t)
	const callers, rounds = 4, 10
	var wg sync.WaitGroup
	for w := 0; w < callers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				field := fmt.Sprintf("f%d", w)
				val := strings.Repeat(string(rune('a'+w)), 100<<10+i)
				if err := cl.HSet("h", field, val); err != nil {
					t.Error(err)
					return
				}
				if got, _, err := cl.HGet("h", field); err != nil || got != val {
					t.Errorf("caller %d round %d: %d bytes back, err %v", w, i, len(got), err)
					return
				}
			}
		}()
	}
	wg.Wait()
}
