package redisclient_test

import (
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/miniredis"
	"repro/internal/redisclient"
)

func newPair(t *testing.T) *redisclient.Client {
	t.Helper()
	srv, err := miniredis.StartTestServer()
	if err != nil {
		t.Fatal(err)
	}
	cl := redisclient.Dial(srv.Addr())
	t.Cleanup(func() {
		cl.Close()
		srv.Close()
	})
	return cl
}

func TestPingAndPoolReuse(t *testing.T) {
	cl := newPair(t)
	for i := 0; i < 20; i++ {
		if err := cl.Ping(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestDialUnreachable(t *testing.T) {
	cl := redisclient.Dial("127.0.0.1:1")
	cl.DialTimeout = 200 * time.Millisecond
	defer cl.Close()
	if err := cl.Ping(); err == nil {
		t.Fatal("ping to closed port should fail")
	}
}

func TestClosedClient(t *testing.T) {
	cl := newPair(t)
	cl.Close()
	if _, err := cl.Do("PING"); !errors.Is(err, redisclient.ErrClosed) {
		t.Fatalf("err=%v want ErrClosed", err)
	}
}

func TestServerErrorSurface(t *testing.T) {
	cl := newPair(t)
	_, err := cl.Do("GET", "a", "b", "c")
	var se redisclient.ServerError
	if !errors.As(err, &se) {
		t.Fatalf("want ServerError, got %v", err)
	}
	if se.Error() == "" {
		t.Error("empty error text")
	}
}

func TestTypedHelpers(t *testing.T) {
	cl := newPair(t)
	if err := cl.Set("k", "v"); err != nil {
		t.Fatal(err)
	}
	if s, ok, err := cl.Get("k"); err != nil || !ok || s != "v" {
		t.Fatalf("Get: %q %v %v", s, ok, err)
	}
	if n, err := cl.IncrBy("c", 5); err != nil || n != 5 {
		t.Fatalf("IncrBy: %d %v", n, err)
	}
	if err := cl.HSet("h", "f", "1"); err != nil {
		t.Fatal(err)
	}
	all, err := cl.HGetAll("h")
	if err != nil || all["f"] != "1" {
		t.Fatalf("HGetAll: %v %v", all, err)
	}
	if err := cl.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := cl.Get("k"); ok {
		t.Error("key survived FlushAll")
	}
}

func TestStreamHelpers(t *testing.T) {
	cl := newPair(t)
	if err := cl.XGroupCreate("st", "g", "0"); err != nil {
		t.Fatal(err)
	}
	id, err := cl.XAddValues("st", "f", "payload")
	if err != nil || id == "" {
		t.Fatalf("XAddValues: %q %v", id, err)
	}
	if n, err := cl.XLen("st"); err != nil || n != 1 {
		t.Fatalf("XLen: %d %v", n, err)
	}
	entries, err := cl.XReadGroup("g", "c1", 5, 0, "st")
	if err != nil || len(entries) != 1 || entries[0].Field("f") != "payload" {
		t.Fatalf("XReadGroup: %+v %v", entries, err)
	}
	if pending, err := cl.XPendingIDs("st", "g", "c1", 10); err != nil || len(pending) != 1 || pending[0] != id {
		t.Fatalf("XPendingIDs: %v %v", pending, err)
	}
	if n, err := cl.XAck("st", "g", id); err != nil || n != 1 {
		t.Fatalf("XAck: %d %v", n, err)
	}
	// XAutoClaim empty PEL is a no-op.
	cursor, claimed, err := cl.XAutoClaim("st", "g", "c2", 0, "0-0", 10)
	if err != nil || len(claimed) != 0 || cursor == "" {
		t.Fatalf("XAutoClaim: %q %+v %v", cursor, claimed, err)
	}
}

func TestXAckBatchedIDs(t *testing.T) {
	// One XACK command releases several deliveries at once — the pipelined
	// ack path of the batched consume loop relies on this being a single
	// round trip rather than one command per entry.
	cl := newPair(t)
	if err := cl.XGroupCreate("st", "g", "0"); err != nil {
		t.Fatal(err)
	}
	ids := make([]string, 0, 5)
	for i := 0; i < 5; i++ {
		id, err := cl.XAddValues("st", "f", "v")
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	entries, err := cl.XReadGroup("g", "c1", 5, 0, "st")
	if err != nil || len(entries) != 5 {
		t.Fatalf("XReadGroup: %d entries, %v", len(entries), err)
	}
	if n, err := cl.XAck("st", "g", ids...); err != nil || n != 5 {
		t.Fatalf("batched XAck: %d %v, want 5", n, err)
	}
	if pending, err := cl.XPendingIDs("st", "g", "c1", 10); err != nil || len(pending) != 0 {
		t.Fatalf("PEL after batched ack: %v %v", pending, err)
	}
	// Already-acked and never-delivered IDs count zero, mixed with a live one.
	id, err := cl.XAddValues("st", "f", "v")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.XReadGroup("g", "c1", 1, 0, "st"); err != nil {
		t.Fatal(err)
	}
	if n, err := cl.XAck("st", "g", ids[0], id, "99999-0"); err != nil || n != 1 {
		t.Fatalf("mixed XAck: %d %v, want 1", n, err)
	}
}

func TestConcurrentPoolUse(t *testing.T) {
	cl := newPair(t)
	var wg sync.WaitGroup
	for w := 0; w < 10; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				if _, err := cl.IncrBy("n", 1); err != nil {
					t.Errorf("incr: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	s, ok, err := cl.Get("n")
	if err != nil || !ok || s != "250" {
		t.Fatalf("final: %q %v %v", s, ok, err)
	}
}

// TestInterruptBlockingEndsParkedRead: a blocking read parked on an empty
// stream fails as soon as InterruptBlocking is called, not when its block
// ends, and the client stays usable: a plain command right after succeeds.
func TestInterruptBlockingEndsParkedRead(t *testing.T) {
	srv, err := miniredis.StartTestServer()
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl := redisclient.Dial(srv.Addr())
	defer cl.Close()
	if err := cl.XGroupCreate("st", "g", "0"); err != nil {
		t.Fatal(err)
	}
	sent := srv.Commands()
	done := make(chan error, 1)
	go func() {
		_, err := cl.XReadGroup("g", "c1", 1, 5*time.Second, "st")
		done <- err
	}()
	for srv.Commands() == sent { // until the server has the read
		time.Sleep(time.Millisecond)
	}
	cl.InterruptBlocking()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("interrupted read returned no error")
		}
	case <-time.After(100 * time.Millisecond):
		t.Fatal("blocking read still parked 100ms after InterruptBlocking")
	}
	if err := cl.Ping(); err != nil {
		t.Fatalf("client unusable after the interrupt: %v", err)
	}
}

// TestInterruptBlockingEndsDialingRead: a blocking read that is still dialing
// its connection when InterruptBlocking runs sits on no connection the
// interrupt can see; it fails once its dial completes, without reaching the
// server, instead of parking for its whole block.
func TestInterruptBlockingEndsDialingRead(t *testing.T) {
	srv, err := miniredis.StartTestServer()
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	setup := redisclient.Dial(srv.Addr())
	defer setup.Close()
	if err := setup.XGroupCreate("st", "g", "0"); err != nil {
		t.Fatal(err)
	}
	dialing, proceed := make(chan struct{}), make(chan struct{})
	var slow sync.Once
	cl := redisclient.Dial(srv.Addr())
	defer cl.Close()
	cl.Dialer = func(network, addr string, timeout time.Duration) (net.Conn, error) {
		slow.Do(func() {
			close(dialing)
			<-proceed
		})
		return net.DialTimeout(network, addr, timeout)
	}
	sent := srv.Commands()
	done := make(chan error, 1)
	go func() {
		_, err := cl.XReadGroup("g", "c1", 1, 5*time.Second, "st")
		done <- err
	}()
	<-dialing
	cl.InterruptBlocking()
	close(proceed)
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("interrupted read returned no error")
		}
	case <-time.After(time.Second):
		t.Fatal("blocking read that was dialing still parked 1s after InterruptBlocking")
	}
	if n := srv.Commands(); n != sent {
		t.Fatalf("the interrupted read reached the server (%d commands, want %d)", n, sent)
	}
	if err := cl.Ping(); err != nil {
		t.Fatalf("client unusable after the interrupt: %v", err)
	}
}
