package miniredis

import (
	"bufio"
	"net"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/resp"
)

// writeCounter counts the writes the server makes on one connection: one
// per reply flush.
type writeCounter struct {
	net.Conn
	writes atomic.Int64
}

func (c *writeCounter) Write(b []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(b)
}

// countedConn starts a server and serves one extra TCP connection whose
// server side counts its writes. It returns the client side.
func countedConn(t *testing.T) (net.Conn, *bufio.Reader, *writeCounter) {
	t.Helper()
	s, err := StartTestServer()
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	client, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	nc, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	wc := &writeCounter{Conn: nc}
	s.conns.Add(1)
	go s.serveConn(wc)
	t.Cleanup(func() {
		client.Close()
		s.Close()
	})
	client.SetDeadline(time.Now().Add(5 * time.Second))
	return client, bufio.NewReader(client), wc
}

func expectLines(t *testing.T, r *bufio.Reader, want ...string) {
	t.Helper()
	for _, w := range want {
		line, err := r.ReadString('\n')
		if err != nil {
			t.Fatalf("reading %q: %v", w, err)
		}
		if got := strings.TrimRight(line, "\r\n"); got != w {
			t.Fatalf("reply %q, want %q", got, w)
		}
	}
}

// TestPipelinedBurstOneFlush: the replies to commands that arrive together
// leave in one write.
func TestPipelinedBurstOneFlush(t *testing.T) {
	client, r, wc := countedConn(t)
	const n = 50
	want := make([]string, n)
	var sb strings.Builder
	for i := range want {
		sb.WriteString("*3\r\n$6\r\nINCRBY\r\n$1\r\nn\r\n$1\r\n1\r\n")
		want[i] = ":" + strconv.Itoa(i+1)
	}
	if _, err := client.Write([]byte(sb.String())); err != nil {
		t.Fatal(err)
	}
	expectLines(t, r, want...)
	if got := wc.writes.Load(); got != 1 {
		t.Fatalf("%d writes for a %d-command burst, want 1", got, n)
	}
}

// TestNoReplyHeldBehindBlock: replies already computed are flushed before a
// command that blocks, so they do not wait for it to return.
func TestNoReplyHeldBehindBlock(t *testing.T) {
	client, r, wc := countedConn(t)
	burst := "XGROUP CREATE q g $ MKSTREAM\r\nPING\r\nXREADGROUP GROUP g w0 BLOCK 0 STREAMS q >\r\n"
	if _, err := client.Write([]byte(burst)); err != nil {
		t.Fatal(err)
	}
	expectLines(t, r, "+OK", "+PONG") // while the XREADGROUP blocks forever
	if got := wc.writes.Load(); got != 1 {
		t.Fatalf("%d writes before the block, want the two replies in 1", got)
	}
}

// TestBlockAfterCloseReturns: a blocking read dispatched after Close has
// woken the blocked commands must not wait for a wake-up that never comes.
func TestBlockAfterCloseReturns(t *testing.T) {
	s, err := StartTestServer()
	if err != nil {
		t.Fatal(err)
	}
	s.dispatch(strings.Fields("XGROUP CREATE q g $ MKSTREAM"))
	s.Close()
	done := make(chan resp.Value, 1)
	go func() {
		v, _ := s.dispatch(strings.Fields("XREADGROUP GROUP g w0 BLOCK 0 STREAMS q >"))
		done <- v
	}()
	select {
	case v := <-done:
		if v.Type != resp.Array || !v.Null {
			t.Fatalf("blocked read after Close replied %+v, want a nil array", v)
		}
	case <-time.After(time.Second):
		t.Fatal("XREADGROUP BLOCK 0 dispatched after Close still blocked after 1s")
	}
}
