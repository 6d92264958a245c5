package miniredis_test

import (
	"bufio"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/miniredis"
	"repro/internal/redisclient"
)

// rawConn dials the server directly, bypassing the client library, to test
// wire-level behaviour (inline commands, pipelining, malformed input).
func rawConn(t *testing.T) (net.Conn, *bufio.Reader) {
	t.Helper()
	srv, err := miniredis.StartTestServer()
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		srv.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		conn.Close()
		srv.Close()
	})
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	return conn, bufio.NewReader(conn)
}

func readLine(t *testing.T, r *bufio.Reader) string {
	t.Helper()
	line, err := r.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	return strings.TrimRight(line, "\r\n")
}

func TestInlinePing(t *testing.T) {
	conn, r := rawConn(t)
	if _, err := conn.Write([]byte("PING\r\n")); err != nil {
		t.Fatal(err)
	}
	if got := readLine(t, r); got != "+PONG" {
		t.Fatalf("inline PING: %q", got)
	}
}

func TestPipelinedBurst(t *testing.T) {
	conn, r := rawConn(t)
	// Send 50 INCRBYs in one write; replies must come back in order.
	var sb strings.Builder
	for i := 0; i < 50; i++ {
		sb.WriteString("*3\r\n$6\r\nINCRBY\r\n$1\r\nn\r\n$1\r\n1\r\n")
	}
	if _, err := conn.Write([]byte(sb.String())); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 50; i++ {
		got := readLine(t, r)
		if got != ":"+itoa(i) {
			t.Fatalf("pipelined reply %d: %q", i, got)
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

func TestQuitClosesConnection(t *testing.T) {
	conn, r := rawConn(t)
	if _, err := conn.Write([]byte("QUIT\r\n")); err != nil {
		t.Fatal(err)
	}
	if got := readLine(t, r); got != "+OK" {
		t.Fatalf("QUIT: %q", got)
	}
	// Server closes its side: the next read returns EOF.
	if _, err := r.ReadByte(); err == nil {
		t.Fatal("connection still open after QUIT")
	}
}

func TestMalformedFrameDropsConnection(t *testing.T) {
	conn, r := rawConn(t)
	if _, err := conn.Write([]byte("*1\r\n$oops\r\n")); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := r.ReadByte(); err == nil {
		t.Fatal("server kept a connection with a corrupt frame")
	}
}

func TestBinarySafeValues(t *testing.T) {
	conn, r := rawConn(t)
	payload := "a\x00b\r\nc\xffd"
	cmd := "*3\r\n$3\r\nSET\r\n$3\r\nbin\r\n$" + itoa(len(payload)) + "\r\n" + payload + "\r\n"
	if _, err := conn.Write([]byte(cmd)); err != nil {
		t.Fatal(err)
	}
	if got := readLine(t, r); got != "+OK" {
		t.Fatalf("SET: %q", got)
	}
	if _, err := conn.Write([]byte("*2\r\n$3\r\nGET\r\n$3\r\nbin\r\n")); err != nil {
		t.Fatal(err)
	}
	if got := readLine(t, r); got != "$"+itoa(len(payload)) {
		t.Fatalf("GET length line: %q", got)
	}
	buf := make([]byte, len(payload)+2)
	if _, err := r.Read(buf); err != nil {
		t.Fatal(err)
	}
	if string(buf[:len(payload)]) != payload {
		t.Fatalf("payload corrupted: %q", buf)
	}
}

func TestServerCloseUnblocksBlockedClient(t *testing.T) {
	srv, err := miniredis.StartTestServer()
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		srv.Close()
		t.Fatal(err)
	}
	defer conn.Close()
	// Block on an empty stream with no timeout, then close the server.
	cl := redisclient.Dial(srv.Addr())
	defer cl.Close()
	if err := cl.XGroupCreate("q", "g", "$"); err != nil {
		srv.Close()
		t.Fatal(err)
	}
	if _, err := conn.Write([]byte("XREADGROUP GROUP g w BLOCK 0 STREAMS q >\r\n")); err != nil {
		srv.Close()
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	done := make(chan struct{})
	go func() {
		defer close(done)
		buf := make([]byte, 64)
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		_, _ = conn.Read(buf) // nil-array reply or EOF; either unblocks us
	}()
	srv.Close()
	select {
	case <-done:
	case <-time.After(3 * time.Second):
		t.Fatal("blocked client not released by server Close")
	}
}
