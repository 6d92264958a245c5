package miniredis_test

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/miniredis"
	"repro/internal/redisclient"
)

// newPair starts a server and a client against it, with cleanup registered.
func newPair(t *testing.T) (*miniredis.Server, *redisclient.Client) {
	t.Helper()
	srv, err := miniredis.StartTestServer()
	if err != nil {
		t.Fatalf("start server: %v", err)
	}
	cl := redisclient.Dial(srv.Addr())
	t.Cleanup(func() {
		cl.Close()
		srv.Close()
	})
	return srv, cl
}

func mustInt(t *testing.T, got int64, err error, want int64, what string) {
	t.Helper()
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if got != want {
		t.Fatalf("%s: got %d want %d", what, got, want)
	}
}

func TestPingEcho(t *testing.T) {
	_, cl := newPair(t)
	if err := cl.Ping(); err != nil {
		t.Fatal(err)
	}
	// PING with an argument echoes it back.
	v, err := cl.Do("PING", "hello world")
	if err != nil || v.Str != "hello world" {
		t.Fatalf("PING msg: %q %v", v.Str, err)
	}
}

func TestStringCommands(t *testing.T) {
	_, cl := newPair(t)
	if err := cl.Set("k", "v1"); err != nil {
		t.Fatal(err)
	}
	s, ok, err := cl.Get("k")
	if err != nil || !ok || s != "v1" {
		t.Fatalf("GET: %q %v %v", s, ok, err)
	}
	_, ok, err = cl.Get("missing")
	if err != nil || ok {
		t.Fatalf("GET missing: ok=%v err=%v", ok, err)
	}
	n, err := cl.IncrBy("ctr", 1)
	mustInt(t, n, err, 1, "INCRBY fresh")
	n, err = cl.IncrBy("ctr", 41)
	mustInt(t, n, err, 42, "INCRBY")
	n, err = cl.IncrBy("ctr", -2)
	mustInt(t, n, err, 40, "INCRBY negative")
	if _, err := cl.IncrBy("k", 1); err == nil {
		t.Fatal("INCRBY on a non-integer value must fail")
	}
}

func TestSetNXAndXXOptions(t *testing.T) {
	_, cl := newPair(t)
	v, err := cl.Do("SET", "k", "a", "NX")
	if err != nil || v.Str != "OK" {
		t.Fatalf("SET NX fresh: %+v %v", v, err)
	}
	v, err = cl.Do("SET", "k", "b", "NX")
	if err != nil || !v.IsNull() {
		t.Fatalf("SET NX existing should be nil: %+v %v", v, err)
	}
	// XX is an arm nothing sends: refused, and the key is not created.
	var se redisclient.ServerError
	if _, err := cl.Do("SET", "other", "x", "XX"); !errors.As(err, &se) || !strings.Contains(string(se), "syntax error") {
		t.Fatalf("SET XX: %v, want a syntax error", err)
	}
	if _, ok, err := cl.Get("other"); err != nil || ok {
		t.Fatalf("refused SET XX created the key: ok=%v err=%v", ok, err)
	}
}

func TestWrongTypeErrors(t *testing.T) {
	_, cl := newPair(t)
	if err := cl.Set("str", "x"); err != nil {
		t.Fatal(err)
	}
	err := cl.HSet("str", "f", "a")
	var se redisclient.ServerError
	if !errors.As(err, &se) || !strings.HasPrefix(string(se), "WRONGTYPE") {
		t.Fatalf("expected WRONGTYPE, got %v", err)
	}
}

func TestHashCommands(t *testing.T) {
	_, cl := newPair(t)
	if err := cl.HSet("h", "f1", "v1", "f2", "v2"); err != nil {
		t.Fatal(err)
	}
	all, err := cl.HGetAll("h")
	if err != nil || len(all) != 2 || all["f1"] != "v1" || all["f2"] != "v2" {
		t.Fatalf("HGETALL: %v %v", all, err)
	}
	s, ok, err := cl.DoString("HGET", "h", "f1")
	if err != nil || !ok || s != "v1" {
		t.Fatalf("HGET: %q %v %v", s, ok, err)
	}
	n, err := cl.DoInt("HLEN", "h")
	mustInt(t, n, err, 2, "HLEN")
	n, err = cl.DoInt("HINCRBY", "h", "count", "5")
	mustInt(t, n, err, 5, "HINCRBY fresh")
	all, err = cl.HGetAll("h")
	if err != nil || len(all) != 3 || all["count"] != "5" || all["f2"] != "v2" {
		t.Fatalf("HGETALL after HINCRBY: %v %v", all, err)
	}
}

func TestGenericCommands(t *testing.T) {
	_, cl := newPair(t)
	if err := cl.Set("one", "1"); err != nil {
		t.Fatal(err)
	}
	if err := cl.Set("two", "2"); err != nil {
		t.Fatal(err)
	}
	n, err := cl.DoInt("EXISTS", "one", "two", "three")
	mustInt(t, n, err, 2, "EXISTS multi")
	v, err := cl.Do("TYPE", "one")
	if err != nil || v.Str != "string" {
		t.Fatalf("TYPE: %+v %v", v, err)
	}
	v, err = cl.Do("KEYS", "*")
	if err != nil || len(v.Array) != 2 {
		t.Fatalf("KEYS: %+v %v", v, err)
	}
	n, err = cl.DoInt("DEL", "one", "nope")
	mustInt(t, n, err, 1, "DEL")
	n, err = cl.DoInt("DBSIZE")
	mustInt(t, n, err, 1, "DBSIZE")
	if err := cl.FlushAll(); err != nil {
		t.Fatal(err)
	}
	n, err = cl.DoInt("DBSIZE")
	mustInt(t, n, err, 0, "DBSIZE after FLUSHALL")
}

func TestExpiry(t *testing.T) {
	_, cl := newPair(t)
	// SET ... PX is the one way a key gets a TTL (an owned partition's
	// lease); expiry is lazy, applied on the next access.
	if _, err := cl.Do("SET", "k", "v", "PX", "40"); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := cl.Get("k"); err != nil || !ok {
		t.Fatalf("key gone before its TTL: ok=%v err=%v", ok, err)
	}
	if _, err := cl.Do("SET", "long", "v", "PX", "90000"); err != nil {
		t.Fatal(err)
	}
	n, err := cl.DoInt("TTL", "long")
	if err != nil || n < 88 || n > 90 {
		t.Fatalf("TTL: %d %v", n, err)
	}
	time.Sleep(60 * time.Millisecond)
	_, ok, err := cl.Get("k")
	if err != nil || ok {
		t.Fatalf("expired key still visible: ok=%v err=%v", ok, err)
	}
	// TTL of missing key is -2; of a persistent key is -1.
	n, err = cl.DoInt("TTL", "k")
	mustInt(t, n, err, -2, "TTL missing")
	if err := cl.Set("p", "v"); err != nil {
		t.Fatal(err)
	}
	n, err = cl.DoInt("TTL", "p")
	mustInt(t, n, err, -1, "TTL persistent")
}

func TestUnknownCommandAndArity(t *testing.T) {
	_, cl := newPair(t)
	var se redisclient.ServerError
	for _, name := range []string{"NOSUCHCMD", "HDEL"} {
		if _, err := cl.Do(name, "h", "f"); !errors.As(err, &se) || !strings.Contains(string(se), "unknown command") {
			t.Fatalf("%s: %v, want an unknown command", name, err)
		}
	}
	if _, err := cl.Do("GET"); !errors.As(err, &se) || !strings.Contains(string(se), "wrong number of arguments") {
		t.Fatalf("arity error: %v", err)
	}
}

func TestConcurrentClients(t *testing.T) {
	srv, cl := newPair(t)
	_ = srv
	const workers = 8
	const perWorker = 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if _, err := cl.IncrBy("shared", 1); err != nil {
					t.Errorf("INCRBY: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	n, err := cl.DoInt("GET", "shared")
	if err == nil {
		t.Fatalf("GET via DoInt should fail on bulk reply, got %d", n)
	}
	s, ok, err := cl.Get("shared")
	if err != nil || !ok || s != "400" {
		t.Fatalf("final counter: %q %v %v", s, ok, err)
	}
}
