package miniredis_test

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/redisclient"
)

func TestXAddXLenXRange(t *testing.T) {
	_, cl := newPair(t)
	id1, err := cl.XAddValues("st", "k", "v1")
	if err != nil || id1 == "" {
		t.Fatalf("XADD: %q %v", id1, err)
	}
	id2, err := cl.XAddValues("st", "k", "v2")
	if err != nil {
		t.Fatal(err)
	}
	if !idLess(t, id1, id2) {
		t.Fatalf("IDs not increasing: %q then %q", id1, id2)
	}
	n, err := cl.XLen("st")
	mustInt(t, n, err, 2, "XLEN")

	v, err := cl.Do("XRANGE", "st", "-", "+")
	if err != nil || len(v.Array) != 2 {
		t.Fatalf("XRANGE: %+v %v", v, err)
	}
	first := v.Array[0]
	if first.Array[0].Str != id1 {
		t.Fatalf("first entry id %q want %q", first.Array[0].Str, id1)
	}
	fields := first.Array[1]
	if fields.Array[0].Str != "k" || fields.Array[1].Str != "v1" {
		t.Fatalf("first entry fields: %+v", fields)
	}

	// COUNT limit.
	v, err = cl.Do("XRANGE", "st", "-", "+", "COUNT", "1")
	if err != nil || len(v.Array) != 1 {
		t.Fatalf("XRANGE COUNT: %+v %v", v, err)
	}
	// An explicit ID bound is inclusive.
	v, err = cl.Do("XRANGE", "st", id2, "+")
	if err != nil || len(v.Array) != 1 || v.Array[0].Array[0].Str != id2 {
		t.Fatalf("XRANGE from %s: %+v %v", id2, v, err)
	}
}

func TestXAddExplicitIDMonotonic(t *testing.T) {
	_, cl := newPair(t)
	if _, err := cl.Do("XADD", "st", "5-1", "a", "1"); err != nil {
		t.Fatal(err)
	}
	_, err := cl.Do("XADD", "st", "5-1", "a", "2")
	var se redisclient.ServerError
	if !errors.As(err, &se) || !strings.Contains(string(se), "equal or smaller") {
		t.Fatalf("expected monotonic error, got %v", err)
	}
	if _, err := cl.Do("XADD", "st", "5-2", "a", "3"); err != nil {
		t.Fatal(err)
	}
	// "ms-*" auto-sequence form.
	v, err := cl.Do("XADD", "st", "5-*", "a", "4")
	if err != nil || v.Str != "5-3" {
		t.Fatalf("XADD 5-*: %+v %v", v, err)
	}
}

func TestXAddMaxLen(t *testing.T) {
	_, cl := newPair(t)
	for i := 0; i < 10; i++ {
		if _, err := cl.Do("XADD", "st", "MAXLEN", "5", "*", "i", "x"); err != nil {
			t.Fatal(err)
		}
	}
	n, err := cl.XLen("st")
	mustInt(t, n, err, 5, "XLEN after MAXLEN")
}

func TestConsumerGroupLifecycle(t *testing.T) {
	_, cl := newPair(t)
	if err := cl.XGroupCreate("tasks", "workers", "0"); err != nil {
		t.Fatal(err)
	}
	// Duplicate create is swallowed by the client helper.
	if err := cl.XGroupCreate("tasks", "workers", "0"); err != nil {
		t.Fatalf("duplicate create: %v", err)
	}

	id1, err := cl.XAddValues("tasks", "job", "a")
	if err != nil {
		t.Fatal(err)
	}
	id2, err := cl.XAddValues("tasks", "job", "b")
	if err != nil {
		t.Fatal(err)
	}

	entries, err := cl.XReadGroup("workers", "w1", 1, 0, "tasks")
	if err != nil || len(entries) != 1 || entries[0].ID != id1 {
		t.Fatalf("XREADGROUP first: %+v %v", entries, err)
	}
	if entries[0].Field("job") != "a" {
		t.Fatalf("fields: %+v", entries[0].Fields)
	}
	entries, err = cl.XReadGroup("workers", "w2", 10, 0, "tasks")
	if err != nil || len(entries) != 1 || entries[0].ID != id2 {
		t.Fatalf("XREADGROUP second consumer: %+v %v", entries, err)
	}
	// Nothing new left.
	entries, err = cl.XReadGroup("workers", "w1", 1, 0, "tasks")
	if err != nil || len(entries) != 0 {
		t.Fatalf("XREADGROUP drained: %+v %v", entries, err)
	}

	for consumer, want := range map[string]string{"w1": id1, "w2": id2} {
		ids, err := cl.XPendingIDs("tasks", "workers", consumer, 10)
		if err != nil || len(ids) != 1 || ids[0] != want {
			t.Fatalf("XPENDING %s: %v %v, want [%s]", consumer, ids, err, want)
		}
	}

	n, err := cl.XAck("tasks", "workers", id1)
	mustInt(t, n, err, 1, "XACK")
	if ids, err := cl.XPendingIDs("tasks", "workers", "w1", 10); err != nil || len(ids) != 0 {
		t.Fatalf("XPENDING w1 after ack: %v %v", ids, err)
	}
	// Double-ack is a no-op.
	n, err = cl.XAck("tasks", "workers", id1)
	mustInt(t, n, err, 0, "double XACK")
}

func TestXReadGroupBlocking(t *testing.T) {
	srv, cl := newPair(t)
	if err := cl.XGroupCreate("tasks", "g", "$"); err != nil {
		t.Fatal(err)
	}
	producer := redisclient.Dial(srv.Addr())
	defer producer.Close()

	done := make(chan string, 1)
	go func() {
		entries, err := cl.XReadGroup("g", "w1", 1, 5*time.Second, "tasks")
		if err != nil || len(entries) != 1 {
			done <- "error"
			return
		}
		done <- entries[0].Field("job")
	}()
	time.Sleep(30 * time.Millisecond)
	if _, err := producer.XAddValues("tasks", "job", "late"); err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-done:
		if got != "late" {
			t.Fatalf("blocking read woke with %q", got)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("XREADGROUP BLOCK did not wake")
	}
}

func TestXReadGroupBlockTimesOut(t *testing.T) {
	_, cl := newPair(t)
	if err := cl.XGroupCreate("tasks", "g", "$"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	entries, err := cl.XReadGroup("g", "w1", 1, 60*time.Millisecond, "tasks")
	if err != nil || entries != nil {
		t.Fatalf("timeout read: %+v %v", entries, err)
	}
	if time.Since(start) < 40*time.Millisecond {
		t.Fatal("returned before timeout")
	}
}

func TestNoGroupError(t *testing.T) {
	_, cl := newPair(t)
	if _, err := cl.XAddValues("st", "a", "b"); err != nil {
		t.Fatal(err)
	}
	_, err := cl.XReadGroup("absent", "c", 1, 0, "st")
	var se redisclient.ServerError
	if !errors.As(err, &se) || !strings.HasPrefix(string(se), "NOGROUP") {
		t.Fatalf("expected NOGROUP, got %v", err)
	}
}

func TestXPendingExtendedAndIdle(t *testing.T) {
	_, cl := newPair(t)
	if err := cl.XGroupCreate("st", "g", "0"); err != nil {
		t.Fatal(err)
	}
	id, err := cl.XAddValues("st", "a", "b")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.XReadGroup("g", "w1", 1, 0, "st"); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	v, err := cl.Do("XPENDING", "st", "g", "-", "+", "10")
	if err != nil || len(v.Array) != 1 {
		t.Fatalf("XPENDING ext: %+v %v", v, err)
	}
	row := v.Array[0].Array
	if row[0].Str != id || row[1].Str != "w1" {
		t.Fatalf("row: %+v", row)
	}
	if row[2].Int < 10 {
		t.Fatalf("idle too small: %d", row[2].Int)
	}
	if row[3].Int != 1 {
		t.Fatalf("delivery count: %d", row[3].Int)
	}

	// A second delivery to another consumer; count caps the rows (a count
	// of 0 returns none, as in Redis), the consumer filters them.
	if _, err := cl.XAddValues("st", "a", "c"); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.XReadGroup("g", "w2", 1, 0, "st"); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		args []string
		rows int
	}{
		{[]string{"-", "+", "10"}, 2},
		{[]string{"-", "+", "1"}, 1},
		{[]string{"-", "+", "0"}, 0},
		{[]string{"-", "+", "0", "w1"}, 0},
		{[]string{"-", "+", "10", "w1"}, 1},
		{[]string{"-", "+", "10", "nobody"}, 0},
		{[]string{id, id, "10"}, 1},
	} {
		v, err := cl.Do(append([]string{"XPENDING", "st", "g"}, tc.args...)...)
		if err != nil || len(v.Array) != tc.rows {
			t.Errorf("XPENDING st g %v: %d rows (%v), want %d", tc.args, len(v.Array), err, tc.rows)
		}
	}
}

func TestXClaimAndAutoClaim(t *testing.T) {
	_, cl := newPair(t)
	if err := cl.XGroupCreate("st", "g", "0"); err != nil {
		t.Fatal(err)
	}
	id, err := cl.XAddValues("st", "task", "t1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.XReadGroup("g", "dead", 1, 0, "st"); err != nil {
		t.Fatal(err)
	}
	time.Sleep(15 * time.Millisecond)

	// XCLAIM with min-idle 0 moves it immediately; JUSTID leaves the
	// delivery count alone.
	got, err := cl.XClaimJustID("st", "g", "alive", 0, []string{id})
	if err != nil || len(got) != 1 || got[0] != id {
		t.Fatalf("XCLAIM: %v %v", got, err)
	}
	if ids, err := cl.XPendingIDs("st", "g", "dead", 10); err != nil || len(ids) != 0 {
		t.Fatalf("dead still owns %v (%v) after the claim", ids, err)
	}
	v, err := cl.Do("XPENDING", "st", "g", "-", "+", "10", "alive")
	if err != nil || len(v.Array) != 1 || v.Array[0].Array[3].Int != 1 {
		t.Fatalf("after claim: %+v %v, want one row with delivery count 1", v, err)
	}
	// A claim above the entry's idle time moves nothing.
	if got, err := cl.XClaimJustID("st", "g", "dead", time.Hour, []string{id}); err != nil || len(got) != 0 {
		t.Fatalf("XCLAIM high idle: %v %v", got, err)
	}

	// XAUTOCLAIM with huge min-idle claims nothing.
	_, claimed, err := cl.XAutoClaim("st", "g", "third", time.Hour, "0-0", 10)
	if err != nil || len(claimed) != 0 {
		t.Fatalf("XAUTOCLAIM high idle: %+v %v", claimed, err)
	}
	// With zero min-idle it takes the entry over.
	_, claimed, err = cl.XAutoClaim("st", "g", "third", 0, "0-0", 10)
	if err != nil || len(claimed) != 1 || claimed[0].ID != id {
		t.Fatalf("XAUTOCLAIM: %+v %v", claimed, err)
	}
	// A reclaim is a redelivery: it counts.
	v, err = cl.Do("XPENDING", "st", "g", "-", "+", "10", "third")
	if err != nil || len(v.Array) != 1 || v.Array[0].Array[3].Int != 2 {
		t.Fatalf("after XAUTOCLAIM: %+v %v, want one row with delivery count 2", v, err)
	}
}

func TestXTrim(t *testing.T) {
	_, cl := newPair(t)
	var ids []string
	for i := 0; i < 5; i++ {
		id, err := cl.XAddValues("st", "i", "x")
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	n, err := cl.DoInt("XTRIM", "st", "MAXLEN", "2")
	mustInt(t, n, err, 3, "XTRIM")
	n, err = cl.XLen("st")
	mustInt(t, n, err, 2, "XLEN after XTRIM")
	// The newest entries survive.
	v, err := cl.Do("XRANGE", "st", "-", "+")
	if err != nil || len(v.Array) != 2 || v.Array[0].Array[0].Str != ids[3] || v.Array[1].Array[0].Str != ids[4] {
		t.Fatalf("XRANGE after XTRIM: %+v %v", v, err)
	}
	n, err = cl.DoInt("XTRIM", "missing", "MAXLEN", "~", "1")
	mustInt(t, n, err, 0, "XTRIM missing key")
}

// TestXReadGroupStreams covers the multi-stream read a lease holder sends:
// COUNT bounds each stream's share, only streams with entries answer, and a
// read blocked on several keys wakes on an append to any of them, and a
// pipelined batch appending to several of them cannot wake it twice.
func TestXReadGroupStreams(t *testing.T) {
	srv, cl := newPair(t)
	for _, k := range []string{"a", "b", "c"} {
		if err := cl.XGroupCreate(k, "g", "0"); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		if _, err := cl.XAddValues("a", "n", "x"); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cl.XAddValues("c", "n", "y"); err != nil {
		t.Fatal(err)
	}
	msgs, err := cl.XReadGroupStreams("g", "w", 2, 0, "a", "b", "c")
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 2 || msgs[0].Key != "a" || len(msgs[0].Entries) != 2 || msgs[1].Key != "c" || len(msgs[1].Entries) != 1 {
		t.Fatalf("read: %+v", msgs)
	}

	done := make(chan []redisclient.StreamMessages, 1)
	go func() {
		ms, err := cl.XReadGroupStreams("g", "w2", 10, 5*time.Second, "b", "c")
		if err != nil {
			t.Error(err)
		}
		done <- ms
	}()
	time.Sleep(20 * time.Millisecond)
	writer := redisclient.Dial(srv.Addr())
	defer writer.Close()
	if _, err := writer.Pipeline([][]string{{"XADD", "b", "*", "n", "1"}, {"XADD", "c", "*", "n", "2"}}); err != nil {
		t.Fatal(err)
	}
	select {
	case ms := <-done:
		rest, err := cl.XReadGroupStreams("g", "w2", 10, 0, "b", "c")
		if err != nil {
			t.Fatal(err)
		}
		got := 0
		for _, m := range append(ms, rest...) {
			got += len(m.Entries)
		}
		if len(ms) == 0 || got != 2 {
			t.Fatalf("woken read got %+v, then %+v: want both appends, at least one by the woken read", ms, rest)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("a read blocked on two streams did not wake on their appends")
	}
}

// TestXReadGroupLeases covers the lease-guarded read of a partition holder:
// a guarded stream answers only while its lease key holds the reader's
// token, checked again when a blocked read wakes, and the entries it skips
// stay undelivered for the lease's holder.
func TestXReadGroupLeases(t *testing.T) {
	srv, cl := newPair(t)
	for _, k := range []string{"own", "p"} {
		if err := cl.XGroupCreate(k, "g", "0"); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cl.Do("SET", "lease", "old"); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.XAddValues("p", "n", "1"); err != nil {
		t.Fatal(err)
	}
	msgs, err := cl.XReadGroupLeased("g", "w", 10, 0, []string{"own", "p"}, []string{"lease", "old"})
	if err != nil || len(msgs) != 1 || msgs[0].Key != "p" || len(msgs[0].Entries) != 1 {
		t.Fatalf("read under the lease: %+v %v", msgs, err)
	}

	if _, err := cl.Do("SET", "lease", "new"); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.XAddValues("p", "n", "2"); err != nil {
		t.Fatal(err)
	}
	msgs, err = cl.XReadGroupLeased("g", "w", 10, 0, []string{"own", "p"}, []string{"lease", "old"})
	if err != nil || len(msgs) != 0 {
		t.Fatalf("read after the lease was taken: %+v %v, want nothing", msgs, err)
	}

	done := make(chan []redisclient.StreamMessages, 1)
	go func() {
		ms, err := cl.XReadGroupLeased("g", "w", 10, 200*time.Millisecond, []string{"own", "p"}, []string{"lease", "old"})
		if err != nil {
			t.Error(err)
		}
		done <- ms
	}()
	time.Sleep(20 * time.Millisecond)
	writer := redisclient.Dial(srv.Addr())
	defer writer.Close()
	if _, err := writer.XAddValues("p", "n", "3"); err != nil {
		t.Fatal(err)
	}
	if _, err := writer.XAddValues("own", "n", "4"); err != nil {
		t.Fatal(err)
	}
	if ms := <-done; len(ms) != 1 || ms[0].Key != "own" {
		t.Fatalf("blocked read after the lease was taken: %+v, want only its own stream", ms)
	}

	msgs, err = writer.XReadGroupLeased("g", "w2", 10, 0, []string{"own", "p"}, []string{"lease", "new"})
	if err != nil || len(msgs) != 1 || msgs[0].Key != "p" || len(msgs[0].Entries) != 2 {
		t.Fatalf("the new holder's read: %+v %v, want both entries the old one skipped", msgs, err)
	}
	if v, err := cl.Do("XREADGROUP", "GROUP", "g", "w", "LEASES", "2", "lease", "old", "x", "y", "STREAMS", "p", ">"); err == nil {
		t.Fatalf("more leases than streams answered %+v", v)
	}
}
