package miniredis_test

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/redisclient"
	"repro/internal/resp"
)

// TestFenceApplySetDel exercises the SET and DEL forms: first execution
// applies, duplicates are dropped, and the ledger count keeps growing.
func TestFenceApplySetDel(t *testing.T) {
	_, cl := newPair(t)

	applied, err := cl.FenceApplySet("h", "ledger:1", "k", "v1")
	if err != nil || !applied {
		t.Fatalf("first FenceApplySet: applied=%v err=%v", applied, err)
	}
	if v, ok, _ := cl.HGet("h", "k"); !ok || v != "v1" {
		t.Fatalf("after apply: k=%q ok=%v", v, ok)
	}
	applied, err = cl.FenceApplySet("h", "ledger:1", "k", "v2")
	if err != nil || applied {
		t.Fatalf("duplicate FenceApplySet: applied=%v err=%v", applied, err)
	}
	if v, _, _ := cl.HGet("h", "k"); v != "v1" {
		t.Fatalf("duplicate mutated value: %q", v)
	}
	if cnt, _, _ := cl.HGet("h", "ledger:1"); cnt != "2" {
		t.Fatalf("ledger count: %q want 2", cnt)
	}

	// A distinct ledger field is an independent gate.
	applied, err = cl.FenceApplyDel("h", "ledger:2", "k")
	if err != nil || !applied {
		t.Fatalf("FenceApplyDel: applied=%v err=%v", applied, err)
	}
	if _, ok, _ := cl.HGet("h", "k"); ok {
		t.Fatal("key survived fenced delete")
	}
	applied, err = cl.FenceApplyDel("h", "ledger:2", "k")
	if err != nil || applied {
		t.Fatalf("duplicate FenceApplyDel: applied=%v err=%v", applied, err)
	}
}

// TestFenceApplyIncr checks the INCR form returns the effective value on
// both the applied and the duplicate branch.
func TestFenceApplyIncr(t *testing.T) {
	_, cl := newPair(t)

	applied, n, err := cl.FenceApplyIncr("h", "lf", "cnt", 5)
	if err != nil || !applied || n != 5 {
		t.Fatalf("first: applied=%v n=%d err=%v", applied, n, err)
	}
	applied, n, err = cl.FenceApplyIncr("h", "lf", "cnt", 5)
	if err != nil || applied || n != 5 {
		t.Fatalf("duplicate: applied=%v n=%d err=%v", applied, n, err)
	}
	applied, n, err = cl.FenceApplyIncr("h", "lf2", "cnt", 2)
	if err != nil || !applied || n != 7 {
		t.Fatalf("second gate: applied=%v n=%d err=%v", applied, n, err)
	}
}

// TestFenceApplyValidation: malformed requests error without touching the
// store — validation precedes the ledger record and the mutation.
func TestFenceApplyValidation(t *testing.T) {
	_, cl := newPair(t)

	var se redisclient.ServerError
	if _, err := cl.Do("FENCEAPPLY", "h", "lf", "NOPE", "k"); !errors.As(err, &se) {
		t.Fatalf("unsupported op: %v", err)
	}
	if _, err := cl.Do("FENCEAPPLY", "h", "lf", "INCR", "k", "notanint"); !errors.As(err, &se) {
		t.Fatalf("bad delta: %v", err)
	}
	if _, err := cl.Do("FENCEAPPLY", "h", "lf", "SET", "k"); !errors.As(err, &se) {
		t.Fatalf("SET arity: %v", err)
	}
	// Nothing was recorded by the failed attempts.
	if _, ok, _ := cl.HGet("h", "lf"); ok {
		t.Fatal("failed FENCEAPPLY left a ledger record")
	}
	// Wrong key type errors too.
	if err := cl.Set("s", "x"); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.FenceApplySet("s", "lf", "k", "v"); !errors.As(err, &se) || !strings.HasPrefix(string(se), "WRONGTYPE") {
		t.Fatalf("wrongtype: %v", err)
	}
}

// TestFenceXAckOwnership: only entries pending under the named consumer are
// acked; entries claimed by another consumer hold their weight, and the
// direct decrement applies regardless.
func TestFenceXAckOwnership(t *testing.T) {
	_, cl := newPair(t)

	if err := cl.XGroupCreate("q", "g", "0"); err != nil {
		t.Fatal(err)
	}
	id1, err := cl.XAddValues("q", "task", "a")
	if err != nil {
		t.Fatal(err)
	}
	id2, err := cl.XAddValues("q", "task", "b")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.IncrBy("pending", 10); err != nil {
		t.Fatal(err)
	}
	// w0 reads both entries into its PEL, then w1 claims the second away.
	if _, err := cl.XReadGroup("g", "w0", 10, 0, "q"); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.XClaimJustID("q", "g", "w1", 0, []string{id2}); err != nil {
		t.Fatal(err)
	}

	acked, dec, pending, err := cl.FenceXAck("q", "g", "w0", "pending", 1,
		[]string{id1, id2}, []int64{3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if acked != 1 {
		t.Fatalf("acked=%d want 1 (id2 is owned by w1)", acked)
	}
	if dec != 4 { // weight 3 for id1 + direct 1; id2's 4 withheld
		t.Fatalf("dec=%d want 4", dec)
	}
	if pending != 6 {
		t.Fatalf("pending=%d want 6", pending)
	}
	// id2 is still pending for w1 and releasable by it.
	owned, err := cl.XPendingIDs("q", "g", "w1", 10)
	if err != nil || len(owned) != 1 || owned[0] != id2 {
		t.Fatalf("w1 PEL: %v %v", owned, err)
	}
	acked, dec, pending, err = cl.FenceXAck("q", "g", "w1", "pending", 0,
		[]string{id2}, []int64{4})
	if err != nil || acked != 1 || dec != 4 || pending != 2 {
		t.Fatalf("w1 release: acked=%d dec=%d pending=%d err=%v", acked, dec, pending, err)
	}
	// Re-acking is a no-op for the counter: nothing owned, direct 0.
	acked, dec, pending, err = cl.FenceXAck("q", "g", "w1", "pending", 0,
		[]string{id2}, []int64{4})
	if err != nil || acked != 0 || dec != 0 || pending != 2 {
		t.Fatalf("re-ack: acked=%d dec=%d pending=%d err=%v", acked, dec, pending, err)
	}
}

// TestFenceXAckNoGroup: a missing group acks nothing but still applies the
// direct decrement (it covers work outside the stream).
func TestFenceXAckNoGroup(t *testing.T) {
	_, cl := newPair(t)
	if _, err := cl.IncrBy("pending", 5); err != nil {
		t.Fatal(err)
	}
	acked, dec, pending, err := cl.FenceXAck("nostream", "nogroup", "w0", "pending", 2, nil, nil)
	if err != nil || acked != 0 || dec != 2 || pending != 3 {
		t.Fatalf("acked=%d dec=%d pending=%d err=%v", acked, dec, pending, err)
	}
}

// TestSinkAppend: a whole output batch (counter increment, pool and private
// stream entries) lands atomically behind one ledger gate, and a duplicate
// applies none of it.
func TestSinkAppend(t *testing.T) {
	_, cl := newPair(t)

	batch := [][]string{
		{"INCRBY", "pending", "2"},
		{"XADD", "q", "*", "task", "payload-1"},
		{"XADD", "q", "*", "task", "payload-2"},
		{"XADD", "priv", "*", "task", "frame-a"},
	}
	applied, err := cl.SinkAppend("st", "gate:1", batch)
	if err != nil || !applied {
		t.Fatalf("first SinkAppend: applied=%v err=%v", applied, err)
	}
	if v, _, _ := cl.Get("pending"); v != "2" {
		t.Fatalf("pending=%q want 2", v)
	}
	if n, _ := cl.XLen("q"); n != 2 {
		t.Fatalf("stream len=%d want 2", n)
	}
	if n, _ := cl.XLen("priv"); n != 1 {
		t.Fatalf("private stream len=%d want 1", n)
	}

	applied, err = cl.SinkAppend("st", "gate:1", batch)
	if err != nil || applied {
		t.Fatalf("duplicate SinkAppend: applied=%v err=%v", applied, err)
	}
	if v, _, _ := cl.Get("pending"); v != "2" {
		t.Fatalf("duplicate incremented pending: %q", v)
	}
	if n, _ := cl.XLen("q"); n != 2 {
		t.Fatalf("duplicate appended to stream: %d", n)
	}

	// An empty batch still records its gate.
	applied, err = cl.SinkAppend("st", "gate:2", nil)
	if err != nil || !applied {
		t.Fatalf("empty batch: applied=%v err=%v", applied, err)
	}
	if cnt, ok, _ := cl.HGet("st", "gate:2"); !ok || cnt != "1" {
		t.Fatalf("empty-batch gate: %q %v", cnt, ok)
	}
}

// TestSinkAppendValidateAllThenApply: any invalid subcommand fails the whole
// batch before anything — including the ledger record — is applied.
func TestSinkAppendValidateAllThenApply(t *testing.T) {
	_, cl := newPair(t)
	var se redisclient.ServerError

	bad := [][]string{
		{"XADD", "q", "*", "task", "ok"},
		{"DEL", "q"}, // not whitelisted
	}
	if _, err := cl.SinkAppend("st", "gate", bad); !errors.As(err, &se) {
		t.Fatalf("unwhitelisted subcommand: %v", err)
	}
	if n, _ := cl.XLen("q"); n != 0 {
		t.Fatalf("partial apply: stream len=%d", n)
	}
	if _, ok, _ := cl.HGet("st", "gate"); ok {
		t.Fatal("failed batch recorded its gate")
	}

	// Type conflicts are caught during validation too.
	if err := cl.Set("q", "now-a-string"); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.SinkAppend("st", "gate", [][]string{{"XADD", "q", "*", "f", "v"}}); !errors.As(err, &se) {
		t.Fatalf("XADD onto string: %v", err)
	}
	// Explicit IDs are rejected: only the auto-ID form the transport emits.
	if _, err := cl.SinkAppend("st", "gate", [][]string{{"XADD", "q2", "1-1", "f", "v"}}); !errors.As(err, &se) {
		t.Fatalf("explicit-ID XADD: %v", err)
	}
	// Malformed framing (bad argv count) is rejected.
	if _, err := cl.Do("SINKAPPEND", "st", "gate", "1", "5", "INCRBY", "k", "1"); !errors.As(err, &se) {
		t.Fatalf("bad framing: %v", err)
	}
	if _, ok, _ := cl.HGet("st", "gate"); ok {
		t.Fatal("failed batch recorded its gate")
	}
}

// TestCompoundAtomicityUnderRaces hammers one gate from many goroutines: the
// server-side transaction must admit exactly one applier however the racing
// duplicates interleave.
func TestCompoundAtomicityUnderRaces(t *testing.T) {
	_, cl := newPair(t)
	const racers = 8
	applies := make(chan bool, racers)
	errs := make(chan error, racers)
	for i := 0; i < racers; i++ {
		go func() {
			applied, _, err := cl.FenceApplyIncr("h", "gate", "cnt", 10)
			applies <- applied
			errs <- err
		}()
	}
	wins := 0
	for i := 0; i < racers; i++ {
		if <-applies {
			wins++
		}
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if wins != 1 {
		t.Fatalf("appliers=%d want exactly 1", wins)
	}
	if v, _, _ := cl.HGet("h", "cnt"); v != "10" {
		t.Fatalf("cnt=%q want 10", v)
	}
}

// TestSinkAppendLease exercises the lease-gated form: a block runs only while
// its lease key holds its token, reads and writes the hash, acks under the
// ownership rule, refreshes the lease, and releases it; a block
// whose lease is gone applies nothing while its siblings still run.
func TestSinkAppendLease(t *testing.T) {
	_, cl := newPair(t)
	if err := cl.XGroupCreate("p", "g", "0"); err != nil {
		t.Fatal(err)
	}
	id, err := cl.XAddValues("p", "task", "a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.IncrBy("pending", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.XReadGroup("g", "w0", 1, 0, "p"); err != nil {
		t.Fatal(err)
	}
	if ok, err := cl.SetNX("lease:0", "tok", 0); err != nil || !ok {
		t.Fatalf("lease: ok=%v err=%v", ok, err)
	}

	commit := func(ttl time.Duration, blocks ...[]string) ([]bool, [][]resp.Value) {
		t.Helper()
		c := redisclient.NewLeaseCommit(nil, "h", ttl)
		for _, b := range blocks {
			c.Block(b[0], b[1])
			for _, sub := range strings.Split(strings.Join(b[2:], " "), "|") {
				f := strings.Fields(sub)
				if len(f) == 0 {
					continue
				}
				c.Sub(f[0])
				c.Arg(f[1:]...)
			}
		}
		v, err := cl.Do(c.Argv()...)
		if err != nil {
			t.Fatal(err)
		}
		return redisclient.LeaseReplies(v)
	}

	// One window: final value and mark, ack; then a block on a lease nobody
	// holds.
	applied, _ := commit(time.Minute,
		[]string{"lease:0", "tok", "HSET k 7 mark 3 | XACK p g w0 pending " + id + " 1"},
		[]string{"lease:1", "tok", "HSET stolen 1"})
	if !applied[0] || applied[1] {
		t.Fatalf("applied=%v, want [true false]", applied)
	}
	if v, _, _ := cl.HGet("h", "k"); v != "7" {
		t.Fatalf("k=%q want 7", v)
	}
	if _, ok, _ := cl.HGet("h", "stolen"); ok {
		t.Fatal("a block whose lease is gone wrote the hash")
	}
	if n, _, _ := cl.Get("pending"); n != "0" {
		t.Fatalf("pending=%q want 0: the ack must release the entry's weight", n)
	}
	if ttl, _ := cl.DoInt("TTL", "lease:0"); ttl <= 0 {
		t.Fatalf("lease TTL %d: the commit must refresh it", ttl)
	}
	// The same commit re-sent changes nothing further (retry safety).
	commit(time.Minute, []string{"lease:0", "tok", "HSET k 7 mark 3 | XACK p g w0 pending " + id + " 1"})
	if n, _, _ := cl.Get("pending"); n != "0" {
		t.Fatalf("pending=%q after the re-sent commit, want 0", n)
	}

	// A read sees the value and the mark; a stale token reads nothing.
	applied, vals := commit(0,
		[]string{"lease:0", "tok", "HGET k mark absent"},
		[]string{"lease:0", "old", "HGET k"})
	if !applied[0] || applied[1] || len(vals[0]) != 3 || vals[0][0].Str != "7" || vals[0][1].Str != "3" || !vals[0][2].IsNull() {
		t.Fatalf("read: applied=%v vals=%v", applied, vals)
	}

	// Release: the lease key goes, and the next block under it applies nothing.
	if applied, _ := commit(0, []string{"lease:0", "tok", "HDEL k | DEL lease:0"}); !applied[0] {
		t.Fatal("release did not apply")
	}
	if _, ok, _ := cl.Get("lease:0"); ok {
		t.Fatal("lease survived its release")
	}
	if applied, _ := commit(0, []string{"lease:0", "tok", "HSET k 9"}); applied[0] {
		t.Fatal("a released lease still gated a write in")
	}
	if _, ok, _ := cl.HGet("h", "k"); ok {
		t.Fatal("k survived its HDEL or came back after the release")
	}

	// A malformed block leaves the store untouched.
	var se redisclient.ServerError
	if _, err := cl.Do("SINKAPPEND", "LEASE", "0", "h", "1", "lease:0", "tok", "1", "2", "DEL", "other"); !errors.As(err, &se) {
		t.Fatalf("DEL of another key: %v, want an error reply", err)
	}
}
