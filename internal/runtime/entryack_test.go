package runtime_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/redisclient"
	"repro/internal/runtime"
)

// newEntryFixture is newRedisFixture with the run keys exposed, so tests can
// inspect the stream and PEL behind the Transport interface.
func newEntryFixture(t *testing.T, workers int, recoverStale bool) (*runtime.RedisTransport, *redisclient.Client, runtime.RedisKeys) {
	t.Helper()
	cluster := oneShardCluster(t)
	keys := runtime.NewRunKeys("entrytest", 1)
	plan := runtime.NewPlan(make([]runtime.WorkerSpec, workers), map[string]int{"pe": 0})
	tr, err := runtime.NewRedisTransport(cluster, keys, plan, recoverStale)
	if err != nil {
		t.Fatal(err)
	}
	return tr, cluster.Shard(0), keys
}

func poolTasks(n int) []runtime.Task {
	ts := make([]runtime.Task, n)
	for i := range ts {
		ts[i] = runtime.Task{PE: "pe", Port: "in", Value: i, Instance: -1, Src: uint64(i + 1), Seq: uint64(i)}
	}
	return ts
}

// TestRedisPackedPushSingleEntry pins the tentpole wire change: one Push of
// a pool batch of at most one emit window lands as ONE stream entry, and one
// window unit of PullBatch delivers the whole frame. A push carrying several
// windows — a pipelined emitter's drain — lands as one entry per window, so
// several consumers can pull it in parallel.
func TestRedisPackedPushSingleEntry(t *testing.T) {
	for _, tc := range []struct {
		tasks   int
		entries []int // tasks per entry, in stream order
	}{{8, []int{8}}, {300, []int{128, 128, 44}}} {
		t.Run(fmt.Sprint(tc.tasks), func(t *testing.T) {
			tr, cl, keys := newEntryFixture(t, 1, false)
			if err := tr.Push(poolTasks(tc.tasks)...); err != nil {
				t.Fatal(err)
			}
			if n, err := cl.XLen(keys.Queue); err != nil || n != int64(len(tc.entries)) {
				t.Fatalf("stream holds %d entries (%v), want %d packed frames", n, err, len(tc.entries))
			}
			next := 0
			for _, size := range tc.entries {
				envs, err := tr.PullBatch(0, 1, 5*time.Millisecond)
				if err != nil {
					t.Fatal(err)
				}
				if len(envs) != size {
					t.Fatalf("pulled %d envs from a window of 1 entry, want %d", len(envs), size)
				}
				for i, env := range envs {
					if env.AckID == "" || env.AckID != envs[0].AckID {
						t.Fatalf("env %d AckID %q, want all envs to share the entry ID %q", i, env.AckID, envs[0].AckID)
					}
					if env.Value != next {
						t.Fatalf("env %d value %v, want in-order delivery (%d)", i, env.Value, next)
					}
					next++
				}
				if err := tr.Ack(0, envs...); err != nil {
					t.Fatal(err)
				}
			}
			if p, err := tr.Pending(); err != nil || p != 0 {
				t.Fatalf("pending = %d (%v) after full ack, want 0", p, err)
			}
			if ids, err := cl.XPendingIDs(keys.Queue, keys.Group, "w0", 16); err != nil || len(ids) != 0 {
				t.Fatalf("PEL holds %v (%v) after full ack, want empty", ids, err)
			}
		})
	}
}

// TestRedisEntryRangeAckPartial acks a packed entry in two halves and then
// again, on both recoverStale settings — acknowledgement is one path either
// way. The entry stays in the PEL until the last of its tasks is released,
// and the half-acked frame holds its full weight on the pending counter
// (decrements are backed by entry removal, so the drain check never sees a
// packed frame as partially done). A repeated ack of the released frame
// removes nothing and so decrements nothing: Pending stays at 0. An ack
// costs one round trip (the FENCEXACK) when it completes an entry and none
// when it does not.
func TestRedisEntryRangeAckPartial(t *testing.T) {
	for _, recoverStale := range []bool{false, true} {
		t.Run(fmt.Sprintf("recoverStale=%v", recoverStale), func(t *testing.T) {
			tr, cl, keys := newEntryFixture(t, 1, recoverStale)
			ack := func(envs []runtime.Env, wantTrips int64) {
				t.Helper()
				before := cl.Stats().RoundTrips
				if err := tr.Ack(0, envs...); err != nil {
					t.Fatal(err)
				}
				if trips := cl.Stats().RoundTrips - before; trips != wantTrips {
					t.Fatalf("ack of %d envs cost %d round trips, want %d", len(envs), trips, wantTrips)
				}
			}
			if err := tr.Push(poolTasks(4)...); err != nil {
				t.Fatal(err)
			}
			envs, err := tr.PullBatch(0, 1, 5*time.Millisecond)
			if err != nil || len(envs) != 4 {
				t.Fatalf("pull: %d envs, %v", len(envs), err)
			}
			ack(envs[:2], 0)
			if p, _ := tr.Pending(); p != 4 {
				t.Fatalf("pending = %d after half the frame acked, want the full 4 until the entry completes", p)
			}
			if ids, err := cl.XPendingIDs(keys.Queue, keys.Group, "w0", 16); err != nil || len(ids) != 1 {
				t.Fatalf("PEL %v (%v) with the frame half-acked, want the entry still pending", ids, err)
			}
			ack(envs[2:], 1)
			if p, _ := tr.Pending(); p != 0 {
				t.Fatalf("pending = %d after the full frame, want 0", p)
			}
			if ids, _ := cl.XPendingIDs(keys.Queue, keys.Group, "w0", 16); len(ids) != 0 {
				t.Fatalf("PEL %v after the full frame, want empty", ids)
			}
			ack(envs, 1)
			if p, _ := tr.Pending(); p != 0 {
				t.Fatalf("pending = %d after a repeated ack of the released frame, want 0", p)
			}
		})
	}
}

// TestRedisClaimedPackedEntryFenced reruns the late-ack interleaving over a
// packed frame: the whole entry is claimed away, the original worker's late
// ack of all its tasks must not release anything, and the new owner's ack
// releases the entry's full weight exactly once.
func TestRedisClaimedPackedEntryFenced(t *testing.T) {
	tr, _, _ := newEntryFixture(t, 2, true)
	if err := tr.Push(poolTasks(3)...); err != nil {
		t.Fatal(err)
	}
	const pollTimeout = 5 * time.Millisecond
	stalled, err := tr.PullBatch(0, 1, pollTimeout)
	if err != nil || len(stalled) != 3 {
		t.Fatalf("pull w0: %d envs, %v", len(stalled), err)
	}
	time.Sleep(10 * pollTimeout)
	claimed, err := tr.PullBatch(1, 1, pollTimeout)
	if err != nil || len(claimed) != 3 || claimed[0].AckID != stalled[0].AckID {
		t.Fatalf("claim w1: %d envs, %v (want the stalled frame)", len(claimed), err)
	}
	if err := tr.Ack(0, stalled...); err != nil {
		t.Fatal(err)
	}
	if p, _ := tr.Pending(); p != 3 {
		t.Fatalf("pending = %d after the late ack of the claimed frame, want 3", p)
	}
	if err := tr.Ack(1, claimed...); err != nil {
		t.Fatal(err)
	}
	if p, _ := tr.Pending(); p != 0 {
		t.Fatalf("pending = %d after the owner's ack, want 0", p)
	}
	// Repeated stale acks of the long-released frame stay no-ops.
	if err := tr.Ack(0, stalled...); err != nil {
		t.Fatal(err)
	}
	if p, _ := tr.Pending(); p != 0 {
		t.Fatalf("pending = %d after a repeated stale ack, want 0", p)
	}
}

// TestRedisLeaseExtendBlocksClaim pins the liveness contract packing
// introduced: a worker heartbeating through Extend keeps its pulled frame
// ineligible for XAUTOCLAIM even though the frame's total processing time is
// far past the idle threshold, while a silent worker's frame is claimed away
// as before. Without the heartbeat a frame slower than the threshold
// ping-pongs between claimers forever and the run never drains.
func TestRedisLeaseExtendBlocksClaim(t *testing.T) {
	tr, _, _ := newEntryFixture(t, 2, true)
	if err := tr.Push(poolTasks(6)...); err != nil {
		t.Fatal(err)
	}
	const pollTimeout = 5 * time.Millisecond // claim threshold 8× = 40ms
	envs, err := tr.PullBatch(0, 1, pollTimeout)
	if err != nil || len(envs) != 6 {
		t.Fatalf("pull w0: %d envs, %v", len(envs), err)
	}
	// Simulate a healthy worker mid-frame: heartbeat across 3 thresholds'
	// worth of wall clock without acking anything.
	for i := 0; i < 12; i++ {
		time.Sleep(pollTimeout * 2)
		if err := tr.Extend(0); err != nil {
			t.Fatal(err)
		}
	}
	claimed, err := tr.PullBatch(1, 1, pollTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if len(claimed) != 0 {
		t.Fatalf("w1 claimed %d envs from a heartbeating owner, want 0", len(claimed))
	}
	// The owner stops heartbeating (stalls): the frame ages out and w1
	// claims it whole.
	time.Sleep(10 * pollTimeout)
	claimed, err = tr.PullBatch(1, 1, pollTimeout)
	if err != nil || len(claimed) != 6 {
		t.Fatalf("w1 claimed %d envs from a stalled owner (%v), want the full frame of 6", len(claimed), err)
	}
	// The late owner's Extend must not steal the frame back: it no longer
	// owns the entry, so the heartbeat is a no-op.
	if err := tr.Extend(0); err != nil {
		t.Fatal(err)
	}
	if again, err := tr.PullBatch(0, 1, pollTimeout); err != nil || len(again) != 0 {
		t.Fatalf("stalled owner re-pulled %d envs (%v) after its late Extend, want 0", len(again), err)
	}
	if err := tr.Ack(1, claimed...); err != nil {
		t.Fatal(err)
	}
	if p, _ := tr.Pending(); p != 0 {
		t.Fatalf("pending = %d after the claimer's full ack, want 0", p)
	}
}

// TestRedisAckWithoutEntryIDIsAnError: every env PullBatch returns carries
// its entry ID, so an env without one did not come from this transport. Ack
// refuses it instead of guessing a decrement.
func TestRedisAckWithoutEntryIDIsAnError(t *testing.T) {
	tr, _, _ := newEntryFixture(t, 1, false)
	if err := tr.Ack(0, runtime.Env{Task: poolTasks(1)[0]}); err == nil {
		t.Fatal("ack of an env without an entry ID succeeded")
	}
}
