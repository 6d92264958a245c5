package runtime_test

import (
	"testing"
	"time"

	"repro/internal/miniredis"
	"repro/internal/redisclient"
	"repro/internal/runtime"
)

// oneShardCluster dials a one-shard cluster onto a fresh embedded server,
// both closed with the test; Shard(0) is the client for tests that inspect
// the server behind the Transport interface.
func oneShardCluster(tb testing.TB) *redisclient.Cluster {
	tb.Helper()
	srv, err := miniredis.StartTestServer()
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { srv.Close() })
	cluster, err := redisclient.NewCluster([]string{srv.Addr()})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { cluster.Close() })
	return cluster
}

// newRedisFixture builds a Redis transport over a fresh embedded server.
func newRedisFixture(t *testing.T, plan runtime.Plan, recoverStale bool) (*runtime.RedisTransport, *redisclient.Client) {
	t.Helper()
	cluster := oneShardCluster(t)
	tr, err := runtime.NewRedisTransport(cluster, runtime.NewRunKeys("fencetest", 1), plan, recoverStale)
	if err != nil {
		t.Fatal(err)
	}
	return tr, cluster.Shard(0)
}

// TestRedisLateAckAfterClaimIsFenced drives the late-ack double-decrement
// interleaving directly: worker 0 pulls a task and stalls; XAUTOCLAIM (via
// worker 1's empty-handed pull under recoverStale) moves the pending entry
// to worker 1; then worker 0's ack lands late. Without the ownership check
// that ack would remove the claimed entry and decrement the shared
// pending counter while the task is still in flight on worker 1 — the
// coordinator would observe pending == 0 and close the transport early.
// The fenced ack must drop it: the task stays pending until its new owner
// releases it, and repeated late acks never drive the counter negative.
func TestRedisLateAckAfterClaimIsFenced(t *testing.T) {
	plan := runtime.NewPlan(make([]runtime.WorkerSpec, 2), map[string]int{"pe": 0})
	tr, _ := newRedisFixture(t, plan, true)

	if err := tr.Push(runtime.Task{PE: "pe", Port: "in", Value: 1, Instance: -1}); err != nil {
		t.Fatal(err)
	}
	const pollTimeout = 5 * time.Millisecond

	// Worker 0 takes the delivery and stalls mid-processing.
	stalled, err := tr.PullBatch(0, 1, pollTimeout)
	if err != nil || len(stalled) != 1 {
		t.Fatalf("pull w0: %v %v", stalled, err)
	}

	// The entry's idle time crosses the reclaim threshold (8 × poll
	// timeout); worker 1's empty-handed pull claims it.
	time.Sleep(10 * pollTimeout)
	claimed, err := tr.PullBatch(1, 1, pollTimeout)
	if err != nil || len(claimed) != 1 || claimed[0].AckID != stalled[0].AckID {
		t.Fatalf("claim w1: %v %v (want the stalled entry %s)", claimed, err, stalled[0].AckID)
	}

	// Worker 0 wakes up and its ack lands late.
	if err := tr.Ack(0, stalled...); err != nil {
		t.Fatal(err)
	}
	if p, err := tr.Pending(); err != nil || p != 1 {
		t.Fatalf("pending = %d (%v) after the late ack, want 1 — the claimed task is still in flight on w1", p, err)
	}

	// The new owner releases it; only now does the counter drain.
	if err := tr.Ack(1, claimed...); err != nil {
		t.Fatal(err)
	}
	if p, err := tr.Pending(); err != nil || p != 0 {
		t.Fatalf("pending = %d (%v) after the owner's ack, want 0", p, err)
	}

	// A second stale ack of the long-released delivery stays a no-op.
	if err := tr.Ack(0, stalled...); err != nil {
		t.Fatal(err)
	}
	if p, err := tr.Pending(); err != nil || p != 0 {
		t.Fatalf("pending = %d (%v) after a repeated stale ack, want 0 (counter went negative)", p, err)
	}
}
