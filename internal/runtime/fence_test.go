package runtime_test

import (
	"testing"
	"time"

	"repro/internal/miniredis"
	"repro/internal/mpi"
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
// coordinator would observe pending == 0 and start poisoning workers early.
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

// TestTransportsPoisonPillBatchFraming pins how each transport frames a
// push interleaving tasks and a poison pill — the contract PR 3's worker
// re-routing relies on but no test held down:
//
//   - reversible transports (chan, queue, rank) end the batch at the pill,
//     so a worker can never swallow work queued behind its own pill;
//   - the Redis transports may return tasks behind the pill in one batch
//     (irreversible stream deliveries, whole private-list frames); the
//     worker's re-route — push the surplus back, then release the batch —
//     must lose nothing and leave the pending counter exactly drained.
func TestTransportsPoisonPillBatchFraming(t *testing.T) {
	const pollTimeout = 50 * time.Millisecond

	// assertReversible: [task, pill, task] pushed in one call must come back
	// as [task, pill], with the trailing task still pullable afterwards.
	assertReversible := func(t *testing.T, tr runtime.Transport, mk func(v int, poison bool) runtime.Task) {
		if err := tr.Push(mk(1, false), mk(0, true), mk(2, false)); err != nil {
			t.Fatal(err)
		}
		batch, err := tr.PullBatch(0, 10, pollTimeout)
		if err != nil {
			t.Fatal(err)
		}
		if len(batch) != 2 || batch[0].Poison || !batch[1].Poison {
			t.Fatalf("batch = %+v, want [task, pill] (pill must end its batch)", batch)
		}
		rest, err := tr.PullBatch(0, 10, pollTimeout)
		if err != nil || len(rest) != 1 || rest[0].Poison || rest[0].Value != 2 {
			t.Fatalf("task behind the pill lost: %+v %v", rest, err)
		}
		if err := tr.Ack(0, append(batch, rest...)...); err != nil {
			t.Fatal(err)
		}
		if p, err := tr.Pending(); err != nil || p != 0 {
			t.Fatalf("pending = %d (%v) after acking everything, want 0", p, err)
		}
	}

	t.Run("chan", func(t *testing.T) {
		plan := runtime.NewPlan([]runtime.WorkerSpec{{PE: "pe", Instance: 0}}, map[string]int{"pe": 1})
		assertReversible(t, runtime.NewChanTransport(plan, 0), func(v int, poison bool) runtime.Task {
			return runtime.Task{PE: "pe", Port: "in", Value: v, Instance: 0, Poison: poison}
		})
	})
	t.Run("queue", func(t *testing.T) {
		assertReversible(t, runtime.NewQueueTransport(runtime.NewQueue(0)), func(v int, poison bool) runtime.Task {
			return runtime.Task{PE: "pe", Port: "in", Value: v, Instance: -1, Poison: poison}
		})
	})
	t.Run("rank", func(t *testing.T) {
		world, err := mpi.NewWorld(1)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(world.Close)
		plan := runtime.NewPlan([]runtime.WorkerSpec{{PE: "pe", Instance: 0}}, map[string]int{"pe": 1})
		tr, err := runtime.NewRankTransport(world, plan)
		if err != nil {
			t.Fatal(err)
		}
		assertReversible(t, tr, func(v int, poison bool) runtime.Task {
			return runtime.Task{PE: "pe", Port: "in", Value: v, Instance: 0, Poison: poison}
		})
	})

	// rerouteSurplus emulates the worker loop's retirePoison on a batch that
	// carries tasks behind a pill: push the surplus back, release the batch.
	rerouteSurplus := func(t *testing.T, tr runtime.Transport, batch []runtime.Env) {
		pill := -1
		for i, env := range batch {
			if env.Poison {
				pill = i
				break
			}
		}
		if pill < 0 {
			t.Fatalf("no pill in batch %+v", batch)
		}
		var surplus []runtime.Task
		for _, env := range batch[pill+1:] {
			surplus = append(surplus, env.Task)
		}
		if len(surplus) > 0 {
			if err := tr.Push(surplus...); err != nil {
				t.Fatal(err)
			}
		}
		if err := tr.Ack(0, batch[pill:]...); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("redis-stream", func(t *testing.T) {
		plan := runtime.NewPlan(make([]runtime.WorkerSpec, 2), map[string]int{"pe": 0})
		tr, _ := newRedisFixture(t, plan, false)
		mk := func(v int, poison bool) runtime.Task {
			return runtime.Task{PE: "pe", Port: "in", Value: v, Instance: -1, Poison: poison}
		}
		if err := tr.Push(mk(1, false), mk(0, true), mk(2, false)); err != nil {
			t.Fatal(err)
		}
		batch, err := tr.PullBatch(0, 10, pollTimeout)
		if err != nil || len(batch) != 3 {
			t.Fatalf("stream batch = %+v (%v), want all 3 entries (irreversible deliveries)", batch, err)
		}
		if err := tr.Ack(0, batch[0]); err != nil { // the task ahead of the pill is processed normally
			t.Fatal(err)
		}
		rerouteSurplus(t, tr, batch)
		redelivered, err := tr.PullBatch(1, 10, pollTimeout)
		if err != nil || len(redelivered) != 1 || redelivered[0].Value != 2 {
			t.Fatalf("re-routed task not redelivered: %+v %v", redelivered, err)
		}
		if err := tr.Ack(1, redelivered...); err != nil {
			t.Fatal(err)
		}
		if p, err := tr.Pending(); err != nil || p != 0 {
			t.Fatalf("pending = %d (%v) after the re-route, want 0", p, err)
		}
	})
	t.Run("redis-private-list", func(t *testing.T) {
		plan := runtime.NewPlan([]runtime.WorkerSpec{{PE: "pe", Instance: 0}}, map[string]int{"pe": 1})
		tr, _ := newRedisFixture(t, plan, false)
		mk := func(v int, poison bool) runtime.Task {
			return runtime.Task{PE: "pe", Port: "in", Value: v, Instance: 0, Poison: poison}
		}
		// One batched push → one list frame holding the interleaved batch.
		if err := tr.Push(mk(1, false), mk(0, true), mk(2, false)); err != nil {
			t.Fatal(err)
		}
		batch, err := tr.PullBatch(0, 10, pollTimeout)
		if err != nil || len(batch) != 3 {
			t.Fatalf("frame batch = %+v (%v), want the whole 3-task frame", batch, err)
		}
		if batch[0].Value != 1 || !batch[1].Poison || batch[2].Value != 2 {
			t.Fatalf("frame order mangled: %+v", batch)
		}
		if err := tr.Ack(0, batch[0]); err != nil {
			t.Fatal(err)
		}
		rerouteSurplus(t, tr, batch)
		redelivered, err := tr.PullBatch(0, 10, pollTimeout)
		if err != nil || len(redelivered) != 1 || redelivered[0].Value != 2 {
			t.Fatalf("re-routed task not redelivered: %+v %v", redelivered, err)
		}
		if err := tr.Ack(0, redelivered...); err != nil {
			t.Fatal(err)
		}
		if p, err := tr.Pending(); err != nil || p != 0 {
			t.Fatalf("pending = %d (%v) after the re-route, want 0", p, err)
		}
	})
}
