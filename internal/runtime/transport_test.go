package runtime_test

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/mpi"
	"repro/internal/runtime"
)

// transportFixture builds one transport kind over a single-worker plan: the
// chan, redis and rank transports exercise their pinned delivery path, the
// queue transport its pool path — together covering every route of the four
// transports. addr is a task template addressed to the fixture's worker 0.
type transportFixture struct {
	name string
	make func(t *testing.T) (tr runtime.Transport, addr runtime.Task)
}

func transportFixtures() []transportFixture {
	pinnedPlan := func() runtime.Plan {
		return runtime.NewPlan([]runtime.WorkerSpec{{PE: "pe", Instance: 0}}, map[string]int{"pe": 1})
	}
	return []transportFixture{
		{name: "chan", make: func(t *testing.T) (runtime.Transport, runtime.Task) {
			return runtime.NewChanTransport(pinnedPlan(), 0), runtime.Task{PE: "pe", Port: "in", Instance: 0}
		}},
		{name: "queue", make: func(t *testing.T) (runtime.Transport, runtime.Task) {
			return runtime.NewQueueTransport(runtime.NewQueue(0)), runtime.Task{PE: "pe", Port: "in", Instance: -1}
		}},
		{name: "redis", make: func(t *testing.T) (runtime.Transport, runtime.Task) {
			tr, err := runtime.NewRedisTransport(oneShardCluster(t), runtime.NewRunKeys("tconf", 1), pinnedPlan(), false)
			if err != nil {
				t.Fatal(err)
			}
			return tr, runtime.Task{PE: "pe", Port: "in", Instance: 0}
		}},
		{name: "rank", make: func(t *testing.T) (runtime.Transport, runtime.Task) {
			world, err := mpi.NewWorld(1)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(world.Close)
			tr, err := runtime.NewRankTransport(world, pinnedPlan())
			if err != nil {
				t.Fatal(err)
			}
			return tr, runtime.Task{PE: "pe", Port: "in", Instance: 0}
		}},
	}
}

// TestTransportsHoldTerminationUntilDrained is the transport-level
// termination conformance property: with a deliberately slow consumer, the
// drain check the coordinator gates poison pills on must not pass while any
// task is queued or in flight — across all four transports. A violation is
// exactly the bug class the per-mapping protocols used to guard against
// individually: a worker exiting while tasks are pending.
func TestTransportsHoldTerminationUntilDrained(t *testing.T) {
	const n = 20
	for _, fx := range transportFixtures() {
		fx := fx
		t.Run(fx.name, func(t *testing.T) {
			t.Parallel()
			tr, addr := fx.make(t)

			tasks := make([]runtime.Task, n)
			for i := range tasks {
				task := addr
				task.Value = i
				tasks[i] = task
			}
			if err := tr.Push(tasks...); err != nil {
				t.Fatal(err)
			}

			var processed atomic.Int64
			go func() {
				for {
					envs, err := tr.PullBatch(0, 1, 2*time.Millisecond)
					if err != nil {
						return
					}
					if len(envs) == 0 {
						continue
					}
					// Slow consumer: the task stays in flight long enough
					// for many drain polls to observe it.
					time.Sleep(3 * time.Millisecond)
					processed.Add(int64(len(envs)))
					if err := tr.Ack(0, envs...); err != nil {
						return
					}
					if processed.Load() == n {
						return
					}
				}
			}()

			if err := runtime.AwaitDrain(tr, time.Millisecond, 3, nil); err != nil {
				t.Fatal(err)
			}
			if got := processed.Load(); got != n {
				t.Fatalf("drain passed with %d of %d tasks processed — workers would exit with tasks pending", got, n)
			}
			if p, err := tr.Pending(); err != nil || p != 0 {
				t.Fatalf("pending after drain: %d (%v)", p, err)
			}
			_ = tr.Done()
		})
	}
}

// TestTransportsHoldTerminationWithPrefetch extends the conformance
// property to the batched consume path: a slow consumer that pulls windows
// of several tasks and parks them in a non-empty prefetch buffer — acking
// the whole batch only after the last task is processed — must never let
// the coordinator's drain pass early, on all four transports. This is the
// invariant that makes prefetching safe: pulled-but-unacknowledged tasks
// still count as pending.
func TestTransportsHoldTerminationWithPrefetch(t *testing.T) {
	const n = 24
	const window = 8
	for _, fx := range transportFixtures() {
		fx := fx
		t.Run(fx.name, func(t *testing.T) {
			t.Parallel()
			tr, addr := fx.make(t)

			tasks := make([]runtime.Task, n)
			for i := range tasks {
				task := addr
				task.Value = i
				tasks[i] = task
			}
			if err := tr.Push(tasks...); err != nil {
				t.Fatal(err)
			}

			var acked atomic.Int64
			go func() {
				for acked.Load() < n {
					// max is advisory: a batch-framed transport may return
					// more than window tasks; hold however many arrived.
					envs, err := tr.PullBatch(0, window, 2*time.Millisecond)
					if err != nil {
						return
					}
					if len(envs) == 0 {
						continue
					}
					// The whole batch sits in the prefetch buffer while each
					// task is slowly processed; many drain polls observe the
					// buffer non-empty with the queue itself already short.
					for range envs {
						time.Sleep(time.Millisecond)
					}
					if err := tr.Ack(0, envs...); err != nil {
						return
					}
					acked.Add(int64(len(envs)))
				}
			}()

			if err := runtime.AwaitDrain(tr, time.Millisecond, 3, nil); err != nil {
				t.Fatal(err)
			}
			if got := acked.Load(); got != n {
				t.Fatalf("drain passed with %d of %d tasks acknowledged — a prefetch buffer would be dropped at termination", got, n)
			}
			if p, err := tr.Pending(); err != nil || p != 0 {
				t.Fatalf("pending after drain: %d (%v)", p, err)
			}
			_ = tr.Done()
		})
	}
}

// TestTransportsCountInFlightTasks pins the finer-grained half of the
// contract: a task that has been pulled but not acknowledged is still
// pending, even though the queue itself is empty.
func TestTransportsCountInFlightTasks(t *testing.T) {
	for _, fx := range transportFixtures() {
		fx := fx
		t.Run(fx.name, func(t *testing.T) {
			t.Parallel()
			tr, addr := fx.make(t)
			if err := tr.Push(addr); err != nil {
				t.Fatal(err)
			}
			envs, err := tr.PullBatch(0, 1, 50*time.Millisecond)
			if err != nil || len(envs) != 1 {
				t.Fatalf("pull: envs=%v err=%v", envs, err)
			}
			// Queue empty, task in flight: must still count as pending.
			if p, err := tr.Pending(); err != nil || p != 1 {
				t.Fatalf("in-flight pending = %d (%v), want 1", p, err)
			}
			if err := tr.Ack(0, envs[0]); err != nil {
				t.Fatal(err)
			}
			if p, err := tr.Pending(); err != nil || p != 0 {
				t.Fatalf("post-ack pending = %d (%v), want 0", p, err)
			}
			_ = tr.Done()
		})
	}
}

// TestSeedHelpersStable pins the deduplicated FNV helpers: stable across
// calls, distinct across instances and PE names.
func TestSeedHelpersStable(t *testing.T) {
	if runtime.InstanceSeed("getVOTable", 0) != runtime.InstanceSeed("getVOTable", 0) {
		t.Error("InstanceSeed not stable")
	}
	if runtime.InstanceSeed("getVOTable", 0) == runtime.InstanceSeed("getVOTable", 1) {
		t.Error("InstanceSeed must differ across instances")
	}
	if runtime.InstanceSeed("getVOTable", 0) == runtime.InstanceSeed("filterColumns", 0) {
		t.Error("InstanceSeed must differ across PEs")
	}
	if runtime.NodeHash("a") != graph.Hash32("a") || runtime.NodeHash("a") == runtime.NodeHash("b") {
		t.Error("NodeHash must be the graph FNV hash")
	}
}
