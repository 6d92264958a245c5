package runtime_test

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/runtime"
	"repro/internal/state"
)

// transportFixture builds one transport kind over a single-worker plan: the
// rank fixture is the in-process transport's pinned path (a rank's bounded
// box, as multi and mpi place them), queue its pool path, and redis the
// Redis transport's pinned path. addr is a task template addressed to the
// fixture's worker 0.
type transportFixture struct {
	name string
	make func(t *testing.T) (tr runtime.Transport, addr runtime.Task)
}

func transportFixtures() []transportFixture {
	pinnedPlan := func() runtime.Plan {
		return runtime.NewPlan([]runtime.WorkerSpec{{PE: "pe", Instance: 0}}, map[string]int{"pe": 1})
	}
	return []transportFixture{
		{name: "rank", make: func(t *testing.T) (runtime.Transport, runtime.Task) {
			return runtime.NewPinnedTransport(pinnedPlan()), runtime.Task{PE: "pe", Port: "in", Instance: 0}
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
	}
}

// TestTransportsHoldTerminationUntilDrained is the transport-level
// termination conformance property: with a deliberately slow consumer, the
// drain check the coordinator gates the transport's close on must not pass
// while any task is queued or in flight — on every fixture. A violation is
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

			if err := runtime.AwaitDrain(tr, nil, time.Millisecond, new(atomic.Bool), new(atomic.Int64), new(atomic.Int64)); err != nil {
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

// TestTransportsDoneEndsPollingConsumer pins the one way a run stops its
// workers, on every fixture: a consumer on an empty transport ends with the
// closed error once Done is called, and never before. The polling consumer
// pulls the way the worker loop does; the parked one makes a single pull
// whose timeout far outlasts the test, so only Done's wake can end it in
// time — on Redis, Done interrupts the parked XREADGROUP ... BLOCK.
func TestTransportsDoneEndsPollingConsumer(t *testing.T) {
	for _, fx := range transportFixtures() {
		t.Run(fx.name, func(t *testing.T) {
			t.Parallel()
			for _, consumer := range []struct {
				name            string
				timeout, within time.Duration
			}{{"polling", 2 * time.Millisecond, 5 * time.Second}, {"parked", 2 * time.Second, 250 * time.Millisecond}} {
				t.Run(consumer.name, func(t *testing.T) {
					t.Parallel()
					testDoneEndsConsumer(t, fx, consumer.timeout, consumer.within)
				})
			}
		})
	}
}

// testDoneEndsConsumer starts a consumer pulling fx's transport with timeout
// until it fails or gets tasks, and requires it to end with the closed error
// within the given time of Done.
func testDoneEndsConsumer(t *testing.T, fx transportFixture, timeout, within time.Duration) {
	tr, _ := fx.make(t)
	exited := make(chan error, 1)
	go func() {
		for {
			envs, err := tr.PullBatch(0, 8, timeout)
			if err != nil {
				exited <- err
				return
			}
			if len(envs) > 0 {
				exited <- nil
				return
			}
		}
	}()
	time.Sleep(40 * time.Millisecond)
	select {
	case err := <-exited:
		t.Fatalf("consumer ended with %v before Done", err)
	default:
	}
	if err := tr.Done(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-exited:
		if !runtime.IsClosed(err) {
			t.Fatalf("consumer ended with %v, want the closed error", err)
		}
	case <-time.After(within):
		t.Fatalf("consumer still pulling %v after Done", within)
	}
}

// TestTransportsHoldTerminationWithPrefetch extends the conformance
// property to the batched consume path: a slow consumer that pulls windows
// of several tasks and parks them in a non-empty prefetch buffer — acking
// the whole batch only after the last task is processed — must never let
// the coordinator's drain pass early, on every fixture. This is the
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

			if err := runtime.AwaitDrain(tr, nil, time.Millisecond, new(atomic.Bool), new(atomic.Int64), new(atomic.Int64)); err != nil {
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

// assertFencedOnce drives the fenced-Final half of the contract: the first
// PushFenced for a gate lands the whole batch and counts it pending, a second
// one for the same gate (a duplicate Final) lands nothing, and the batch then
// drains like any other. The heartbeat and the depth gauges answer too — the
// engine calls them on every transport.
func assertFencedOnce(t *testing.T, tr runtime.Transport, addr runtime.Task, gate state.TaskGate) {
	t.Helper()
	const n = 5
	batch := make([]runtime.Task, n)
	for i := range batch {
		batch[i] = addr
		batch[i].Value = i
	}
	for i, want := range []bool{true, false} {
		applied, err := tr.PushFenced(gate, 2, batch...)
		if err != nil || applied != want {
			t.Fatalf("PushFenced #%d: applied=%v err=%v, want applied=%v", i+1, applied, err, want)
		}
		if p, err := tr.Pending(); err != nil || p != n {
			t.Fatalf("pending = %d (%v) after PushFenced #%d, want %d", p, err, i+1, n)
		}
	}
	if err := tr.Extend(0); err != nil {
		t.Fatalf("Extend: %v", err)
	}
	if tr.QueueDepths() == nil {
		t.Fatal("QueueDepths returned no gauges")
	}
	got := 0
	for got < n {
		envs, err := tr.PullBatch(0, n, 50*time.Millisecond)
		if err != nil || len(envs) == 0 {
			t.Fatalf("pulled %d of %d fenced tasks (%v)", got, n, err)
		}
		got += len(envs)
		if err := tr.Ack(0, envs...); err != nil {
			t.Fatal(err)
		}
	}
	if p, err := tr.Pending(); err != nil || got != n || p != 0 {
		t.Fatalf("pulled %d tasks, pending %d (%v): want %d and 0 — a duplicate landed", got, p, err, n)
	}
	_ = tr.Done()
}

// TestTransportsPushFencedOnce runs the fenced-Final contract on every
// fixture with the state in memory: the gate is admitted through the
// store, then the batch is pushed.
func TestTransportsPushFencedOnce(t *testing.T) {
	for _, fx := range transportFixtures() {
		fx := fx
		t.Run(fx.name, func(t *testing.T) {
			t.Parallel()
			tr, addr := fx.make(t)
			st, err := state.NewMemoryBackend().Open("ns")
			if err != nil {
				t.Fatal(err)
			}
			assertFencedOnce(t, tr, addr, state.NewFencedStore(st).TaskGate(state.Token{Src: 9, Seq: 1}))
		})
	}
}

// TestRedisPushFencedRecordsGateWhereItsStateLives: on the Redis transport a
// gate whose namespace lives on the transport's own server is recorded
// inside the SINKAPPEND transaction (no store op), while a gate whose
// namespace lives on another server is admitted there through the store —
// the transport never writes a gate onto a server its state is not on. Both
// paths pack the pool batch into entries of at most entryCap tasks.
func TestRedisPushFencedRecordsGateWhereItsStateLives(t *testing.T) {
	plan := runtime.NewPlan(make([]runtime.WorkerSpec, 1), map[string]int{"pe": 0})
	addr := runtime.Task{PE: "pe", Port: "in", Instance: -1}
	tok := state.Token{Src: 9, Seq: 1}
	for _, tc := range []struct {
		name       string
		elsewhere  bool
		wantAdmits int64
	}{{"same-server", false, 0}, {"state-elsewhere", true, 2}} {
		t.Run(tc.name, func(t *testing.T) {
			plane := oneShardCluster(t)
			stateCluster := plane
			if tc.elsewhere {
				stateCluster = oneShardCluster(t)
			}
			tr, err := runtime.NewRedisTransport(plane, runtime.NewRunKeys("gatehome", 1), plan, false)
			if err != nil {
				t.Fatal(err)
			}
			backend := state.NewRedisClusterBackend(stateCluster, "gatehome:state")
			st, err := backend.Open("ns")
			if err != nil {
				t.Fatal(err)
			}
			fs := state.NewFencedStore(st)
			gate := fs.TaskGate(tok)
			assertFencedOnce(t, tr, addr, gate)
			if n := tr.QueueDepths()["s0:stream"]; n != 3 {
				t.Errorf("5 tasks at entryCap 2 packed into %d stream entries, want 3", n)
			}
			if adds := fs.Ops().Adds; adds != tc.wantAdmits {
				t.Errorf("gate admitted through the store %d times, want %d", adds, tc.wantAdmits)
			}
			if _, recorded, err := stateCluster.Shard(0).HGet(gate.Key, gate.Field); err != nil || !recorded {
				t.Errorf("gate not recorded in its namespace on the state server (%v)", err)
			}
			if tc.elsewhere {
				if n, err := plane.Shard(0).HLen(gate.Key); err != nil || n != 0 {
					t.Errorf("data plane holds %d fields of the state hash (%v): the gate was recorded away from its state", n, err)
				}
			}
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
