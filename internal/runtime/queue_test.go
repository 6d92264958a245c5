package runtime

import (
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

// awaitWaiters blocks until n poppers are blocked on the queue.
func awaitWaiters(t *testing.T, q *Queue, n int) {
	t.Helper()
	awaitLine(t, q, n, "poppers", func() int { return len(q.waiters) })
}

// awaitPushers blocks until n pushers are blocked on the full queue.
func awaitPushers(t *testing.T, q *Queue, n int) {
	t.Helper()
	awaitLine(t, q, n, "pushers", func() int { return len(q.pushers) })
}

func awaitLine(t *testing.T, q *Queue, n int, what string, line func() int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(50 * time.Microsecond) {
		q.mu.Lock()
		got := line()
		q.mu.Unlock()
		if got == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d %s blocked, want %d", got, what, n)
		}
	}
}

func onePinnedWorker() Plan {
	return NewPlan([]WorkerSpec{{PE: "pe", Instance: 0}}, map[string]int{"pe": 1})
}

// TestQueueTransportDoneWakesBlockedPull: Done ends a blocked pull at once
// with the closed error, not at the pull's timeout, on the pool queue and on
// a pinned box alike, and every later pull fails the same way.
func TestQueueTransportDoneWakesBlockedPull(t *testing.T) {
	pinned := NewPinnedTransport(onePinnedWorker())
	pool := NewQueueTransport(NewQueue(0))
	for _, tc := range []struct {
		name string
		tr   *QueueTransport
		q    *Queue
	}{{"pool", pool, pool.pool}, {"pinned", pinned, pinned.boxes[0]}} {
		t.Run(tc.name, func(t *testing.T) {
			type pull struct {
				envs []Env
				err  error
				took time.Duration
			}
			done := make(chan pull, 1)
			go func() {
				start := time.Now()
				envs, err := tc.tr.PullBatch(0, 8, 2*time.Second)
				done <- pull{envs, err, time.Since(start)}
			}()
			awaitWaiters(t, tc.q, 1)
			if err := tc.tr.Done(); err != nil {
				t.Fatal(err)
			}
			got := <-done
			if !IsClosed(got.err) || got.envs != nil || got.took > time.Second {
				t.Fatalf("blocked pull returned %v, %v after %v; want the closed error at once", got.envs, got.err, got.took)
			}
			if _, err := tc.tr.PullBatch(0, 8, time.Second); !IsClosed(err) {
				t.Fatalf("pull after Done: %v, want the closed error", err)
			}
			if err := tc.tr.Done(); err != nil {
				t.Fatalf("second Done: %v", err)
			}
		})
	}
}

// TestPinnedBoxBound: with its consumer stalled, a pinned box never holds
// more than boxBound tasks. The push that overflows it blocks, resumes when
// a pull makes room, and a push blocked at Done returns the closed error.
func TestPinnedBoxBound(t *testing.T) {
	tr := NewPinnedTransport(onePinnedWorker())
	box := tr.boxes[0]
	const extra = 10
	tasks := make([]Task, boxBound+extra)
	for i := range tasks {
		tasks[i] = Task{PE: "pe", Port: "in", Instance: 0, Value: i}
	}
	pushed := make(chan error, 1)
	go func() { pushed <- tr.Push(tasks...) }()
	awaitPushers(t, box, 1)
	if n := tr.QueueDepths()["box:pe:0"]; n != boxBound {
		t.Fatalf("a stalled consumer's box holds %d tasks, want the bound %d", n, boxBound)
	}
	select {
	case err := <-pushed:
		t.Fatalf("push into a full box returned (%v) without waiting for room", err)
	case <-time.After(20 * time.Millisecond):
	}

	envs, err := tr.PullBatch(0, extra, time.Second)
	if err != nil || len(envs) != extra || envs[0].Value != 0 {
		t.Fatalf("pull of %d: %d tasks (%v)", extra, len(envs), err)
	}
	select {
	case err := <-pushed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("blocked push did not resume after a pull made room")
	}
	if n := box.Len(); n != boxBound {
		t.Fatalf("box holds %d tasks after the resumed push, want %d", n, boxBound)
	}
	if p, _ := tr.Pending(); p != boxBound+extra {
		t.Fatalf("pending = %d, want %d", p, boxBound+extra)
	}

	go func() { pushed <- tr.Push(tasks[0]) }()
	awaitPushers(t, box, 1)
	if err := tr.Done(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-pushed:
		if !IsClosed(err) {
			t.Fatalf("push blocked at Done returned %v, want the closed error", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Done left a push blocked on a full box")
	}
}

func TestQueueFIFO(t *testing.T) {
	q := NewQueue(0)
	for i := 0; i < 100; i++ {
		q.Push(Task{PE: "pe", Value: i})
	}
	for i := 0; i < 100; i++ {
		task, ok := pop(q, time.Millisecond)
		if !ok || task.Value.(int) != i {
			t.Fatalf("pop %d: %+v %v", i, task, ok)
		}
	}
}

func TestQueuePopTimeoutBounds(t *testing.T) {
	q := NewQueue(0)
	start := time.Now()
	_, ok := pop(q, 30*time.Millisecond)
	elapsed := time.Since(start)
	if ok {
		t.Fatal("empty queue returned a task")
	}
	if elapsed < 25*time.Millisecond || elapsed > 500*time.Millisecond {
		t.Errorf("timeout elapsed %v", elapsed)
	}
}

// An empty PopN returns at its deadline too, and leaves no waiter behind.
func TestQueuePopNTimeoutBounds(t *testing.T) {
	q := NewQueue(0)
	start := time.Now()
	if got := popN(q, 8, 30*time.Millisecond); got != nil {
		t.Fatalf("empty queue returned %d tasks", len(got))
	}
	if elapsed := time.Since(start); elapsed < 25*time.Millisecond || elapsed > 500*time.Millisecond {
		t.Errorf("timeout elapsed %v", elapsed)
	}
	awaitWaiters(t, q, 0)
	q.Push(Task{PE: "after"}) // must not block on the departed popper
	if got := popN(q, 8, time.Millisecond); len(got) != 1 {
		t.Errorf("pop after a timed-out pop: %d tasks", len(got))
	}
}

// A blocked popper is woken by the push itself, not by a poll slice: half of
// the hand-overs must complete in a fraction of the millisecond a sleeping
// poller would need on average.
func TestQueuePushWakesBlockedPopperAtOnce(t *testing.T) {
	q := NewQueue(0)
	const trials = 21
	waits := make([]time.Duration, 0, trials)
	for i := 0; i < trials; i++ {
		popped := make(chan time.Time, 1)
		go func() {
			if tasks := popN(q, 4, 5*time.Second); len(tasks) == 1 {
				popped <- time.Now()
			}
			close(popped)
		}()
		awaitWaiters(t, q, 1)
		pushed := time.Now()
		q.Push(Task{PE: "late"})
		at, ok := <-popped
		if !ok {
			t.Fatal("PopN did not return the pushed task")
		}
		waits = append(waits, at.Sub(pushed))
	}
	sort.Slice(waits, func(i, j int) bool { return waits[i] < waits[j] })
	if median := waits[trials/2]; median > 500*time.Microsecond {
		t.Errorf("median push-to-pop hand-over %v, want well inside a 1ms poll slice (all: %v)", median, waits)
	}
}

// PushAll(n) wakes min(n, waiters) poppers and leaves the others blocked.
func TestQueuePushAllWakesOnePopperPerTask(t *testing.T) {
	q := NewQueue(0)
	const poppers = 5
	returned := make(chan int, poppers)
	for i := 0; i < poppers; i++ {
		go func() { returned <- len(popN(q, 1, 10*time.Second)) }()
	}
	awaitWaiters(t, q, poppers)
	q.PushAll([]Task{{PE: "a"}, {PE: "b"}})
	q.mu.Lock()
	still := len(q.waiters)
	q.mu.Unlock()
	if still != poppers-2 {
		t.Fatalf("PushAll(2) left %d of %d poppers blocked, want %d", still, poppers, poppers-2)
	}
	for i := 0; i < 2; i++ {
		if n := <-returned; n != 1 {
			t.Fatalf("woken popper got %d tasks", n)
		}
	}
	select {
	case n := <-returned:
		t.Fatalf("a third popper returned (%d tasks) on a push of two", n)
	case <-time.After(20 * time.Millisecond):
	}
	awaitWaiters(t, q, poppers-2)
	q.PushAll(make([]Task, 10)) // more tasks than waiters: everyone wakes
	for i := 0; i < poppers-2; i++ {
		if n := <-returned; n != 1 {
			t.Fatalf("woken popper got %d tasks", n)
		}
	}
	if q.Len() != 10-(poppers-2) {
		t.Errorf("queue holds %d tasks, want %d", q.Len(), 10-(poppers-2))
	}
}

// With consumers that block for far longer than the test may take, a lost
// wake-up would strand a task behind sleeping consumers and blow the budget.
func TestQueueNoLostWakeups(t *testing.T) {
	q := NewQueue(0)
	const producers, perProducer, consumers = 4, 500, 6
	const total = producers * perProducer
	var consumed atomic.Int64
	start := time.Now()
	var cg sync.WaitGroup
	for c := 0; c < consumers; c++ {
		cg.Add(1)
		go func(c int) {
			defer cg.Done()
			for consumed.Load() < total {
				var n int
				if c%2 == 0 {
					n = len(popN(q, 3, 30*time.Second))
				} else if _, ok := pop(q, 30*time.Second); ok {
					n = 1
				}
				if consumed.Add(int64(n)) >= total {
					// Release the consumers still blocked: one task each.
					q.PushAll(make([]Task, consumers))
					return
				}
			}
		}(c)
	}
	var pg sync.WaitGroup
	for p := 0; p < producers; p++ {
		pg.Add(1)
		go func(p int) {
			defer pg.Done()
			for i := 0; i < perProducer; i++ {
				if i%2 == 0 {
					q.Push(Task{PE: "pe"})
				} else {
					q.PushAll([]Task{{PE: "pe"}})
				}
				if i%8 == p {
					time.Sleep(20 * time.Microsecond) // let the consumers drain and block
				}
			}
		}(p)
	}
	pg.Wait()
	cg.Wait()
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("%d tasks through %d blocking consumers took %v: a wake-up was lost", total, consumers, elapsed)
	}
	if got := consumed.Load(); got < total {
		t.Errorf("consumed %d of %d tasks", got, total)
	}
}

func TestQueuePopWakesOnPush(t *testing.T) {
	q := NewQueue(0)
	got := make(chan Task, 1)
	go func() {
		task, ok := pop(q, 5*time.Second)
		if ok {
			got <- task
		}
	}()
	time.Sleep(10 * time.Millisecond)
	q.Push(Task{PE: "late"})
	select {
	case task := <-got:
		if task.PE != "late" {
			t.Errorf("task: %+v", task)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Pop did not wake on Push")
	}
}

func TestQueueConcurrentProducersConsumers(t *testing.T) {
	q := NewQueue(0)
	const producers, perProducer, consumers = 4, 50, 3
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				q.Push(Task{PE: "pe", Value: p*perProducer + i})
			}
		}(p)
	}
	seen := make(chan int, producers*perProducer)
	var cg sync.WaitGroup
	for c := 0; c < consumers; c++ {
		cg.Add(1)
		go func() {
			defer cg.Done()
			for {
				task, ok := pop(q, 50*time.Millisecond)
				if !ok {
					return
				}
				seen <- task.Value.(int)
			}
		}()
	}
	wg.Wait()
	cg.Wait()
	close(seen)
	got := map[int]bool{}
	for v := range seen {
		if got[v] {
			t.Fatalf("duplicate delivery of %d", v)
		}
		got[v] = true
	}
	if len(got) != producers*perProducer {
		t.Fatalf("delivered %d of %d tasks", len(got), producers*perProducer)
	}
}

func TestQueueSyncCostSerializes(t *testing.T) {
	const cost = 500 * time.Microsecond
	q := NewQueue(cost)
	const n = 40
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < n/4; j++ {
				q.Push(Task{PE: "pe"})
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	// 40 pushes × 0.5ms serialized under one lock ≥ ~20ms regardless of the
	// number of pushers.
	if elapsed < time.Duration(n)*cost-5*time.Millisecond {
		t.Errorf("pushes finished in %v, want ≥ %v", elapsed, time.Duration(n)*cost)
	}
}

// Property: any interleaving of pushes preserves multiset of payloads.
func TestQuickQueueNoLoss(t *testing.T) {
	f := func(values []int16) bool {
		q := NewQueue(0)
		for _, v := range values {
			q.Push(Task{Value: int(v)})
		}
		counts := map[int]int{}
		for range values {
			task, ok := pop(q, time.Millisecond)
			if !ok {
				return false
			}
			counts[task.Value.(int)]++
		}
		if _, ok := pop(q, time.Millisecond); ok {
			return false // extra task appeared
		}
		want := map[int]int{}
		for _, v := range values {
			want[int(v)]++
		}
		if len(counts) != len(want) {
			return false
		}
		for k, n := range want {
			if counts[k] != n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// pop takes the head task off q, blocking up to timeout: a pull of one. ok
// is false on timeout and once the queue is closed.
func pop(q *Queue, timeout time.Duration) (t Task, ok bool) {
	ts, _ := q.take(1, timeout)
	if len(ts) == 0 {
		return Task{}, false
	}
	return ts[0], true
}

// popN takes up to max head tasks off q under one lock hold; nil on timeout
// and once the queue is closed.
func popN(q *Queue, max int, timeout time.Duration) []Task {
	ts, _ := q.take(max, timeout)
	return ts
}
