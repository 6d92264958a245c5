package runtime

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/platform"
	"repro/internal/state"
)

// boxBound is the capacity of a pinned worker's box: the paper's 256-slot
// per-instance queue. A push into a full box waits for room, so a producer
// faster than its consumer is held back instead of growing the box.
const boxBound = 256

// Queue is the in-process mailbox: the dynamic global queue of the pool
// planners, and — bounded — the box of each pinned worker. Every operation
// holds the queue lock for the platform's synchronization cost, so
// contending workers serialize exactly as processes serialize on a
// multiprocessing.Queue — the overhead that makes total process time creep
// upward with larger active pools. PushAll pays that cost once per batch,
// which is what batched emission amortizes on the in-process path.
type Queue struct {
	mu       sync.Mutex
	items    []Task
	waiters  []chan struct{} // blocked poppers, oldest first; each has capacity 1
	pushers  []chan struct{} // pushers blocked on a full queue, oldest first
	bound    int             // capacity; 0 is unbounded
	closed   bool
	syncCost time.Duration
	pushes   int64
	pops     int64
}

// NewQueue creates an unbounded queue with the given per-op synchronization
// cost.
func NewQueue(syncCost time.Duration) *Queue {
	return &Queue{syncCost: syncCost}
}

// Push appends a task; see PushAll.
func (q *Queue) Push(t Task) error { return q.PushAll([]Task{t}) }

// PushAll appends a batch of tasks in order under one lock hold and one
// synchronization cost, and wakes one blocked popper per task. On a bounded
// queue that cannot take the whole batch it appends what fits and waits for
// a pop to make room for the rest. It fails with the closed error once the
// queue is closed.
func (q *Queue) PushAll(ts []Task) error {
	if len(ts) == 0 {
		return nil
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	for !q.closed {
		n := len(ts)
		if q.bound > 0 {
			n = min(n, q.bound-len(q.items))
		}
		if n > 0 {
			platform.SpinWait(q.syncCost)
			q.items = append(q.items, ts[:n]...)
			q.pushes += int64(n)
			q.waiters = signal(q.waiters, n)
			if ts = ts[n:]; len(ts) == 0 {
				return nil
			}
		}
		// Full: wait for a pop (or close) to signal room.
		ch := make(chan struct{}, 1)
		q.pushers = append(q.pushers, ch)
		q.mu.Unlock()
		<-ch
		q.mu.Lock()
	}
	return errTransportClosed
}

// signal wakes the min(n, len(line)) longest-blocked goroutines of line and
// returns the rest. Callers hold mu.
func signal(line []chan struct{}, n int) []chan struct{} {
	n = min(n, len(line))
	for _, ch := range line[:n] {
		ch <- struct{}{}
	}
	return slices.Delete(line, 0, n)
}

// await blocks until the queue is non-empty or closed, or timeout has
// passed, and reports whether a task is there. Callers hold mu, and hold it
// again on return. A popper blocks on its own channel until a push signals
// it, so a task is picked up as soon as it is pushed; the deadline stays
// because workers must return to their loop to run the termination
// protocol. A signalled popper that finds the queue empty again (another
// popper got there first) goes back to the end of the line with what is
// left of its timeout.
func (q *Queue) await(timeout time.Duration) bool {
	if len(q.items) > 0 || q.closed || timeout <= 0 {
		return len(q.items) > 0
	}
	ch := make(chan struct{}, 1)
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	for len(q.items) == 0 && !q.closed {
		q.waiters = append(q.waiters, ch)
		q.mu.Unlock()
		select {
		case <-ch:
			q.mu.Lock()
		case <-timer.C:
			q.mu.Lock()
			if i := slices.Index(q.waiters, ch); i >= 0 {
				q.waiters = slices.Delete(q.waiters, i, i+1)
			}
			return len(q.items) > 0
		}
	}
	return len(q.items) > 0
}

// take removes up to max head tasks under one lock hold and one
// synchronization cost. It blocks up to timeout for the first task and never
// waits for more. Each task taken off a bounded queue wakes one blocked
// pusher. Once the queue is closed it fails with the closed error.
func (q *Queue) take(max int, timeout time.Duration) ([]Task, error) {
	if max < 1 {
		max = 1
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	ok := q.await(timeout)
	if q.closed {
		return nil, errTransportClosed
	}
	if !ok {
		return nil, nil
	}
	platform.SpinWait(q.syncCost)
	n := min(max, len(q.items))
	out := slices.Clone(q.items[:n])
	q.items = q.items[n:]
	q.pops += int64(n)
	q.pushers = signal(q.pushers, n)
	return out, nil
}

// close wakes every blocked popper and pusher; from then on pushes and pops
// fail. It is idempotent.
func (q *Queue) close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.closed = true
	q.waiters = signal(q.waiters, len(q.waiters))
	q.pushers = signal(q.pushers, len(q.pushers))
}

// Len returns the current queue length.
func (q *Queue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.items)
}

// Ops reports total pushes and pops, for tests and diagnostics.
func (q *Queue) Ops() (pushes, pops int64) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.pushes, q.pops
}

// QueueTransport is the in-process transport. On a pool plan (dyn_multi,
// dyn_auto_multi) every worker pulls from one shared global queue; on a
// pinned plan (multi, mpi) every worker owns a bounded box of boxBound tasks
// with no modelled synchronization cost. A pool transport cannot address a
// pinned instance, and a pinned one has no shared pool — the paper's point
// that "traditional MPI lacks support for a queue-based system crucial for
// dynamic task assignments".
type QueueTransport struct {
	pool    *Queue   // the shared queue; nil on a pinned plan
	plan    Plan     // the pinned plan, which boxes follows
	boxes   []*Queue // per worker index
	pending atomic.Int64
}

// NewQueueTransport runs a pool plan over q.
func NewQueueTransport(q *Queue) *QueueTransport {
	return &QueueTransport{pool: q}
}

// NewPinnedTransport gives every worker of a fully pinned plan its own
// bounded box. It panics on a plan with pool workers, a planner programming
// error.
func NewPinnedTransport(plan Plan) *QueueTransport {
	if plan.Pool > 0 {
		panic(fmt.Sprintf("runtime: pinned transport for a plan with %d pool workers", plan.Pool))
	}
	t := &QueueTransport{plan: plan, boxes: make([]*Queue, len(plan.Workers))}
	for w := range t.boxes {
		t.boxes[w] = &Queue{bound: boxBound}
	}
	return t
}

// Push implements Transport. On a pinned plan each task waits for room in
// its box.
func (t *QueueTransport) Push(tasks ...Task) error {
	if t.pool == nil {
		return t.pushPinned(tasks)
	}
	for _, task := range tasks {
		if task.Instance >= 0 {
			return fmt.Errorf("runtime: queue transport cannot address pinned instance %s[%d]", task.PE, task.Instance)
		}
	}
	t.pending.Add(int64(len(tasks)))
	return t.pool.PushAll(tasks)
}

func (t *QueueTransport) pushPinned(tasks []Task) error {
	for i, task := range tasks {
		if task.Instance < 0 {
			return fmt.Errorf("runtime: pinned transport has no shared pool to route %s to", task.PE)
		}
		w, ok := t.plan.WorkerFor(task.PE, task.Instance)
		if !ok {
			return fmt.Errorf("runtime: no pinned worker for %s[%d]", task.PE, task.Instance)
		}
		t.pending.Add(1)
		if err := t.boxes[w].PushAll(tasks[i : i+1]); err != nil {
			return err
		}
	}
	return nil
}

// PushFenced implements Transport by admitting the gate, then pushing.
func (t *QueueTransport) PushFenced(gate state.TaskGate, _ int, tasks ...Task) (bool, error) {
	return pushAdmitted(gate, func() error { return t.Push(tasks...) })
}

// PullBatch implements Transport: one multi-dequeue pays one lock hold and
// one modeled synchronization cost for the whole window.
func (t *QueueTransport) PullBatch(w, max int, timeout time.Duration) ([]Env, error) {
	q := t.pool
	if q == nil {
		q = t.boxes[w]
	}
	tasks, err := q.take(max, timeout)
	if len(tasks) == 0 {
		return nil, err
	}
	envs := make([]Env, len(tasks))
	for i, task := range tasks {
		envs[i] = Env{Task: task}
	}
	return envs, nil
}

// Partition implements Transport: in process every pool worker already
// reaches the namespace directly, so no PE is owned.
func (t *QueueTransport) Partition(PartitionSpec) (*Partitions, error) { return nil, nil }

// Extend implements Transport: nothing reclaims an in-process delivery.
func (t *QueueTransport) Extend(int) error { return nil }

// Ack implements Transport: one atomic adjustment for the batch.
func (t *QueueTransport) Ack(_ int, envs ...Env) error {
	if len(envs) > 0 {
		t.pending.Add(-int64(len(envs)))
	}
	return nil
}

// Pending implements Transport.
func (t *QueueTransport) Pending() (int64, error) { return t.pending.Load(), nil }

// QueueDepths implements Transport: "queue" on a pool plan, one
// "box:<pe>:<i>" per pinned worker.
func (t *QueueTransport) QueueDepths() map[string]int64 {
	if t.pool != nil {
		return map[string]int64{"queue": int64(t.pool.Len())}
	}
	out := make(map[string]int64, len(t.boxes))
	for w, box := range t.boxes {
		spec := t.plan.Workers[w]
		out[fmt.Sprintf("box:%s:%d", spec.PE, spec.Instance)] = int64(box.Len())
	}
	return out
}

// Done implements Transport: blocked pushes and pulls return the closed
// error at once, and so does every later one.
func (t *QueueTransport) Done() error {
	if t.pool != nil {
		t.pool.close()
	}
	for _, box := range t.boxes {
		box.close()
	}
	return nil
}
