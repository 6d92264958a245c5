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

// Queue is the dynamic global queue (formerly package dynamic's). Every
// operation holds the queue lock for the platform's synchronization cost, so
// contending workers serialize exactly as processes serialize on a
// multiprocessing.Queue — the overhead that makes total process time creep
// upward with larger active pools. PushAll pays that cost once per batch,
// which is what batched emission amortizes on the in-process path.
type Queue struct {
	mu       sync.Mutex
	items    []Task
	waiters  []chan struct{} // blocked poppers, oldest first; each has capacity 1
	syncCost time.Duration
	pushes   int64
	pops     int64
}

// NewQueue creates a queue with the given per-op synchronization cost.
func NewQueue(syncCost time.Duration) *Queue {
	return &Queue{syncCost: syncCost}
}

// Push appends a task and wakes one blocked popper.
func (q *Queue) Push(t Task) {
	q.mu.Lock()
	platform.SpinWait(q.syncCost)
	q.items = append(q.items, t)
	q.pushes++
	q.wake(1)
	q.mu.Unlock()
}

// PushAll appends a batch of tasks under one lock hold and one
// synchronization cost, preserving order, and wakes one blocked popper per
// task.
func (q *Queue) PushAll(ts []Task) {
	if len(ts) == 0 {
		return
	}
	q.mu.Lock()
	platform.SpinWait(q.syncCost)
	q.items = append(q.items, ts...)
	q.pushes += int64(len(ts))
	q.wake(len(ts))
	q.mu.Unlock()
}

// wake signals the min(n, waiters) longest-blocked poppers. Callers hold mu.
func (q *Queue) wake(n int) {
	n = min(n, len(q.waiters))
	for _, ch := range q.waiters[:n] {
		ch <- struct{}{}
	}
	q.waiters = slices.Delete(q.waiters, 0, n)
}

// await blocks until the queue is non-empty or timeout has passed, and
// reports which. Callers hold mu, and hold it again on return. A popper
// blocks on its own channel until a push signals it, so a task is picked up
// as soon as it is pushed; the deadline stays because workers must return to
// their loop to run the termination protocol. A signalled popper that finds
// the queue empty again (another popper got there first) goes back to the end
// of the line with what is left of its timeout.
func (q *Queue) await(timeout time.Duration) bool {
	if len(q.items) > 0 || timeout <= 0 {
		return len(q.items) > 0
	}
	ch := make(chan struct{}, 1)
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	for len(q.items) == 0 {
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
	return true
}

// Pop removes the head task, blocking up to timeout when the queue is
// empty. ok is false on timeout.
func (q *Queue) Pop(timeout time.Duration) (t Task, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if !q.await(timeout) {
		return Task{}, false
	}
	platform.SpinWait(q.syncCost)
	t = q.items[0]
	q.items = q.items[1:]
	q.pops++
	return t, true
}

// PopN removes up to max head tasks under one lock hold and one
// synchronization cost — the single-lock multi-dequeue that mirrors PushAll
// on the consume path. Like Pop it blocks up to timeout for the first task
// and never waits for more; a poison pill ends its batch (the pill is the
// last element returned) so sibling pool workers keep their pills visible.
func (q *Queue) PopN(max int, timeout time.Duration) []Task {
	if max < 1 {
		max = 1
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if !q.await(timeout) {
		return nil
	}
	platform.SpinWait(q.syncCost)
	n := max
	if n > len(q.items) {
		n = len(q.items)
	}
	out := make([]Task, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, q.items[i])
		if q.items[i].Poison {
			break
		}
	}
	q.items = q.items[len(out):]
	q.pops += int64(len(out))
	return out
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

// QueueTransport runs a dynamic pool over the in-process global queue. It
// supports pool routing only: every worker is interchangeable, so tasks
// addressed to a pinned instance are a planning error.
type QueueTransport struct {
	inProcess
	q      *Queue
	closed atomic.Bool
}

// NewQueueTransport wraps a Queue as a Transport.
func NewQueueTransport(q *Queue) *QueueTransport {
	return &QueueTransport{q: q}
}

// Push implements Transport.
func (t *QueueTransport) Push(tasks ...Task) error {
	for _, task := range tasks {
		if task.Instance >= 0 && !task.Poison {
			return fmt.Errorf("runtime: queue transport cannot address pinned instance %s[%d]", task.PE, task.Instance)
		}
		if !task.Poison {
			t.pending.Add(1)
		}
	}
	t.q.PushAll(tasks)
	return nil
}

// PushFenced implements Transport by admitting the gate, then pushing.
func (t *QueueTransport) PushFenced(gate state.TaskGate, _ int, tasks ...Task) (bool, error) {
	return pushAdmitted(gate, func() error { return t.Push(tasks...) })
}

// PullBatch implements Transport: one multi-dequeue pays one lock hold and
// one modeled synchronization cost for the whole window.
func (t *QueueTransport) PullBatch(w, max int, timeout time.Duration) ([]Env, error) {
	if t.closed.Load() {
		return nil, errTransportClosed
	}
	tasks := t.q.PopN(max, timeout)
	if len(tasks) == 0 {
		return nil, nil
	}
	envs := make([]Env, len(tasks))
	for i, task := range tasks {
		envs[i] = Env{Task: task}
	}
	return envs, nil
}

// QueueDepths implements Transport.
func (t *QueueTransport) QueueDepths() map[string]int64 {
	return map[string]int64{"queue": int64(t.q.Len())}
}

// Done implements Transport.
func (t *QueueTransport) Done() error {
	t.closed.Store(true)
	return nil
}
