package runtime

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/state"
)

// errTransportClosed reports an operation on a transport after Done. The
// worker loop treats it as a shutdown signal, not a workflow failure.
var errTransportClosed = errors.New("runtime: transport closed")

// IsClosed reports whether err is the transport-shutdown sentinel.
func IsClosed(err error) bool { return errors.Is(err, errTransportClosed) }

// ChanTransport carries tasks over in-process channels: one bounded channel
// per pinned worker (the multi mapping's per-instance input queue, with the
// same backpressure) plus one shared channel for pool routing.
type ChanTransport struct {
	inProcess
	plan   Plan
	boxes  []chan Task // per worker index; nil for pool workers
	shared chan Task
	closed chan struct{}
	once   sync.Once
}

// NewChanTransport builds channels for the plan. buffer is the per-channel
// capacity (the classic 256-slot instance queue when 0).
func NewChanTransport(plan Plan, buffer int) *ChanTransport {
	if buffer <= 0 {
		buffer = 256
	}
	t := &ChanTransport{
		plan:   plan,
		boxes:  make([]chan Task, len(plan.Workers)),
		shared: make(chan Task, buffer),
		closed: make(chan struct{}),
	}
	for w, spec := range plan.Workers {
		if spec.Pinned() {
			t.boxes[w] = make(chan Task, buffer)
		}
	}
	return t
}

// Push implements Transport. Sends block when the destination buffer is full
// (backpressure) and abandon on shutdown to avoid deadlocking a failed run.
func (t *ChanTransport) Push(tasks ...Task) error {
	for _, task := range tasks {
		dst := t.shared
		if task.Instance >= 0 {
			w, ok := t.plan.WorkerFor(task.PE, task.Instance)
			if !ok {
				return fmt.Errorf("runtime: no pinned worker for %s[%d]", task.PE, task.Instance)
			}
			dst = t.boxes[w]
		}
		if !task.Poison {
			t.pending.Add(1)
		}
		select {
		case dst <- task:
		case <-t.closed:
			return errTransportClosed
		}
	}
	return nil
}

// PushFenced implements Transport by admitting the gate, then pushing.
func (t *ChanTransport) PushFenced(gate state.TaskGate, _ int, tasks ...Task) (bool, error) {
	return pushAdmitted(gate, func() error { return t.Push(tasks...) })
}

// PullBatch implements Transport: a blocking wait for the first task, then
// buffered draining — whatever is already queued joins the batch without
// further blocking. A poison pill ends its batch so sibling pool workers
// keep their pills visible.
func (t *ChanTransport) PullBatch(w, max int, timeout time.Duration) ([]Env, error) {
	if max < 1 {
		max = 1
	}
	src := t.shared
	if box := t.boxes[w]; box != nil {
		src = box
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	var envs []Env
	select {
	case task := <-src:
		envs = append(envs, Env{Task: task})
		if task.Poison {
			return envs, nil
		}
	case <-timer.C:
		return nil, nil
	case <-t.closed:
		return nil, errTransportClosed
	}
	for len(envs) < max {
		select {
		case task := <-src:
			envs = append(envs, Env{Task: task})
			if task.Poison {
				return envs, nil
			}
		default:
			return envs, nil
		}
	}
	return envs, nil
}

// QueueDepths implements Transport: the shared pool channel's occupancy
// plus one "box:<pe>:<i>" entry per pinned instance channel.
func (t *ChanTransport) QueueDepths() map[string]int64 {
	out := map[string]int64{"shared": int64(len(t.shared))}
	for w, box := range t.boxes {
		if box == nil {
			continue
		}
		spec := t.plan.Workers[w]
		out[fmt.Sprintf("box:%s:%d", spec.PE, spec.Instance)] = int64(len(box))
	}
	return out
}

// Done implements Transport.
func (t *ChanTransport) Done() error {
	t.once.Do(func() { close(t.closed) })
	return nil
}
