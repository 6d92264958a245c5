package runtime

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/state"
)

// RankLink is the point-to-point substrate the rank transport drives. It is
// implemented by internal/mpi.World; the indirection keeps this package free
// of an mpi dependency so the mpi mapping can import runtime.
type RankLink interface {
	// Send delivers data to rank dest.
	Send(from, dest, tag int, data any) error
	// RecvDataTimeout removes and returns the next payload queued for rank
	// me, waiting up to timeout when the mailbox is empty (ok false on
	// timeout).
	RecvDataTimeout(me int, timeout time.Duration) (any, bool, error)
	// QueueLen reports how many messages are queued for rank (the mailbox
	// depth gauge).
	QueueLen(rank int) int
	// Close aborts the link: blocked and subsequent operations fail.
	Close()
}

// RankTransport carries tasks between fixed ranks, one rank per pinned
// worker — the MPI mapping's discipline. There is no shared pool: the
// paper's point that "traditional MPI lacks support for a queue-based
// system crucial for dynamic task assignments" is encoded in the transport
// rejecting Instance < 0 routing.
type RankTransport struct {
	inProcess
	link   RankLink
	plan   Plan
	closed atomic.Bool
}

// NewRankTransport wraps a rank link. The plan must be fully pinned with one
// worker per rank (worker index == rank).
func NewRankTransport(link RankLink, plan Plan) (*RankTransport, error) {
	if plan.Pool > 0 {
		return nil, fmt.Errorf("runtime: rank transport supports pinned workers only (plan has %d pool workers)", plan.Pool)
	}
	return &RankTransport{link: link, plan: plan}, nil
}

// Push implements Transport.
func (t *RankTransport) Push(tasks ...Task) error {
	for _, task := range tasks {
		if task.Instance < 0 {
			return fmt.Errorf("runtime: rank transport has no shared pool to route %s to", task.PE)
		}
		rank, ok := t.plan.WorkerFor(task.PE, task.Instance)
		if !ok {
			return fmt.Errorf("runtime: no rank for %s[%d]", task.PE, task.Instance)
		}
		if !task.Poison {
			t.pending.Add(1)
		}
		// The transport routes by destination only (Push carries no sender
		// identity — the coordinator and run seeding have none), so the
		// envelope is self-addressed: Message.Source is the receiving rank,
		// and receivers must match with AnySource, as RecvDataTimeout does.
		if err := t.link.Send(rank, rank, 0, task); err != nil {
			return t.maybeClosed(err)
		}
	}
	return nil
}

// PushFenced implements Transport by admitting the gate, then pushing.
func (t *RankTransport) PushFenced(gate state.TaskGate, _ int, tasks ...Task) (bool, error) {
	return pushAdmitted(gate, func() error { return t.Push(tasks...) })
}

// PullBatch implements Transport: a bounded wait on the rank's mailbox for
// the first message, then zero-timeout drains of whatever is already queued
// — the buffered-draining consume path for per-rank mailboxes. A poison
// pill ends its batch.
func (t *RankTransport) PullBatch(w, max int, timeout time.Duration) ([]Env, error) {
	if max < 1 {
		max = 1
	}
	var envs []Env
	wait := timeout
	for len(envs) < max {
		data, ok, err := t.link.RecvDataTimeout(w, wait)
		if err != nil {
			return nil, t.maybeClosed(err)
		}
		if !ok {
			break
		}
		task, isTask := data.(Task)
		if !isTask {
			return nil, fmt.Errorf("runtime: rank %d received non-task payload %T", w, data)
		}
		envs = append(envs, Env{Task: task})
		if task.Poison {
			break
		}
		wait = 0 // only the first receive blocks
	}
	return envs, nil
}

// QueueDepths implements Transport: one "rank:<i>" mailbox length per
// worker.
func (t *RankTransport) QueueDepths() map[string]int64 {
	out := make(map[string]int64, len(t.plan.Workers))
	for w := range t.plan.Workers {
		out[fmt.Sprintf("rank:%d", w)] = int64(t.link.QueueLen(w))
	}
	return out
}

// Done implements Transport.
func (t *RankTransport) Done() error {
	if !t.closed.Swap(true) {
		t.link.Close()
	}
	return nil
}

func (t *RankTransport) maybeClosed(err error) error {
	if err != nil && t.closed.Load() {
		return errTransportClosed
	}
	return err
}
