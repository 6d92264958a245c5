package runtime_test

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/diagnosis"
	"repro/internal/graph"
	"repro/internal/mapping"
	"repro/internal/platform"
	"repro/internal/runtime"
)

// pendingCounter is the in-process pool transport with its Pending calls
// counted.
type pendingCounter struct {
	*runtime.QueueTransport
	calls atomic.Int64
}

func (p *pendingCounter) Pending() (int64, error) {
	p.calls.Add(1)
	return p.QueueTransport.Pending()
}

// TestDrainChecksWaitForIdlePool: while a source's Generate task runs
// nothing can drain, so the coordinator must not ask the transport for its
// pending count — the worker holding the task keeps it above zero. The
// source blocks for 20 poll timeouts; once it is released the run must still
// drain and deliver every value.
func TestDrainChecksWaitForIdlePool(t *testing.T) {
	const n, poll = 50, 2 * time.Millisecond
	started, release := make(chan struct{}), make(chan struct{})
	var got atomic.Int64
	g := graph.New("blocked-source")
	g.Add(func() core.PE {
		return core.NewSource("gen", func(ctx *core.Context) error {
			close(started)
			select {
			case <-release:
			case <-time.After(5 * time.Second):
				return errors.New("never released")
			}
			for i := 0; i < n; i++ {
				if err := ctx.EmitDefault(i); err != nil {
					return err
				}
			}
			return nil
		})
	})
	g.Add(func() core.PE {
		return core.NewSink("sink", func(*core.Context, any) error { got.Add(1); return nil })
	})
	g.Pipe("gen", "sink")

	tr := &pendingCounter{QueueTransport: runtime.NewQueueTransport(runtime.NewQueue(0))}
	opts := mapping.Options{Processes: 2, Platform: platform.Platform{Name: "test", Cores: 4}, Seed: 1}
	done := make(chan error, 1)
	go func() {
		_, err := runtime.Execute(g, opts, runtime.Config{Name: "counted", Plan: runtime.PoolPlan(g, 2),
			Transport: tr, Host: platform.NewHost(opts.Platform)})
		done <- err
	}()
	<-started
	// A check that read the busy count just before the source's pull may
	// still be on its way to the transport; let it land first.
	time.Sleep(2 * poll)
	before := tr.calls.Load()
	time.Sleep(20 * poll)
	during := tr.calls.Load() - before
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if during != 0 {
		t.Errorf("%d Pending calls in 20 poll timeouts while the source held its task, want 0", during)
	}
	if tr.calls.Load() == before {
		t.Error("the run drained without a single Pending call after the source was released")
	}
	if got.Load() != n {
		t.Errorf("sink saw %d of %d values", got.Load(), n)
	}
}

// executeWithin runs g under the named mapping and fails the test if the run
// has not returned within the deadline: a drain gate that counts a parked or
// failed worker as busy holds the run open forever.
func executeWithin(t *testing.T, name string, g *graph.Graph, opts mapping.Options) error {
	t.Helper()
	m, err := mapping.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := m.Execute(g, opts)
		done <- err
	}()
	select {
	case err := <-done:
		return err
	case <-time.After(20 * time.Second):
		t.Fatalf("%s: run still open after 20 s", name)
		return nil
	}
}

// TestDrainGateReleasesParkedWorkers: under dyn_auto_multi the pool shrinks
// as the backlog drains, so workers park at the autoscale gate while the
// others finish. A parked worker holds no delivery and must not be counted
// as busy: the run has to drain, and the parked workers leave on the
// controller's release.
func TestDrainGateReleasesParkedWorkers(t *testing.T) {
	const n = 200
	var got atomic.Int64
	g := graph.New("shrinking")
	g.Add(func() core.PE {
		return core.NewSource("gen", func(ctx *core.Context) error {
			for i := 0; i < n; i++ {
				if err := ctx.EmitDefault(i); err != nil {
					return err
				}
			}
			return nil
		})
	})
	g.Add(func() core.PE {
		return core.NewSink("sink", func(*core.Context, any) error {
			time.Sleep(200 * time.Microsecond)
			got.Add(1)
			return nil
		})
	})
	g.Pipe("gen", "sink")
	diag := diagnosis.New(diagnosis.Config{})
	opts := testOptions(t, "dyn_auto_multi", 4)
	opts.Diagnosis = diag
	if err := executeWithin(t, "dyn_auto_multi", g, opts); err != nil {
		t.Fatal(err)
	}
	if got.Load() != n {
		t.Fatalf("sink saw %d of %d values", got.Load(), n)
	}
	released := 0
	for _, ev := range diag.Journal.Events() {
		if ev.Kind == diagnosis.EvWorkerExit && ev.Detail == "idle_release" {
			released++
		}
	}
	if released == 0 {
		t.Fatal("no worker was parked when the run drained: the case went unexercised")
	}
}

// TestDrainGateSurfacesMidRunError: a PE fails while the source is still in
// Generate, so a worker holds a delivery for the whole run and the
// coordinator never gets to check the transport. The run must still end,
// with the PE's error.
func TestDrainGateSurfacesMidRunError(t *testing.T) {
	for _, name := range []string{"dyn_multi", "dyn_auto_multi", "dyn_redis"} {
		t.Run(name, func(t *testing.T) {
			g := graph.New("failing")
			g.Add(func() core.PE {
				return core.NewSource("gen", func(ctx *core.Context) error {
					for i := 0; i < 1_000_000; i++ {
						if err := ctx.EmitDefault(i); err != nil {
							return err
						}
						time.Sleep(10 * time.Microsecond)
					}
					return errors.New("source ran to the end: the failure did not stop the run")
				})
			})
			g.Add(func() core.PE {
				return core.NewSink("boom", func(ctx *core.Context, v any) error {
					if v.(int) == 100 {
						return fmt.Errorf("boom at %d", v)
					}
					return nil
				})
			})
			g.Pipe("gen", "boom")
			err := executeWithin(t, name, g, testOptions(t, name, 3))
			if err == nil || !strings.Contains(err.Error(), "boom at 100") {
				t.Fatalf("Execute returned %v, want the PE's error", err)
			}
		})
	}
}

// tornRead is the in-process pool transport with one Pending() read torn
// the way a per-shard sum read one shard at a time can be: the first pull
// that returns a task for pe is held until a Pending() call starts; that
// call waits until the pulling worker is back at PullBatch — the task's
// children pushed, the task acked, the worker idle — holding that pull and
// every later one, and then reads 0 with the children still queued.
type tornRead struct {
	*runtime.QueueTransport
	pe string

	stall, arm atomic.Bool
	w          int           // the worker whose pull was stalled
	stalled    chan struct{} // closed once that pull holds the task
	reading    chan struct{} // closed when the torn read starts
	back       chan struct{} // closed when worker w is back at PullBatch
	read       chan struct{} // closed when the torn read returns
	backOnce   sync.Once
}

func newTornRead(pe string) *tornRead {
	return &tornRead{QueueTransport: runtime.NewQueueTransport(runtime.NewQueue(0)), pe: pe,
		stalled: make(chan struct{}), reading: make(chan struct{}), back: make(chan struct{}), read: make(chan struct{})}
}

func (t *tornRead) PullBatch(w, max int, timeout time.Duration) ([]runtime.Env, error) {
	select {
	case <-t.reading:
		if w == t.w {
			t.backOnce.Do(func() { close(t.back) })
		}
		<-t.read
	default:
	}
	envs, err := t.QueueTransport.PullBatch(w, max, timeout)
	if len(envs) > 0 && envs[0].PE == t.pe && t.stall.CompareAndSwap(false, true) {
		t.w = w
		close(t.stalled)
		select {
		case <-t.reading:
		case <-time.After(5 * time.Second):
		}
	}
	return envs, err
}

func (t *tornRead) Pending() (int64, error) {
	select {
	case <-t.stalled:
		if t.arm.CompareAndSwap(false, true) {
			close(t.reading)
			select {
			case <-t.back:
			case <-time.After(5 * time.Second):
			}
			close(t.read)
			return 0, nil
		}
	default:
	}
	return t.QueueTransport.Pending()
}

// TestDrainRejectsTornPendingRead: a Pending() read that sums shards one at
// a time can miss a child pushed to a shard it already read while its
// parent is acked on one it reads later, and so return 0 with the child
// still queued. The pull that delivered the parent returned during that
// read, so the coordinator must not accept the zero: the run has to go on
// and deliver every value the parent emitted.
func TestDrainRejectsTornPendingRead(t *testing.T) {
	const n = 8
	var got atomic.Int64
	g := graph.New("torn-read")
	g.Add(func() core.PE {
		return core.NewSource("gen", func(ctx *core.Context) error { return ctx.EmitDefault(0) })
	})
	g.Add(func() core.PE {
		return core.NewEach("fan", func(ctx *core.Context, _ any) error {
			for i := range n {
				if err := ctx.EmitDefault(i); err != nil {
					return err
				}
			}
			return nil
		})
	})
	g.Add(func() core.PE {
		return core.NewSink("sink", func(*core.Context, any) error { got.Add(1); return nil })
	})
	g.Pipe("gen", "fan")
	g.Pipe("fan", "sink")

	tr := newTornRead("fan")
	opts := mapping.Options{Processes: 2, Platform: platform.Platform{Name: "test", Cores: 4}, Seed: 1}
	if _, err := runtime.Execute(g, opts, runtime.Config{Name: "torn", Plan: runtime.PoolPlan(g, 2),
		Transport: tr, Host: platform.NewHost(opts.Platform)}); err != nil {
		t.Fatal(err)
	}
	if !tr.arm.Load() {
		t.Fatal("no Pending read was torn: the case went unexercised")
	}
	if got.Load() != n {
		t.Fatalf("sink saw %d of %d values: the run ended on the torn read", got.Load(), n)
	}
}

// TestAwaitDrainWakesOnSignal: the drain check runs when it is woken, not
// only when its poll comes round. With a 10 s poll, a wake after busy falls
// to zero ends the wait with the drain, and a wake after the run failed ends
// it with the abort, each well inside the poll. Without a wake channel the
// poll alone still ends it.
func TestAwaitDrainWakesOnSignal(t *testing.T) {
	for _, tc := range []struct {
		name    string
		wake    bool
		poll    time.Duration
		fail    bool
		within  time.Duration
		wantErr string
	}{
		{name: "drained", wake: true, poll: 10 * time.Second, within: 100 * time.Millisecond},
		{name: "failed", wake: true, poll: 10 * time.Second, fail: true, within: 100 * time.Millisecond, wantErr: "runtime: run aborted"},
		{name: "poll", poll: 5 * time.Millisecond, within: time.Second},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var wake chan struct{}
			if tc.wake {
				wake = make(chan struct{}, 1)
			}
			var failed atomic.Bool
			var busy atomic.Int64
			busy.Store(1)
			tr := runtime.NewQueueTransport(runtime.NewQueue(0))
			done := make(chan error, 1)
			go func() { done <- runtime.AwaitDrain(tr, wake, tc.poll, &failed, &busy, new(atomic.Int64)) }()
			time.Sleep(20 * time.Millisecond) // the first check finds a worker busy
			select {
			case err := <-done:
				t.Fatalf("AwaitDrain returned %v while a worker was busy", err)
			default:
			}
			if tc.fail {
				failed.Store(true)
			} else {
				busy.Store(0)
			}
			if wake != nil {
				wake <- struct{}{}
			}
			select {
			case err := <-done:
				got := ""
				if err != nil {
					got = err.Error()
				}
				if got != tc.wantErr {
					t.Fatalf("AwaitDrain returned %q, want %q", got, tc.wantErr)
				}
			case <-time.After(tc.within):
				t.Fatalf("AwaitDrain still waiting %v after the change", tc.within)
			}
		})
	}
}
