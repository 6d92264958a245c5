package runtime_test

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/autoscale"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/mapping"
	"repro/internal/platform"
	"repro/internal/runtime"
)

// idleRecorder reads the IdleMs signal and records every sample with the
// time it was taken; it never resizes the pool.
type idleRecorder struct {
	mu      sync.Mutex
	at      []time.Time
	samples []float64
}

func (*idleRecorder) Name() string                   { return "idle-recorder" }
func (*idleRecorder) Signal() autoscale.Signal       { return autoscale.IdleMs }
func (s *idleRecorder) Decide(ms float64, _ int) int { s.record(ms); return 0 }

func (s *idleRecorder) record(ms float64) {
	s.mu.Lock()
	s.at = append(s.at, time.Now())
	s.samples = append(s.samples, ms)
	s.mu.Unlock()
}

// starvedTransport is the in-process pool transport with every pull coming
// back empty, after its poll timeout, until open is closed. firstTask is the
// UnixNano time the first non-empty pull returned.
type starvedTransport struct {
	*runtime.QueueTransport
	open      chan struct{}
	firstTask atomic.Int64
}

func (s *starvedTransport) PullBatch(w, max int, timeout time.Duration) ([]runtime.Env, error) {
	select {
	case <-s.open:
	default:
		time.Sleep(timeout)
		return nil, nil
	}
	envs, err := s.QueueTransport.PullBatch(w, max, timeout)
	if len(envs) > 0 {
		s.firstTask.CompareAndSwap(0, time.Now().UnixNano())
	}
	return envs, err
}

// TestIdleSignalTracksLastPull: the IdleMs signal is the time since each
// admitted pool worker's last non-empty pull, stamped in the worker loop. A
// pool of two with one admitted worker (the default initial size) is
// starved for starve poll timeouts and must read at least that long idle;
// once it pulls a task it must read close to zero. The sink holds its
// delivery for hold poll timeouts, so the monitor samples the fresh pull
// before the run drains.
func TestIdleSignalTracksLastPull(t *testing.T) {
	const starve, hold, poll = 20, 4, 2 * time.Millisecond
	g := graph.New("idle-signal")
	g.Add(func() core.PE {
		return core.NewSource("gen", func(ctx *core.Context) error { return ctx.EmitDefault(1) })
	})
	g.Add(func() core.PE {
		return core.NewSink("sink", func(*core.Context, any) error { time.Sleep(hold * poll); return nil })
	})
	g.Pipe("gen", "sink")

	tr := &starvedTransport{QueueTransport: runtime.NewQueueTransport(runtime.NewQueue(0)), open: make(chan struct{})}
	rec := &idleRecorder{}
	opts := mapping.Options{Processes: 2, Platform: platform.Platform{Name: "test", Cores: 4}, Seed: 1, Strategy: rec}
	// The transport opens three polls past the bound: the last sample taken
	// before the pull can be a whole monitor tick (one poll) older than it.
	time.AfterFunc((starve+3)*poll, func() { close(tr.open) })
	if _, err := runtime.Execute(g, opts, runtime.Config{Name: "idle", Plan: runtime.PoolPlan(g, 2),
		Transport: tr, Host: platform.NewHost(opts.Platform), AutoScale: true}); err != nil {
		t.Fatal(err)
	}

	pulled := time.Unix(0, tr.firstTask.Load())
	rec.mu.Lock()
	defer rec.mu.Unlock()
	starved, fresh := 0.0, -1.0
	for i, at := range rec.at {
		ms := rec.samples[i]
		if at.Before(pulled) {
			starved = max(starved, ms)
		} else if fresh < 0 || ms < fresh {
			fresh = ms
		}
	}
	if want := float64(starve*poll) / float64(time.Millisecond); starved < want {
		t.Errorf("starved worker read %.2f ms idle, want at least %.0f ms", starved, want)
	}
	if limit := float64(5*poll) / float64(time.Millisecond); fresh < 0 || fresh > limit {
		t.Errorf("worker that just pulled read %.2f ms idle at least, want under %.0f ms (%d samples)", fresh, limit, len(rec.samples))
	}
}

// flakyPending is the in-process pool transport with every Pending() read
// failing while failing is set, as a Redis shard's GET does on a transient
// error.
type flakyPending struct {
	*runtime.QueueTransport
	failing atomic.Bool
	failed  atomic.Int64
}

func (f *flakyPending) Pending() (int64, error) {
	if f.failing.Load() {
		f.failed.Add(1)
		return 0, errors.New("shard unavailable")
	}
	return f.QueueTransport.Pending()
}

// TestFailedPendingReadKeepsLastSample: under the default strategy, refills
// and ticks both read Pending(). While those reads fail the signal repeats
// the last good read, so the pool is not sized to zero demand. The failures
// happen inside one sink call, whose delivery keeps the coordinator from
// checking for a drain until they stop.
func TestFailedPendingReadKeepsLastSample(t *testing.T) {
	const items, window = 40, 30 * time.Millisecond
	tr := &flakyPending{QueueTransport: runtime.NewQueueTransport(runtime.NewQueue(0))}
	trace := &autoscale.Trace{}
	var before, after atomic.Int64 // trace length when the failures start and stop
	g := graph.New("flaky-pending")
	g.Add(func() core.PE {
		return core.NewSource("gen", func(ctx *core.Context) error {
			for i := range items {
				if err := ctx.EmitDefault(i); err != nil {
					return err
				}
			}
			return nil
		})
	})
	g.Add(func() core.PE {
		return core.NewSink("sink", func(_ *core.Context, v any) error {
			if v.(int) == items/2 {
				before.Store(int64(len(trace.Points())))
				tr.failing.Store(true)
				time.Sleep(window)
				tr.failing.Store(false)
				after.Store(int64(len(trace.Points())))
			}
			time.Sleep(time.Millisecond)
			return nil
		})
	})
	g.Pipe("gen", "sink")

	opts := mapping.Options{Processes: 4, Platform: platform.Platform{Name: "test", Cores: 4}, Seed: 1, Trace: trace}
	if _, err := runtime.Execute(g, opts, runtime.Config{Name: "flaky", Plan: runtime.PoolPlan(g, 4),
		Transport: tr, Host: platform.NewHost(opts.Platform), AutoScale: true}); err != nil {
		t.Fatal(err)
	}
	if tr.failed.Load() == 0 {
		t.Fatal("no Pending() read failed during the window")
	}
	for _, p := range trace.Points()[before.Load():after.Load()] {
		if p.Metric == 0 {
			t.Fatalf("a failed read sampled no demand: trace point %+v", p)
		}
	}
}
