package runtime_test

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/diagnosis"
	_ "repro/internal/dynamic"
	"repro/internal/graph"
	"repro/internal/mapping"
	"repro/internal/miniredis"
	"repro/internal/platform"
	_ "repro/internal/redismap"
	"repro/internal/runtime"
	"repro/internal/telemetry"
)

// testOptions are the options of a small run under the named mapping; a
// Redis mapping gets a fresh embedded server.
func testOptions(t *testing.T, name string, processes int) mapping.Options {
	t.Helper()
	opts := mapping.Options{
		Processes: processes,
		Platform:  platform.Platform{Name: "test", Cores: 4},
		Seed:      1,
	}
	if strings.HasSuffix(name, "_redis") {
		srv, err := miniredis.StartTestServer()
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		opts.RedisAddrs = []string{srv.Addr()}
	}
	return opts
}

// TestPullBatchingPreservesDelivery runs a fan-out pipeline under the two
// batching configurations the planners choose — unbatched in process
// (dyn_multi) and adaptive emit and pull windows on Redis (dyn_redis) — and
// checks that exactly the expected values arrive: prefetching and pipelined
// acks must be invisible to workflow semantics, including the coordinator's
// Final flush.
func TestPullBatchingPreservesDelivery(t *testing.T) {
	const fanOut = 40
	for _, name := range []string{"dyn_multi", "dyn_redis"} {
		t.Run(name, func(t *testing.T) {
			var mu sync.Mutex
			sum := 0
			got := 0
			g := graph.New("pullbatch")
			g.Add(func() core.PE {
				return core.NewSource("gen", func(ctx *core.Context) error {
					for i := 1; i <= fanOut; i++ {
						if err := ctx.EmitDefault(i); err != nil {
							return err
						}
					}
					return nil
				})
			})
			g.Add(func() core.PE {
				return core.NewSink("sink", func(ctx *core.Context, v any) error {
					mu.Lock()
					sum += v.(int)
					got++
					mu.Unlock()
					return nil
				})
			})
			g.Pipe("gen", "sink")

			m, err := mapping.Get(name)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := m.Execute(g, testOptions(t, name, 4)); err != nil {
				t.Fatal(err)
			}
			mu.Lock()
			defer mu.Unlock()
			if want := fanOut * (fanOut + 1) / 2; got != fanOut || sum != want {
				t.Fatalf("sink saw %d values summing %d, want %d summing %d", got, sum, fanOut, want)
			}
		})
	}
}

// initEmitPE emits values from its Init hook and nothing else. With slow
// set, the first copy to run Init takes slowInit longer than the rest.
type initEmitPE struct {
	core.Base
	n    int
	slow *atomic.Bool
}

const slowInit = 30 * time.Millisecond

func (p *initEmitPE) Init(ctx *core.Context) error {
	if p.slow != nil && p.slow.CompareAndSwap(false, true) {
		time.Sleep(slowInit)
	}
	for i := 0; i < p.n; i++ {
		if err := ctx.EmitDefault(i); err != nil {
			return err
		}
	}
	return nil
}

func (p *initEmitPE) Process(ctx *core.Context, port string, v any) error { return nil }

// TestInitEmissionsSurviveBatching pins the batcher contract for Init
// hooks: emissions buffered during Init must be flushed before the worker
// starts pulling, or a held batch would be invisible to the pending count
// and silently dropped at termination. On dyn_redis the adaptive emit window
// doubles 1→2→4→8 over the first seven Init emissions, so the last three sit
// in the window when Init returns, and the emit pushers the workers started
// must all have exited when Execute returns. In the slow_init cases one
// pool worker's Init ends well after the others have drained the run: the
// run must wait for it, because a worker counts as busy until its Init
// emissions are flushed.
func TestInitEmissionsSurviveBatching(t *testing.T) {
	const emissions, workers = 10, 3
	for _, tc := range []struct {
		name, mapping string
		slow          bool
	}{
		{"multi", "multi", false},
		{"dyn_multi", "dyn_multi", false},
		{"dyn_redis", "dyn_redis", false},
		{"dyn_multi_slow_init", "dyn_multi", true},
		{"dyn_redis_slow_init", "dyn_redis", true},
	} {
		name := tc.mapping
		t.Run(tc.name, func(t *testing.T) {
			var mu sync.Mutex
			got := 0
			var slow *atomic.Bool
			if tc.slow {
				slow = new(atomic.Bool)
			}
			g := graph.New("initemit")
			g.Add(func() core.PE {
				return core.NewSource("gen", func(ctx *core.Context) error { return nil })
			})
			g.Add(func() core.PE {
				return &initEmitPE{Base: core.NewBase("mid", core.In(), core.Out()), n: emissions, slow: slow}
			})
			g.Add(func() core.PE {
				return core.NewSink("sink", func(ctx *core.Context, v any) error {
					mu.Lock()
					got++
					mu.Unlock()
					return nil
				})
			})
			g.Pipe("gen", "mid")
			g.Pipe("mid", "sink")

			m, err := mapping.Get(name)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := m.Execute(g, testOptions(t, name, workers)); err != nil {
				t.Fatal(err)
			}
			if left := runtime.PushersRunning(); left != 0 {
				t.Fatalf("%d emit pushers outlived Execute", left)
			}
			// multi runs one mid instance; the pool mappings run Init once
			// per worker copy. Either way every Init emission must arrive.
			want := emissions
			if name != "multi" {
				want = emissions * workers
			}
			mu.Lock()
			defer mu.Unlock()
			if got != want {
				t.Fatalf("sink saw %d init emissions, want %d (batch dropped)", got, want)
			}
		})
	}
}

// TestFailedRunExitsThroughOneError pins the worker loop's one exit on a
// failed run. With telemetry and diagnosis on, a sink fails on its only
// input: Execute returns the PE's error as "<mapping>: worker <process>: PE
// sink: …", exactly one worker — the sink's — journals worker_exit "error"
// and every other worker leaves the unwinding run with "abort", and the
// failed execution still counts in the sink's flow-ledger service time and
// records its span in the trace.
func TestFailedRunExitsThroughOneError(t *testing.T) {
	boom := errors.New("boom")
	for _, name := range []string{"dyn_multi", "multi", "dyn_redis"} {
		t.Run(name, func(t *testing.T) {
			g := graph.New("failsink")
			g.Add(func() core.PE {
				return core.NewSource("gen", func(ctx *core.Context) error { return ctx.EmitDefault(1) })
			})
			g.Add(func() core.PE {
				return core.NewSink("sink", func(ctx *core.Context, v any) error { return boom })
			})
			g.Pipe("gen", "sink")
			m, err := mapping.Get(name)
			if err != nil {
				t.Fatal(err)
			}
			reg := telemetry.New(telemetry.Config{TraceSampleEvery: 1})
			diag := diagnosis.New(diagnosis.Config{JournalRing: 1 << 12})
			opts := testOptions(t, name, 4)
			opts.Telemetry, opts.Diagnosis = reg, diag
			_, err = m.Execute(g, opts)
			if !errors.Is(err, boom) {
				t.Fatalf("Execute returned %v, want the sink's error", err)
			}
			if prefix := name + ": worker " + name + ":"; !strings.HasPrefix(err.Error(), prefix) ||
				!strings.HasSuffix(err.Error(), ": PE sink: boom") {
				t.Errorf("Execute returned %q, want %q<process>: PE sink: boom", err, prefix)
			}

			starts, exits := 0, map[string]int{}
			for _, e := range diag.Journal.Events() {
				switch e.Kind {
				case diagnosis.EvWorkerStart:
					starts++
				case diagnosis.EvWorkerExit:
					exits[e.Detail]++
				}
			}
			if starts < 2 || exits["error"] != 1 || exits["abort"] != starts-1 {
				t.Errorf("%d workers exited %v, want 1 error and %d abort", starts, exits, starts-1)
			}

			served := int64(0)
			for _, pe := range diag.Flow.Snapshot().PEs {
				if pe.PE == "sink" {
					served = pe.Service.Count
				}
			}
			if served != 1 {
				t.Errorf("sink flow row timed %d executions, want the failed one", served)
			}
			events, _ := reg.Tracer().Events()
			spans := 0
			for _, e := range events {
				if e.Kind == telemetry.KindExec && e.PE == "sink" {
					spans++
				}
			}
			if spans != 1 {
				t.Errorf("trace holds %d sink spans, want the failed execution's", spans)
			}
		})
	}
}

// TestLongGenerateRunsOnce: under stale recovery a source whose Generate
// keeps emitting for about 100 ms, past the 16 ms reclaim threshold, runs
// Generate once. Its emissions heartbeat the generate task's entry, so the
// idle worker's XAUTOCLAIM never reclaims it and runs it again. (A Generate
// that blocks that long without emitting is still reclaimed.)
func TestLongGenerateRunsOnce(t *testing.T) {
	const n = 100
	var gens, got atomic.Int64
	g := graph.New("longgen")
	g.Add(func() core.PE {
		return core.NewSource("gen", func(ctx *core.Context) error {
			if gens.Add(1) > 1 {
				return errors.New("Generate ran again: its generate task was reclaimed")
			}
			for i := 0; i < n; i++ {
				time.Sleep(time.Millisecond)
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
	opts := testOptions(t, "dyn_redis", 2)
	opts.RecoverStale = true
	start := time.Now()
	if err := executeWithin(t, "dyn_redis", g, opts); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took < 50*time.Millisecond {
		t.Fatalf("the run took %v: Generate did not outlast the reclaim threshold", took)
	}
	if k := gens.Load(); k != 1 || got.Load() != n {
		t.Fatalf("Generate ran %d times and the sink got %d values, want once and %d", k, got.Load(), n)
	}
}
