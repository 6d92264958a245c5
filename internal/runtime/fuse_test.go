package runtime_test

import (
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/diagnosis"
	"repro/internal/graph"
	"repro/internal/mapping"
	"repro/internal/metrics"
	"repro/internal/platform"
	"repro/internal/runtime"
	"repro/internal/telemetry"
)

// finalSink is a counting sink with a Final hook.
type finalSink struct {
	core.Base
	got *atomic.Int64
}

func (s *finalSink) Process(*core.Context, string, any) error { s.got.Add(1); return nil }
func (s *finalSink) Final(*core.Context) error                { return nil }

// fusionCase is one row of TestFusionRule: where it runs and the shape of
// the edge into dst.
type fusionCase struct {
	name    string
	mapping string // "" runs runPoolRedis
	procs   int
	n       int           // values generated
	cost    time.Duration // dst's service time per value
	pace    int           // gen pauses 1 ms before every pace-th value; 0 means 100
	direct  bool          // gen → dst instead of gen → mid → dst
	final   bool          // dst has a Final hook
	shape   func(g *graph.Graph, in *graph.Edge)
	fuses   bool
	owned   bool // mid rides leased partitions (the transport reports their depths)
}

// graph builds gen → mid → dst (or gen → dst) over tc.n integers. mid is a
// cheap map; dst counts every value it receives into got.
func (tc fusionCase) graph(got *atomic.Int64) *graph.Graph {
	g := graph.New("fusion")
	// gen is paced so that mid keeps running after the pool has measured
	// dst: generated all at once, every mid task would sit in the stream
	// ahead of every dst task, and nothing would be left to fuse.
	pace := tc.pace
	if pace == 0 {
		pace = 100
	}
	g.Add(func() core.PE {
		return core.NewSource("gen", func(ctx *core.Context) error {
			for i := 0; i < tc.n; i++ {
				if i%pace == 0 {
					time.Sleep(time.Millisecond)
				}
				if err := ctx.EmitDefault(i); err != nil {
					return err
				}
			}
			return nil
		})
	})
	if !tc.direct {
		g.Add(func() core.PE {
			return core.NewMap("mid", func(_ *core.Context, v any) (any, error) { return v.(int) + 1, nil })
		})
	}
	g.Add(func() core.PE {
		if tc.final {
			return &finalSink{Base: core.NewBase("dst", core.In(), nil), got: got}
		}
		return core.NewSink("dst", func(*core.Context, any) error {
			if tc.cost > 0 {
				time.Sleep(tc.cost)
			}
			got.Add(1)
			return nil
		})
	})
	var in *graph.Edge
	if tc.direct {
		in = g.Pipe("gen", "dst")
	} else {
		g.Pipe("gen", "mid")
		in = g.Pipe("mid", "dst")
	}
	if tc.shape != nil {
		tc.shape(g, in)
	}
	return g
}

// runPoolRedis executes g on a Redis pool plan with adaptive batching, as
// dyn_redis would, but without the mapping's workflow validation — so a
// shape dyn_redis rejects (a grouped edge into a stateless PE, a pooled
// field-stateful PE, a Final without managed state) can still show that the
// fusion rule, and not validation, keeps it unfused.
func runPoolRedis(t *testing.T, g *graph.Graph, opts mapping.Options) (metrics.Report, error) {
	t.Helper()
	plan := runtime.PoolPlan(g, opts.Processes)
	tr, err := runtime.NewRedisTransport(oneShardCluster(t), runtime.NewRunKeys(g.Name, opts.Seed), plan, false)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Cleanup(g)
	return runtime.Execute(g, opts, runtime.Config{Name: "pool_redis", Plan: plan, Transport: tr,
		Host: platform.NewHost(opts.Platform), AdaptiveBatching: true})
}

// TestFusionRule checks which edges fuse. Only a shuffle edge from a pooled
// non-source PE into a cheap pooled PE without state or Final fuses, and
// only under a planner whose adaptive sizers price a hop. Fused and
// delivered counts come from the workers' Fused counter, not from timing.
func TestFusionRule(t *testing.T) {
	const n = 3000
	for _, tc := range []fusionCase{
		{name: "shuffle into a cheap stateless PE", mapping: "dyn_redis", procs: 3, n: n, fuses: true},
		{name: "out of an owned keyed PE into a stateless sink", mapping: "dyn_redis", procs: 3, n: n, fuses: true, owned: true,
			shape: func(g *graph.Graph, _ *graph.Edge) {
				g.Node("mid").SetKeyedState()
				g.InEdges("mid")[0].SetGrouping(graph.GroupByKey(func(v any) string { return strconv.Itoa(v.(int) % 7) }))
			}},
		{name: "out of a source", mapping: "dyn_redis", procs: 3, n: n, direct: true},
		{name: "grouped edge", procs: 3, n: n, shape: func(_ *graph.Graph, in *graph.Edge) {
			in.SetGrouping(graph.GroupByKey(func(v any) string { return strconv.Itoa(v.(int) % 7) }))
		}},
		{name: "into a Stateful PE", procs: 3, n: n, shape: func(g *graph.Graph, _ *graph.Edge) {
			g.Node("dst").SetStateful(true)
		}},
		{name: "into a managed-state PE", mapping: "dyn_redis", procs: 3, n: n, shape: func(g *graph.Graph, _ *graph.Edge) {
			g.Node("dst").SetSingletonState()
		}},
		{name: "into a Final-bearing PE", procs: 3, n: n, final: true},
		{name: "from and into pinned instances", mapping: "hybrid_redis", procs: 4, n: n, shape: func(g *graph.Graph, _ *graph.Edge) {
			// hybrid_redis pins the field-stateful mid: gen → mid enters a
			// pinned instance and mid → dst leaves one.
			g.Node("mid").SetStateful(true)
		}},
		// A 2 ms PE under light load and paced near the pool's capacity, so
		// that mid keeps running after the workers have measured dst:
		// without the cost side, dst would fuse in both. A hop normally
		// prices far below 2 ms, but on a loaded host (the race detector,
		// parallel packages) a measured push can exceed 1 ms per task, and
		// then the rule rightly fuses dst: these rows assert that every
		// fusion was decided at a measured hop price above dst's cost.
		{name: "a 2 ms PE", mapping: "dyn_redis", procs: 3, n: 300, cost: 2 * time.Millisecond},
		{name: "a 2 ms PE at capacity", mapping: "dyn_redis", procs: 3, n: 300, cost: 2 * time.Millisecond, pace: 1},
		{name: "dyn_multi", mapping: "dyn_multi", procs: 3, n: n},
		{name: "dyn_auto_multi", mapping: "dyn_auto_multi", procs: 3, n: n},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var got atomic.Int64
			g := tc.graph(&got)
			reg := telemetry.New(telemetry.Config{TraceSampleEvery: -1})
			diag := diagnosis.New(diagnosis.Config{})
			opts := testOptions(t, tc.mapping, tc.procs)
			opts.Telemetry = reg
			opts.Diagnosis = diag
			var err error
			if tc.mapping == "" {
				_, err = runPoolRedis(t, g, opts)
			} else {
				m, merr := mapping.Get(tc.mapping)
				if merr != nil {
					t.Fatal(merr)
				}
				_, err = m.Execute(g, opts)
			}
			if err != nil {
				t.Fatal(err)
			}
			if got.Load() != int64(tc.n) {
				t.Fatalf("dst received %d values, want %d", got.Load(), tc.n)
			}
			snap := reg.Snapshot()
			fused := snap.Workers.Fused
			delivered := got.Load() - fused
			t.Logf("dst: %d fused, %d delivered", fused, delivered)
			owned := false
			for k := range snap.Gauges {
				owned = owned || strings.Contains(k, ":part:mid:")
			}
			if owned != tc.owned {
				t.Errorf("mid on leased partitions = %v, want %v (gauges %v)", owned, tc.owned, snap.Gauges)
			}
			if tc.fuses && (fused == 0 || delivered == 0) {
				t.Errorf("want a warm-up of delivered executions, then fused ones: %d fused, %d delivered", fused, delivered)
			}
			if tc.fuses || fused == 0 {
				return
			}
			if tc.cost == 0 {
				t.Fatalf("%d executions fused, want none", fused)
			}
			// A priced row fused: only a measured hop price above dst's
			// cost (which bounds its mean service time from below) allows
			// that.
			decisions := 0
			for _, ev := range diag.Journal.Events() {
				if ev.Kind != diagnosis.EvFuse || ev.PE != "dst" || !strings.HasPrefix(ev.Detail, "fused=true") {
					continue
				}
				decisions++
				if time.Duration(ev.N) <= tc.cost {
					t.Errorf("dst fused at a measured hop price of %v, not above its %v cost (%s)", time.Duration(ev.N), tc.cost, ev.Detail)
				}
			}
			if decisions == 0 {
				t.Errorf("%d executions fused with no journaled fusion decision", fused)
			}
		})
	}
}
