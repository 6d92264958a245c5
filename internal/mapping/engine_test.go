package mapping_test

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/autoscale"
	"repro/internal/core"
	"repro/internal/diagnosis"
	_ "repro/internal/dynamic" // register multi, mpi, dyn_multi, dyn_auto_multi
	"repro/internal/graph"
	"repro/internal/mapping"
	"repro/internal/metrics"
	"repro/internal/miniredis"
	"repro/internal/platform"
	_ "repro/internal/redismap" // register the four Redis mappings
	"repro/internal/runtime"
)

// sumCollector accumulates sink deliveries across instances/workers.
type sumCollector struct {
	mu    sync.Mutex
	sum   int64
	count int64
}

func (c *sumCollector) add(v int64) {
	c.mu.Lock()
	c.sum += v
	c.count++
	c.mu.Unlock()
}

// pipelineGraph builds gen(1..n) → square → sum with per-item service time.
func pipelineGraph(n int, work time.Duration, col *sumCollector) *graph.Graph {
	g := graph.New("pipeline")
	g.Add(func() core.PE {
		return core.NewSource("gen", func(ctx *core.Context) error {
			for i := 1; i <= n; i++ {
				if err := ctx.EmitDefault(i); err != nil {
					return err
				}
			}
			return nil
		})
	})
	g.Add(func() core.PE {
		return core.NewMap("square", func(ctx *core.Context, v any) (any, error) {
			ctx.Work(work)
			x := v.(int)
			return x * x, nil
		})
	})
	g.Add(func() core.PE {
		return core.NewSink("sum", func(ctx *core.Context, v any) error {
			col.add(int64(v.(int)))
			return nil
		})
	})
	g.Pipe("gen", "square")
	g.Pipe("square", "sum")
	return g
}

// wantSquareSum is sum of squares 1..n.
func wantSquareSum(n int) int64 {
	var s int64
	for i := 1; i <= n; i++ {
		s += int64(i * i)
	}
	return s
}

func testOpts(procs int) mapping.Options {
	return mapping.Options{
		Processes: procs,
		Platform:  platform.Platform{Name: "test", Cores: 4, QueueOpCost: 0},
		Seed:      42,
	}
}

func TestMappingsAgreeOnPipeline(t *testing.T) {
	const n = 40
	want := wantSquareSum(n)
	for _, name := range []string{"simple", "multi", "dyn_multi", "dyn_auto_multi"} {
		t.Run(name, func(t *testing.T) {
			m, err := mapping.Get(name)
			if err != nil {
				t.Fatal(err)
			}
			col := &sumCollector{}
			g := pipelineGraph(n, 0, col)
			rep, err := m.Execute(g, testOpts(4))
			if err != nil {
				t.Fatal(err)
			}
			if col.sum != want || col.count != n {
				t.Errorf("sum=%d count=%d want sum=%d count=%d", col.sum, col.count, want, n)
			}
			if rep.Tasks == 0 {
				t.Error("no tasks recorded")
			}
			if rep.Outputs != n {
				t.Errorf("outputs=%d want %d", rep.Outputs, n)
			}
			if rep.Runtime <= 0 || rep.ProcessTime <= 0 {
				t.Errorf("metrics: %+v", rep)
			}
		})
	}
}

// TestRegistryLookup checks that the two planner tables and simple register
// exactly the nine mappings.
func TestRegistryLookup(t *testing.T) {
	if _, err := mapping.Get("nope"); err == nil {
		t.Error("unknown mapping should error")
	}
	want := []string{"dyn_auto_multi", "dyn_auto_redis", "dyn_multi", "dyn_redis",
		"hybrid_auto_redis", "hybrid_redis", "mpi", "multi", "simple"}
	if got := mapping.Names(); !slices.Equal(got, want) {
		t.Errorf("registry has %v, want %v", got, want)
	}
}

func TestMultiRespectsGroupBy(t *testing.T) {
	// Keyed values must land on a consistent instance: a stateful counter
	// per instance, grouped by key, must see each key on exactly one
	// instance.
	type keyed struct {
		Key string
		Val int
	}
	var mu sync.Mutex
	perInstanceKeys := map[int]map[string]bool{}

	g := graph.New("grouped")
	g.Add(func() core.PE {
		return core.NewSource("gen", func(ctx *core.Context) error {
			keys := []string{"a", "b", "c", "d", "e"}
			for i := 0; i < 50; i++ {
				if err := ctx.EmitDefault(keyed{Key: keys[i%len(keys)], Val: i}); err != nil {
					return err
				}
			}
			return nil
		})
	})
	g.Add(func() core.PE {
		return core.NewSink("agg", func(ctx *core.Context, v any) error {
			mu.Lock()
			defer mu.Unlock()
			m, ok := perInstanceKeys[ctx.Instance()]
			if !ok {
				m = map[string]bool{}
				perInstanceKeys[ctx.Instance()] = m
			}
			m[v.(keyed).Key] = true
			return nil
		})
	}).SetInstances(3).SetStateful(true)
	g.Pipe("gen", "agg").SetGrouping(graph.GroupByKey(func(v any) string { return v.(keyed).Key }))

	m, err := mapping.Get("multi")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Execute(g, testOpts(4)); err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	for _, keys := range perInstanceKeys {
		for k := range keys {
			seen[k]++
		}
	}
	for k, n := range seen {
		if n != 1 {
			t.Errorf("key %q seen on %d instances, want exactly 1", k, n)
		}
	}
	if len(seen) != 5 {
		t.Errorf("keys seen: %v", seen)
	}
}

func TestMultiGlobalGroupingSingleInstance(t *testing.T) {
	var instances sync.Map
	g := graph.New("global")
	g.Add(func() core.PE {
		return core.NewSource("gen", func(ctx *core.Context) error {
			for i := 0; i < 20; i++ {
				if err := ctx.EmitDefault(i); err != nil {
					return err
				}
			}
			return nil
		})
	})
	g.Add(func() core.PE {
		return core.NewSink("one", func(ctx *core.Context, v any) error {
			instances.Store(ctx.Instance(), true)
			return nil
		})
	}).SetInstances(3).SetStateful(true)
	g.Pipe("gen", "one").SetGrouping(graph.GlobalGrouping())

	m, _ := mapping.Get("multi")
	if _, err := m.Execute(g, testOpts(4)); err != nil {
		t.Fatal(err)
	}
	var count int
	instances.Range(func(k, v any) bool { count++; return true })
	if count != 1 {
		t.Errorf("global grouping hit %d instances, want 1", count)
	}
}

func TestMultiOneToAllBroadcast(t *testing.T) {
	var got atomic.Int64
	g := graph.New("broadcast")
	g.Add(func() core.PE {
		return core.NewSource("gen", func(ctx *core.Context) error {
			for i := 0; i < 10; i++ {
				if err := ctx.EmitDefault(i); err != nil {
					return err
				}
			}
			return nil
		})
	})
	g.Add(func() core.PE {
		return core.NewSink("all", func(ctx *core.Context, v any) error {
			got.Add(1)
			return nil
		})
	}).SetInstances(3).SetStateful(true)
	g.Pipe("gen", "all").SetGrouping(graph.OneToAllGrouping())

	m, _ := mapping.Get("multi")
	if _, err := m.Execute(g, testOpts(4)); err != nil {
		t.Fatal(err)
	}
	if got.Load() != 30 {
		t.Errorf("broadcast deliveries=%d want 30 (10 values × 3 instances)", got.Load())
	}
}

func TestMultiFinalizersFlush(t *testing.T) {
	// A stateful counting PE with Final emitting its count into a sink.
	var mu sync.Mutex
	var finals []int

	g := graph.New("finals")
	g.Add(func() core.PE {
		return core.NewSource("gen", func(ctx *core.Context) error {
			for i := 0; i < 30; i++ {
				if err := ctx.EmitDefault(i); err != nil {
					return err
				}
			}
			return nil
		})
	})
	g.Add(func() core.PE { return newCountPE() }).SetInstances(2).SetStateful(true)
	g.Add(func() core.PE {
		return core.NewSink("collect", func(ctx *core.Context, v any) error {
			mu.Lock()
			finals = append(finals, v.(int))
			mu.Unlock()
			return nil
		})
	})
	g.Pipe("gen", "count")
	g.Pipe("count", "collect")

	m, _ := mapping.Get("multi")
	if _, err := m.Execute(g, testOpts(4)); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(finals) != 2 {
		t.Fatalf("finals: %v (want one per instance)", finals)
	}
	if finals[0]+finals[1] != 30 {
		t.Errorf("final counts %v should sum to 30", finals)
	}
}

// countPE counts inputs and emits the count at Final.
type countPE struct {
	core.Base
	n int
}

func newCountPE() *countPE {
	return &countPE{Base: core.NewBase("count", core.In(), core.Out())}
}

func (p *countPE) Process(ctx *core.Context, port string, v any) error {
	p.n++
	return nil
}

func (p *countPE) Final(ctx *core.Context) error {
	return ctx.EmitDefault(p.n)
}

func TestMultiInsufficientProcesses(t *testing.T) {
	col := &sumCollector{}
	g := pipelineGraph(5, 0, col)
	g.Node("square").SetInstances(10)
	m, _ := mapping.Get("multi")
	if _, err := m.Execute(g, testOpts(3)); err == nil {
		t.Fatal("expected insufficient-processes error")
	}
}

func TestDynamicRejectsStatefulAndGroupings(t *testing.T) {
	col := &sumCollector{}
	for _, name := range []string{"dyn_multi", "dyn_auto_multi"} {
		m, _ := mapping.Get(name)
		g := pipelineGraph(5, 0, col)
		g.Node("square").SetStateful(true)
		if _, err := m.Execute(g, testOpts(2)); err == nil || !strings.Contains(err.Error(), "stateful") {
			t.Errorf("%s: want stateful rejection, got %v", name, err)
		}
		g2 := pipelineGraph(5, 0, col)
		g2.OutEdges("gen")[0].SetGrouping(graph.GlobalGrouping())
		if _, err := m.Execute(g2, testOpts(2)); err == nil || !strings.Contains(err.Error(), "grouping") {
			t.Errorf("%s: want grouping rejection, got %v", name, err)
		}
	}
}

func TestDynamicErrorPropagates(t *testing.T) {
	g := graph.New("failing")
	g.Add(func() core.PE {
		return core.NewSource("gen", func(ctx *core.Context) error {
			for i := 0; i < 10; i++ {
				if err := ctx.EmitDefault(i); err != nil {
					return err
				}
			}
			return nil
		})
	})
	g.Add(func() core.PE {
		return core.NewSink("boom", func(ctx *core.Context, v any) error {
			if v.(int) == 7 {
				return errBoom
			}
			return nil
		})
	})
	g.Pipe("gen", "boom")
	m, _ := mapping.Get("dyn_multi")
	_, err := m.Execute(g, testOpts(3))
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("error not propagated: %v", err)
	}
}

var errBoom = &boomError{}

type boomError struct{}

func (*boomError) Error() string { return "boom at 7" }

func TestMultiErrorPropagates(t *testing.T) {
	g := graph.New("failing")
	g.Add(func() core.PE {
		return core.NewSource("gen", func(ctx *core.Context) error {
			return ctx.EmitDefault(1)
		})
	})
	g.Add(func() core.PE {
		return core.NewSink("boom", func(ctx *core.Context, v any) error { return errBoom })
	})
	g.Pipe("gen", "boom")
	m, _ := mapping.Get("multi")
	if _, err := m.Execute(g, testOpts(4)); err == nil {
		t.Fatal("error not propagated")
	}
}

func TestDynAutoTraceRecordsActivity(t *testing.T) {
	col := &sumCollector{}
	g := pipelineGraph(60, 2*time.Millisecond, col)
	trace := &autoscale.Trace{}
	opts := testOpts(6)
	opts.Trace = trace
	m, _ := mapping.Get("dyn_auto_multi")
	if _, err := m.Execute(g, opts); err != nil {
		t.Fatal(err)
	}
	pts := trace.Points()
	if len(pts) == 0 {
		t.Fatal("auto-scaler recorded no trace points")
	}
	for _, p := range pts {
		if p.Active < 1 || p.Active > 6 {
			t.Errorf("active size out of bounds: %+v", p)
		}
	}
}

// The paper's claim for auto-scaling, where the pool has idle capacity: a
// source paced at about a third of what 16 workers serve. An auto mapping
// upholds its fixed pool's runtime (at most 1.25×) while accruing at most
// 0.8× its process time, on the in-process queue and on Redis alike: the
// fixed pool keeps all 16 workers active for the whole run, the auto pool
// parks those it does not need. A batch that keeps every worker busy leaves
// nothing to cut, so it cannot show the claim. The pace leaves room on
// Redis, whose demand signal counts more tasks than are in service: paced
// at half, dyn_auto_redis accrues about 0.85× dyn_redis's process time. The
// negative control runs the auto mapping with a strategy that never shrinks
// the pool; the same predicate must reject it, or the test cannot tell a
// saving from none.
func TestDynAutoUsesFewerProcessTimeThanDyn(t *testing.T) {
	srv, err := miniredis.StartTestServer()
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	// 16 workers serve 16 ms tasks, 1,000 a second, and the source emits
	// one every 3 ms, about 330 a second.
	const items, service, gap = 200, 16 * time.Millisecond, 3 * time.Millisecond
	run := func(name string, strategy autoscale.Strategy) metrics.Report {
		var results atomic.Int64
		g := graph.New("paced")
		g.Add(func() core.PE {
			return core.NewSource("gen", func(ctx *core.Context) error {
				for i := 0; i < items; i++ {
					time.Sleep(gap)
					if err := ctx.EmitDefault(i); err != nil {
						return err
					}
				}
				return nil
			})
		})
		g.Add(func() core.PE {
			return core.NewSink("work", func(ctx *core.Context, _ any) error {
				ctx.Work(service)
				results.Add(1)
				return nil
			})
		})
		g.Pipe("gen", "work")
		m, err := mapping.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := m.Execute(g, mapping.Options{Processes: 16, Platform: platform.Platform{Name: "paced", Cores: 16}, Seed: 7,
			RedisAddrs: []string{srv.Addr()}, Strategy: strategy})
		if err != nil {
			t.Fatal(err)
		}
		if results.Load() != items {
			t.Fatalf("%s served %d of %d tasks", name, results.Load(), items)
		}
		return rep
	}
	// saves is the claim's predicate: "" when auto upholds fixed's runtime
	// and cuts its process time, else what it missed.
	saves := func(auto, fixed metrics.Report) string {
		switch {
		case auto.Runtime > fixed.Runtime*5/4:
			return fmt.Sprintf("runtime %v above 1.25x the fixed pool's %v", auto.Runtime, fixed.Runtime)
		case auto.ProcessTime > fixed.ProcessTime*4/5:
			return fmt.Sprintf("process time %v above 0.8x the fixed pool's %v", auto.ProcessTime, fixed.ProcessTime)
		}
		return ""
	}
	for _, pair := range []struct{ auto, fixed string }{
		{"dyn_auto_multi", "dyn_multi"},
		{"dyn_auto_redis", "dyn_redis"},
	} {
		t.Run(pair.auto, func(t *testing.T) {
			fixed, auto, control := run(pair.fixed, nil), run(pair.auto, nil), run(pair.auto, neverShrink{})
			for _, r := range []metrics.Report{fixed, auto, control} {
				t.Logf("%s: runtime %v process time %v", r.Mapping, r.Runtime, r.ProcessTime)
			}
			if miss := saves(auto, fixed); miss != "" {
				t.Errorf("%s: %s", pair.auto, miss)
			}
			if saves(control, fixed) == "" {
				t.Errorf("%s with a pool that never shrinks passed too: process time %v against %v", pair.auto, control.ProcessTime, fixed.ProcessTime)
			}
		})
	}
}

// neverShrink is a strategy that grows the pool to its maximum and keeps it
// there: the auto mappings' negative control.
type neverShrink struct{}

func (neverShrink) Name() string             { return "never-shrink" }
func (neverShrink) Signal() autoscale.Signal { return autoscale.Outstanding }
func (neverShrink) Decide(float64, int) int  { return 1 << 20 }

// TestPinnedStandbyOnlyWithoutPool pins down when a pinned worker stands by
// (stops accruing process time while its queue is empty): on the static
// mappings, whose plans have no pool, a downstream instance behind a slow
// source is idle for most of the run and costs little; on hybrid_redis the
// stateful instance is a dedicated process beside the pool and stays hot for
// the whole run, as in the paper. The source is busy throughout, so the
// static mappings read about a third of workers × runtime. A standby worker
// must be off the clock while it waits, not only between empty polls: at a
// 4 ms input gap, a 2 ms poll charged after each delivery would keep both
// idle instances half active.
func TestPinnedStandbyOnlyWithoutPool(t *testing.T) {
	srv, err := miniredis.StartTestServer()
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	const items = 10
	slowSource := func(gap time.Duration) *graph.Graph {
		g := graph.New("standby")
		g.Add(func() core.PE {
			return core.NewSource("gen", func(ctx *core.Context) error {
				for i := 0; i < items; i++ {
					time.Sleep(gap)
					if err := ctx.EmitDefault(i); err != nil {
						return err
					}
				}
				return nil
			})
		})
		g.Add(func() core.PE {
			return core.NewMap("count", func(ctx *core.Context, v any) (any, error) { return v, nil })
		}).SetInstances(1).SetStateful(true)
		g.Add(func() core.PE {
			return core.NewSink("sink", func(ctx *core.Context, v any) error { return nil })
		}).SetInstances(1)
		g.Pipe("gen", "count")
		g.Pipe("count", "sink")
		return g
	}
	// Three workers either way: gen, count and sink pinned on the static
	// mappings; count pinned beside a pool of two on hybrid_redis.
	const workers = 3
	for _, tc := range []struct {
		name    string
		standby bool
	}{{"multi", true}, {"mpi", true}, {"hybrid_redis", false}} {
		t.Run(tc.name, func(t *testing.T) {
			m, err := mapping.Get(tc.name)
			if err != nil {
				t.Fatal(err)
			}
			for _, gap := range []time.Duration{4 * time.Millisecond, 20 * time.Millisecond} {
				t.Run(gap.String(), func(t *testing.T) {
					opts := testOpts(workers)
					opts.RedisAddrs = []string{srv.Addr()}
					rep, err := m.Execute(slowSource(gap), opts)
					if err != nil {
						t.Fatal(err)
					}
					if rep.Outputs != items {
						t.Fatalf("outputs=%d want %d", rep.Outputs, items)
					}
					share := float64(rep.ProcessTime) / float64(workers*rep.Runtime)
					t.Logf("runtime %v process time %v: %.2f of %d workers x runtime", rep.Runtime, rep.ProcessTime, share, workers)
					if tc.standby && share > 0.4 {
						t.Errorf("process time is %.2f of workers x runtime; idle pinned workers should stand by", share)
					}
					if !tc.standby && share < 0.85 {
						t.Errorf("process time is %.2f of workers x runtime; the pinned stateful worker should stay hot", share)
					}
				})
			}
		})
	}
}

// Options.Strategy puts the paper's ±1 Algorithm 1 behind the same signal and
// the same admission by count.
func TestDynAutoRunsReferenceStrategy(t *testing.T) {
	const n = 60
	col := &sumCollector{}
	g := pipelineGraph(n, time.Millisecond, col)
	trace := &autoscale.Trace{}
	opts := testOpts(6)
	opts.Strategy = &autoscale.QueueSizeStrategy{Floor: 2}
	opts.Trace = trace
	m, _ := mapping.Get("dyn_auto_multi")
	if _, err := m.Execute(g, opts); err != nil {
		t.Fatal(err)
	}
	if col.sum != wantSquareSum(n) {
		t.Errorf("sum=%d want %d", col.sum, wantSquareSum(n))
	}
	pts := trace.Points()
	if len(pts) == 0 {
		t.Fatal("reference strategy recorded no trace points")
	}
	for _, p := range pts {
		if p.Active < 1 || p.Active > 6 {
			t.Errorf("active size out of bounds: %+v", p)
		}
	}
}

// A backlog saturates the pool and the drain leaves saturation again: both
// transitions are journaled, the resizes in between are not.
func TestDynAutoJournalsSaturation(t *testing.T) {
	col := &sumCollector{}
	g := pipelineGraph(120, time.Millisecond, col)
	diag := diagnosis.New(diagnosis.Config{})
	opts := testOpts(4)
	opts.Diagnosis = diag
	m, _ := mapping.Get("dyn_auto_multi")
	if _, err := m.Execute(g, opts); err != nil {
		t.Fatal(err)
	}
	var entered, left bool
	for _, ev := range diag.Journal.Events() {
		if ev.Kind != diagnosis.EvScale {
			continue
		}
		if !strings.HasSuffix(ev.Detail, " of 4") || !strings.Contains(ev.Detail, "4") {
			t.Errorf("scale event away from saturation: %+v", ev)
		}
		entered = entered || ev.N == 4
		left = left || ev.N < 4
	}
	if !entered || !left {
		t.Errorf("journal shows entered=%v left=%v saturation: %+v", entered, left, diag.Journal.Events())
	}
}

func TestQueueOpsAndLen(t *testing.T) {
	q := runtime.NewQueue(0)
	q.Push(runtime.Task{PE: "a"})
	q.Push(runtime.Task{PE: "b"})
	if q.Len() != 2 {
		t.Errorf("len=%d", q.Len())
	}
	// Taking tasks off the queue (FIFO order, the timeout of an empty take)
	// is the runtime's own suite's: TestQueueFIFO, TestQueuePopTimeoutBounds.
	pushes, pops := q.Ops()
	if pushes != 2 || pops != 0 {
		t.Errorf("ops: %d %d", pushes, pops)
	}
}

func TestSimpleDeterministicOutputs(t *testing.T) {
	run := func() int64 {
		col := &sumCollector{}
		g := pipelineGraph(25, 0, col)
		m, _ := mapping.Get("simple")
		if _, err := m.Execute(g, testOpts(1)); err != nil {
			t.Fatal(err)
		}
		return col.sum
	}
	if run() != run() {
		t.Error("simple mapping not deterministic")
	}
}
