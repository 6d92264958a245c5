package redismap_test

import (
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/autoscale"
	"repro/internal/codec"
	"repro/internal/core"
	_ "repro/internal/dynamic" // register multi for conformance comparison
	"repro/internal/graph"
	"repro/internal/mapping"
	"repro/internal/miniredis"
	"repro/internal/platform"
	_ "repro/internal/redismap" // register redis mappings
)

func init() {
	codec.Register(keyed{})
}

type keyed struct {
	Key string
	Val int
}

func startRedis(t *testing.T) string {
	t.Helper()
	srv, err := miniredis.StartTestServer()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv.Addr()
}

func redisOpts(t *testing.T, procs int) mapping.Options {
	return mapping.Options{
		Processes:  procs,
		Platform:   platform.Platform{Name: "test", Cores: 4, QueueOpCost: 0},
		Seed:       11,
		RedisAddrs: []string{startRedis(t)},
	}
}

type collector struct {
	mu    sync.Mutex
	sum   int64
	count int64
}

func (c *collector) add(v int64) {
	c.mu.Lock()
	c.sum += v
	c.count++
	c.mu.Unlock()
}

func (c *collector) snapshot() (int64, int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sum, c.count
}

func pipelineGraph(n int, col *collector) *graph.Graph {
	g := graph.New("redispipe")
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
			return v.(int) * v.(int), nil
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

func wantSquareSum(n int) int64 {
	var s int64
	for i := 1; i <= n; i++ {
		s += int64(i * i)
	}
	return s
}

func TestDynRedisPipeline(t *testing.T) {
	for _, name := range []string{"dyn_redis", "dyn_auto_redis", "hybrid_redis"} {
		t.Run(name, func(t *testing.T) {
			const n = 30
			col := &collector{}
			g := pipelineGraph(n, col)
			m, err := mapping.Get(name)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := m.Execute(g, redisOpts(t, 4))
			if err != nil {
				t.Fatal(err)
			}
			sum, count := col.snapshot()
			if sum != wantSquareSum(n) || count != n {
				t.Errorf("sum=%d count=%d want sum=%d count=%d", sum, count, wantSquareSum(n), n)
			}
			if rep.Outputs != n || rep.Tasks == 0 {
				t.Errorf("report: %+v", rep)
			}
		})
	}
}

func TestDynRedisRequiresRedisAddrs(t *testing.T) {
	col := &collector{}
	g := pipelineGraph(5, col)
	m, _ := mapping.Get("dyn_redis")
	opts := mapping.Options{Processes: 2, Platform: platform.Server}
	if _, err := m.Execute(g, opts); err == nil || !strings.Contains(err.Error(), "RedisAddrs") {
		t.Fatalf("want RedisAddrs error, got %v", err)
	}
}

func TestDynRedisRejectsStateful(t *testing.T) {
	col := &collector{}
	g := pipelineGraph(5, col)
	g.Node("square").SetStateful(true)
	for _, name := range []string{"dyn_redis", "dyn_auto_redis"} {
		m, _ := mapping.Get(name)
		if _, err := m.Execute(g, redisOpts(t, 2)); err == nil || !strings.Contains(err.Error(), "stateful") {
			t.Errorf("%s: want stateful rejection, got %v", name, err)
		}
	}
}

// statefulCountPE counts per-key occurrences and flushes (key,count) pairs
// at Final.
type statefulCountPE struct {
	core.Base
	counts map[string]int
}

func newStatefulCount() core.PE {
	return &statefulCountPE{
		Base:   core.NewBase("kcount", core.In(), core.Out()),
		counts: map[string]int{},
	}
}

func (p *statefulCountPE) Process(ctx *core.Context, port string, v any) error {
	p.counts[v.(keyed).Key]++
	return nil
}

func (p *statefulCountPE) Final(ctx *core.Context) error {
	for k, n := range p.counts {
		if err := ctx.EmitDefault(keyed{Key: k, Val: n}); err != nil {
			return err
		}
	}
	return nil
}

// statefulGraph builds gen → kcount(group-by, 3 inst) → collect.
func statefulGraph(n int, results *sync.Map) *graph.Graph {
	g := graph.New("stateful")
	keys := []string{"alpha", "beta", "gamma", "delta", "epsilon"}
	g.Add(func() core.PE {
		return core.NewSource("gen", func(ctx *core.Context) error {
			for i := 0; i < n; i++ {
				if err := ctx.EmitDefault(keyed{Key: keys[i%len(keys)], Val: i}); err != nil {
					return err
				}
			}
			return nil
		})
	})
	g.Add(newStatefulCount).SetInstances(3).SetStateful(true)
	g.Add(func() core.PE {
		return core.NewSink("collect", func(ctx *core.Context, v any) error {
			kv := v.(keyed)
			if prev, loaded := results.LoadOrStore(kv.Key, kv.Val); loaded {
				results.Store(kv.Key, prev.(int)+kv.Val)
			}
			return nil
		})
	})
	g.Pipe("gen", "kcount").SetGrouping(graph.GroupByKey(func(v any) string { return v.(keyed).Key }))
	g.Pipe("kcount", "collect")
	return g
}

func TestHybridStatefulGroupByAndFinal(t *testing.T) {
	const n = 50
	var results sync.Map
	g := statefulGraph(n, &results)
	m, _ := mapping.Get("hybrid_redis")
	rep, err := m.Execute(g, redisOpts(t, 5)) // 3 stateful + 2 stateless
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	distinct := 0
	results.Range(func(k, v any) bool {
		total += v.(int)
		distinct++
		return true
	})
	if total != n {
		t.Errorf("aggregated count %d want %d", total, n)
	}
	if distinct != 5 {
		t.Errorf("distinct keys %d want 5", distinct)
	}
	if rep.Tasks == 0 {
		t.Error("no tasks recorded")
	}
}

func TestHybridAgreesWithMultiOnStatefulWorkflow(t *testing.T) {
	const n = 40
	var hybridRes, multiRes sync.Map
	hg := statefulGraph(n, &hybridRes)
	mg := statefulGraph(n, &multiRes)

	hm, _ := mapping.Get("hybrid_redis")
	if _, err := hm.Execute(hg, redisOpts(t, 5)); err != nil {
		t.Fatal(err)
	}
	mm, _ := mapping.Get("multi")
	if _, err := mm.Execute(mg, mapping.Options{
		Processes: 6, Platform: platform.Platform{Name: "test", Cores: 4}, Seed: 11,
	}); err != nil {
		t.Fatal(err)
	}
	hybridRes.Range(func(k, hv any) bool {
		mv, ok := multiRes.Load(k)
		if !ok || mv.(int) != hv.(int) {
			t.Errorf("key %v: hybrid=%v multi=%v", k, hv, mv)
		}
		return true
	})
}

func TestHybridMinimumProcesses(t *testing.T) {
	var results sync.Map
	g := statefulGraph(10, &results)
	m, _ := mapping.Get("hybrid_redis")
	// 3 stateful instances need at least 4 processes.
	if _, err := m.Execute(g, redisOpts(t, 3)); err == nil || !strings.Contains(err.Error(), "at least") {
		t.Fatalf("want minimum-processes error, got %v", err)
	}
}

func TestHybridRejectsStatefulSource(t *testing.T) {
	col := &collector{}
	g := pipelineGraph(5, col)
	g.Node("gen").SetStateful(true)
	m, _ := mapping.Get("hybrid_redis")
	if _, err := m.Execute(g, redisOpts(t, 4)); err == nil || !strings.Contains(err.Error(), "source") {
		t.Fatalf("want stateful-source rejection, got %v", err)
	}
}

// Both hybrid mappings reject a grouped edge into a stateless PE, each under
// its own name.
func TestHybridRejectsGroupedEdgeIntoStateless(t *testing.T) {
	for _, name := range []string{"hybrid_redis", "hybrid_auto_redis"} {
		g := pipelineGraph(5, &collector{})
		g.OutEdges("gen")[0].SetGrouping(graph.GlobalGrouping())
		m, _ := mapping.Get(name)
		_, err := m.Execute(g, redisOpts(t, 4))
		if err == nil || !strings.HasPrefix(err.Error(), name+":") || !strings.Contains(err.Error(), "stateless") {
			t.Errorf("want %s's grouped-into-stateless rejection, got %v", name, err)
		}
	}
}

func TestHybridGlobalGroupingSingleInstance(t *testing.T) {
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

	m, _ := mapping.Get("hybrid_redis")
	if _, err := m.Execute(g, redisOpts(t, 5)); err != nil {
		t.Fatal(err)
	}
	count := 0
	instances.Range(func(k, v any) bool { count++; return true })
	if count != 1 {
		t.Errorf("global grouping hit %d instances, want 1", count)
	}
}

func TestDynAutoRedisTrace(t *testing.T) {
	const n = 40
	col := &collector{}
	g := graph.New("traced")
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
		return core.NewMap("work", func(ctx *core.Context, v any) (any, error) {
			ctx.Work(2 * time.Millisecond)
			return v, nil
		})
	})
	g.Add(func() core.PE {
		return core.NewSink("sink", func(ctx *core.Context, v any) error {
			col.add(int64(v.(int)))
			return nil
		})
	})
	g.Pipe("gen", "work")
	g.Pipe("work", "sink")

	trace := &autoscale.Trace{}
	opts := redisOpts(t, 6)
	opts.Trace = trace
	m, _ := mapping.Get("dyn_auto_redis")
	if _, err := m.Execute(g, opts); err != nil {
		t.Fatal(err)
	}
	_, count := col.snapshot()
	if count != n {
		t.Errorf("sink saw %d values want %d", count, n)
	}
	if len(trace.Points()) == 0 {
		t.Error("no auto-scaler trace points recorded")
	}
}

func TestRedisErrorPropagates(t *testing.T) {
	g := graph.New("failing")
	g.Add(func() core.PE {
		return core.NewSource("gen", func(ctx *core.Context) error {
			for i := 0; i < 5; i++ {
				if err := ctx.EmitDefault(i); err != nil {
					return err
				}
			}
			return nil
		})
	})
	g.Add(func() core.PE {
		return core.NewSink("boom", func(ctx *core.Context, v any) error {
			if v.(int) == 3 {
				return errBoom{}
			}
			return nil
		})
	})
	g.Pipe("gen", "boom")
	for _, name := range []string{"dyn_redis", "hybrid_redis"} {
		m, _ := mapping.Get(name)
		if _, err := m.Execute(g, redisOpts(t, 3)); err == nil || !strings.Contains(err.Error(), "kaboom") {
			t.Errorf("%s: error not propagated: %v", name, err)
		}
	}
}

type errBoom struct{}

func (errBoom) Error() string { return "kaboom" }
