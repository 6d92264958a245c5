package runtime

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/mapping"
	"repro/internal/miniredis"
	"repro/internal/platform"
	"repro/internal/redisclient"
	"repro/internal/state"
)

// ownRun executes g on a Redis pool plan of procs workers over one embedded
// server, as dyn_redis does, and returns the transport for inspection.
// backend, when non-nil, holds the managed state instead of the run's own
// server.
func ownRun(t *testing.T, g *graph.Graph, procs int, backend state.Backend) (*RedisTransport, error) {
	t.Helper()
	srv, err := miniredis.StartTestServer()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	cluster, err := redisclient.NewCluster([]string{srv.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cluster.Close() })
	plan := PoolPlan(g, procs)
	keys := NewRunKeys(g.Name, 1)
	tr, err := NewRedisTransport(cluster, keys, plan, false)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Cleanup(g) })
	opts := mapping.Options{Processes: procs, Platform: platform.Platform{Name: "test", Cores: 4}, Seed: 1,
		ExactlyOnceState: true, StateBackend: backend}
	_, err = Execute(g, opts, Config{Name: "own_redis", Plan: plan, Transport: tr, Host: platform.NewHost(opts.Platform),
		NewStateBackend:  func() state.Backend { return state.NewRedisClusterBackend(cluster, keys.Prefix+":state") },
		AdaptiveBatching: true})
	return tr, err
}

// countGraph is gen → count over n values of ten keys, grouped by key: count
// hands each key to write, and shape adjusts the graph.
func countGraph(n int, write func(ctx *core.Context, key string) error, shape func(g *graph.Graph)) *graph.Graph {
	g := graph.New("owned")
	g.Add(func() core.PE {
		return core.NewSource("gen", func(ctx *core.Context) error {
			for i := 0; i < n; i++ {
				if err := ctx.EmitDefault(fmt.Sprintf("k%d", i%10)); err != nil {
					return err
				}
			}
			return nil
		})
	})
	g.Add(func() core.PE {
		return core.NewEach("count", func(ctx *core.Context, v any) error { return write(ctx, v.(string)) })
	}).SetKeyedState()
	g.Pipe("gen", "count").SetGrouping(graph.GroupByKey(func(v any) string { return v.(string) }))
	if shape != nil {
		shape(g)
	}
	return g
}

// TestOwnershipContract: a keyed-state PE behind group-by edges, whose state
// lives on the transport's own server, is owned; an op of an owned PE outside
// its task's partition fails the run, naming the PE and the key; and every
// other managed-state shape keeps the per-op backend path.
func TestOwnershipContract(t *testing.T) {
	add := func(ctx *core.Context, key string) error {
		_, err := ctx.State().AddInt(key, 1)
		return err
	}
	otherServer := func(t *testing.T) state.Backend {
		srv, err := miniredis.StartTestServer()
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		b, err := state.DialRedisClusterBackend([]string{srv.Addr()}, "elsewhere")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { b.Close() })
		return b
	}
	for _, tc := range []struct {
		name    string
		shape   func(g *graph.Graph)
		backend func(t *testing.T) state.Backend
		owned   bool
	}{
		{name: "keyed behind group-by", owned: true},
		{name: "keyed behind a shuffle edge", shape: func(g *graph.Graph) {
			g.InEdges("count")[0].SetGrouping(graph.Grouping{})
		}},
		{name: "singleton state", shape: func(g *graph.Graph) { g.Node("count").SetSingletonState() }},
		{name: "state on another server", backend: otherServer},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var backend state.Backend
			if tc.backend != nil {
				backend = tc.backend(t)
			}
			tr, err := ownRun(t, countGraph(200, add, tc.shape), 3, backend)
			if err != nil {
				t.Fatal(err)
			}
			if owned := len(tr.owned) == 1; owned != tc.owned {
				t.Fatalf("count owned = %v, want %v", owned, tc.owned)
			}
		})
	}

	t.Run("a key outside the task's partition", func(t *testing.T) {
		// The PE swallows the op's error: the run must fail anyway.
		stray := func(ctx *core.Context, key string) error {
			_, _ = ctx.State().AddInt(key+"/stray", 1)
			return nil
		}
		_, err := ownRun(t, countGraph(200, stray, nil), 2, nil)
		if err == nil {
			t.Fatal("the run succeeded with an owned PE writing outside its partition")
		}
		if msg := err.Error(); !strings.Contains(msg, "PE count") || !strings.Contains(msg, "/stray") {
			t.Fatalf("error %q names neither the PE nor the key", msg)
		}
	})
}

// TestGenerateHoldsNoLease: a worker commits and releases its leases before it
// runs a source's Generate. With one worker and two sources, the second
// Generate runs on a worker that took the leases since the first.
func TestGenerateHoldsNoLease(t *testing.T) {
	var mu sync.Mutex
	var tr *RedisTransport
	var held []int     // leases the worker held as each Generate began
	var earlier []bool // whether any partition had had a holder by then
	gen := func(name string) func() core.PE {
		return func() core.PE {
			return core.NewSource(name, func(ctx *core.Context) error {
				mu.Lock()
				ps := tr.owned[0]
				held = append(held, len(ps.Held(ctx.Instance())))
				used := false
				for p := range ps.used {
					used = used || ps.used[p].Load()
				}
				earlier = append(earlier, used)
				mu.Unlock()
				for i := 0; i < 40; i++ {
					if err := ctx.EmitDefault(fmt.Sprintf("%s-%d", name, i%5)); err != nil {
						return err
					}
				}
				return nil
			})
		}
	}
	g := graph.New("genlease")
	g.Add(gen("gen1"))
	g.Add(gen("gen2"))
	g.Add(func() core.PE {
		return core.NewSink("count", func(ctx *core.Context, v any) error {
			_, err := ctx.State().AddInt(v.(string), 1)
			return err
		})
	}).SetKeyedState()
	byKey := graph.GroupByKey(func(v any) string { return v.(string) })
	g.Pipe("gen1", "count").SetGrouping(byKey)
	g.Pipe("gen2", "count").SetGrouping(byKey)

	srv, err := miniredis.StartTestServer()
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cluster, err := redisclient.NewCluster([]string{srv.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	plan := PoolPlan(g, 1)
	keys := NewRunKeys(g.Name, 1)
	tr, err = NewRedisTransport(cluster, keys, plan, false)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Cleanup(g)
	opts := mapping.Options{Processes: 1, Platform: platform.Platform{Name: "test", Cores: 4}, Seed: 1, ExactlyOnceState: true}
	backend := state.NewRedisClusterBackend(cluster, keys.Prefix+":state")
	if _, err := Execute(g, opts, Config{Name: "own_redis", Plan: plan, Transport: tr, Host: platform.NewHost(opts.Platform),
		NewStateBackend: func() state.Backend { return backend }, AdaptiveBatching: true}); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(held) != 2 {
		t.Fatalf("%d Generate calls, want 2", len(held))
	}
	for i, n := range held {
		if n != 0 {
			t.Errorf("Generate %d began with %d leases held", i, n)
		}
	}
	if !earlier[1] {
		t.Error("no partition had a holder before the second Generate: the test exercised nothing")
	}
}

// TestOwnedCountsMatchSimple: an owned keyed count lands the same totals as
// the simple mapping, at every pool size the quota spreads leases over.
func TestOwnedCountsMatchSimple(t *testing.T) {
	for _, procs := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("%dprocs", procs), func(t *testing.T) {
			var mu sync.Mutex
			totals := map[string]int64{}
			add := func(ctx *core.Context, key string) error {
				n, err := ctx.State().AddInt(key, 1)
				mu.Lock()
				totals[key] = max(totals[key], n)
				mu.Unlock()
				return err
			}
			if _, err := ownRun(t, countGraph(1000, add, nil), procs, nil); err != nil {
				t.Fatal(err)
			}
			var got []string
			for k, n := range totals {
				got = append(got, fmt.Sprintf("%s=%d", k, n))
			}
			sort.Strings(got)
			want := "k0=100 k1=100 k2=100 k3=100 k4=100 k5=100 k6=100 k7=100 k8=100 k9=100"
			if strings.Join(got, " ") != want {
				t.Fatalf("running counts reached %v, want %s", got, want)
			}
		})
	}
}
