package mapping_test

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/autoscale"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/mapping"
	"repro/internal/miniredis"
	_ "repro/internal/redismap" // register redis mappings
	"repro/internal/state"
)

// TestQuickAllMappingsAgreeOnRandomPipelines is the engine conformance
// property: for randomly-shaped stateless linear pipelines (random stage
// count, random per-stage affine transforms, random stream length), every
// mapping must deliver exactly the same multiset of values to the sink as
// the sequential reference.
func TestQuickAllMappingsAgreeOnRandomPipelines(t *testing.T) {
	srv, err := miniredis.StartTestServer()
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	type shape struct {
		Stages uint8
		Items  uint8
		MulRaw uint8
		AddRaw int8
	}

	build := func(s shape, sink func(int)) *graph.Graph {
		stages := int(s.Stages%4) + 1 // 1..4 transform stages
		items := int(s.Items%20) + 1  // 1..20 stream items
		mul := int(s.MulRaw%5) + 1
		add := int(s.AddRaw)
		g := graph.New("quickpipe")
		g.Add(func() core.PE {
			return core.NewSource("gen", func(ctx *core.Context) error {
				for i := 0; i < items; i++ {
					if err := ctx.EmitDefault(i); err != nil {
						return err
					}
				}
				return nil
			})
		})
		prev := "gen"
		for st := 0; st < stages; st++ {
			name := fmt.Sprintf("stage%d", st)
			g.Add(func() core.PE {
				return core.NewMap(name, func(ctx *core.Context, v any) (any, error) {
					return v.(int)*mul + add, nil
				})
			})
			g.Pipe(prev, name)
			prev = name
		}
		g.Add(func() core.PE {
			return core.NewSink("sink", func(ctx *core.Context, v any) error {
				sink(v.(int))
				return nil
			})
		})
		g.Pipe(prev, "sink")
		return g
	}

	runUnder := func(name string, strategy autoscale.Strategy, s shape) ([]int, error) {
		var mu sync.Mutex
		var got []int
		g := build(s, func(v int) {
			mu.Lock()
			got = append(got, v)
			mu.Unlock()
		})
		m, err := mapping.Get(name)
		if err != nil {
			return nil, err
		}
		// Up to 6 PEs (gen + 4 stages + sink): static mappings need one
		// process per instance.
		opts := testOpts(8)
		opts.Strategy = strategy
		if strings.Contains(name, "redis") {
			opts.RedisAddrs = []string{srv.Addr()}
		}
		if _, err := m.Execute(g, opts); err != nil {
			return nil, err
		}
		mu.Lock()
		defer mu.Unlock()
		sort.Ints(got)
		return got, nil
	}

	f := func(s shape) bool {
		want, err := runUnder("simple", nil, s)
		if err != nil {
			t.Logf("simple: %v", err)
			return false
		}
		// The paper's idle-time policy on the in-process pool: its signal is
		// the workers' own idle clocks, so it runs on every transport.
		idle := &autoscale.IdleTimeStrategy{Threshold: 4 * time.Millisecond}
		for _, run := range []struct {
			name     string
			strategy autoscale.Strategy
		}{
			{"multi", nil}, {"mpi", nil}, {"dyn_multi", nil}, {"dyn_auto_multi", idle},
			{"dyn_redis", nil}, {"dyn_auto_redis", nil}, {"hybrid_redis", nil}, {"hybrid_auto_redis", nil},
		} {
			name := run.name
			got, err := runUnder(name, run.strategy, s)
			if err != nil {
				t.Logf("%s: %v", name, err)
				return false
			}
			if len(got) != len(want) {
				t.Logf("%s: %d values want %d (shape %+v)", name, len(got), len(want), s)
				return false
			}
			for i := range want {
				if got[i] != want[i] {
					t.Logf("%s: value %d = %d want %d (shape %+v)", name, i, got[i], want[i], s)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

// keyedItem is the payload of the keyed stateful-aggregation conformance
// workflow (registered with codec so it survives the Redis transports).
type keyedItem struct {
	Key string
	Val int64
	// Crash makes the aggregator fail when it sees this item (the
	// kill-and-restore scenario).
	Crash bool
}

func init() { codec.Register(keyedItem{}) }

// keyedAggGraph builds gen → count(keyed managed state, aggInstances) →
// sink. gen emits items; count accumulates per-key totals via AddInt and
// flushes "key=total" lines from its engine-invoked Final; sink collects.
func keyedAggGraph(items []keyedItem, aggInstances int, collect func(string)) *graph.Graph {
	g := graph.New("keyedagg")
	g.Add(func() core.PE {
		return core.NewSource("gen", func(ctx *core.Context) error {
			for _, it := range items {
				if err := ctx.EmitDefault(it); err != nil {
					return err
				}
			}
			return nil
		})
	})
	g.Add(func() core.PE { return &keyedCountPE{Base: core.NewBase("count", core.In(), core.Out())} }).
		SetInstances(aggInstances).
		SetKeyedState()
	g.Add(func() core.PE {
		return core.NewSink("sink", func(ctx *core.Context, v any) error {
			collect(v.(string))
			return nil
		})
	})
	g.Pipe("gen", "count").SetGrouping(graph.GroupByKey(func(v any) string { return v.(keyedItem).Key }))
	g.Pipe("count", "sink")
	return g
}

// keyedCountPE is a managed keyed-state aggregator: no PE fields, all state
// in the store.
type keyedCountPE struct {
	core.Base
}

func (p *keyedCountPE) Process(ctx *core.Context, port string, v any) error {
	it := v.(keyedItem)
	if it.Crash {
		return fmt.Errorf("count: injected crash on key %s", it.Key)
	}
	_, err := ctx.State().AddInt(it.Key, it.Val)
	return err
}

func (p *keyedCountPE) Final(ctx *core.Context) error {
	entries, err := state.SortedEntries(ctx.State())
	if err != nil {
		return err
	}
	for _, e := range entries {
		if err := ctx.EmitDefault(e.Key + "=" + e.Value); err != nil {
			return err
		}
	}
	return nil
}

// keyedAggItems builds a deterministic stream touching several keys.
func keyedAggItems(n int) []keyedItem {
	keys := []string{"alpha", "beta", "gamma", "delta", "epsilon"}
	items := make([]keyedItem, 0, n)
	for i := 0; i < n; i++ {
		items = append(items, keyedItem{Key: keys[i%len(keys)], Val: int64(i + 1)})
	}
	return items
}

// TestKeyedStateConformanceAcrossMappings asserts the state-subsystem
// contract: a keyed stateful aggregation at instances > 1 produces identical
// totals under every mapping — the static ones (partitioned access), the
// hybrid (pinned instances), and the plain dynamic ones (shared atomic
// store), which reject unmanaged stateful workflows outright.
func TestKeyedStateConformanceAcrossMappings(t *testing.T) {
	srv, err := miniredis.StartTestServer()
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	items := keyedAggItems(60)
	run := func(name string, procs int) ([]string, error) {
		var mu sync.Mutex
		var got []string
		g := keyedAggGraph(items, 3, func(s string) {
			mu.Lock()
			got = append(got, s)
			mu.Unlock()
		})
		m, err := mapping.Get(name)
		if err != nil {
			return nil, err
		}
		opts := testOpts(procs)
		switch name {
		case "dyn_redis", "dyn_auto_redis", "hybrid_redis", "hybrid_auto_redis":
			opts.RedisAddrs = []string{srv.Addr()}
		}
		if _, err := m.Execute(g, opts); err != nil {
			return nil, err
		}
		mu.Lock()
		defer mu.Unlock()
		sort.Strings(got)
		return got, nil
	}

	want, err := run("simple", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != 5 {
		t.Fatalf("reference flush: %v", want)
	}
	for _, tc := range []struct {
		name  string
		procs int
	}{
		{"multi", 6}, // count at 3 instances: keyed scale-out in-process
		{"mpi", 6},   // managed state via the shared runtime finalization barrier
		{"dyn_multi", 4},
		{"dyn_auto_multi", 4},
		{"dyn_redis", 4},
		{"dyn_auto_redis", 4},
		{"hybrid_redis", 5}, // 3 pinned count instances + stateless pool
		{"hybrid_auto_redis", 5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := run(tc.name, tc.procs)
			if err != nil {
				t.Fatal(err)
			}
			if strings.Join(got, ",") != strings.Join(want, ",") {
				t.Errorf("totals diverge:\n got %v\nwant %v", got, want)
			}
		})
	}

	// The unmanaged equivalent must still be rejected by dynamic scheduling:
	// managed state is the enabler, not a general stateful free-for-all.
	gLegacy := keyedAggGraph(items, 3, func(string) {})
	gLegacy.Node("count").State = graph.StateNone
	m, _ := mapping.Get("dyn_multi")
	if _, err := m.Execute(gLegacy, testOpts(4)); err == nil {
		t.Error("dyn_multi accepted an unmanaged stateful grouped workflow")
	}
}

// TestKeyedStateKillAndRestore is the recovery scenario: a run crashes
// mid-stream, its managed state survives on an external backend, and a
// resumed run over the remaining items produces the same totals as one
// uninterrupted run — exercised against both backends. A resumed run
// continues from the live namespace the failed run kept: a stale checkpoint
// left in the namespace's slot must not be restored over it.
func TestKeyedStateKillAndRestore(t *testing.T) {
	srv, err := miniredis.StartTestServer()
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	items := keyedAggItems(40)
	half := len(items) / 2

	reference := func(t *testing.T) []string {
		var got []string
		g := keyedAggGraph(items, 1, func(s string) { got = append(got, s) })
		m, _ := mapping.Get("simple")
		if _, err := m.Execute(g, testOpts(1)); err != nil {
			t.Fatal(err)
		}
		sort.Strings(got)
		return got
	}

	runCase := func(t *testing.T, backend state.Backend) {
		want := reference(t)

		// Run 1: first half of the stream, then an injected crash. State
		// lands on the external backend; the failure keeps it there.
		crashing := append(append([]keyedItem(nil), items[:half]...), keyedItem{Key: "alpha", Crash: true})
		g1 := keyedAggGraph(crashing, 1, func(string) {})
		opts := testOpts(1)
		opts.StateBackend = backend
		m, _ := mapping.Get("simple")
		if _, err := m.Execute(g1, opts); err == nil {
			t.Fatal("crashing run reported success")
		}
		ns := state.Namespace("keyedagg", "count")
		live, err := backend.Open(ns)
		if err != nil {
			t.Fatal(err)
		}
		if snap, err := live.Snapshot(); err != nil || len(snap) == 0 {
			t.Fatalf("the failed run's live namespace did not survive the crash: %d entries, err=%v", len(snap), err)
		}
		// A stale checkpoint in the slot: resuming must not restore it.
		if err := backend.SaveCheckpoint(ns, state.Snapshot{}); err != nil {
			t.Fatal(err)
		}

		// Run 2: resume from the live namespace and feed the remaining items.
		var got []string
		g2 := keyedAggGraph(items[half:], 1, func(s string) { got = append(got, s) })
		opts2 := testOpts(1)
		opts2.StateBackend = backend
		opts2.StateResume = true
		if _, err := m.Execute(g2, opts2); err != nil {
			t.Fatal(err)
		}
		sort.Strings(got)
		if strings.Join(got, ",") != strings.Join(want, ",") {
			t.Errorf("resumed totals diverge:\n got %v\nwant %v", got, want)
		}
	}

	t.Run("memory", func(t *testing.T) {
		b := state.NewMemoryBackend()
		defer b.Close()
		runCase(t, b)
	})
	t.Run("redis", func(t *testing.T) {
		b, err := state.DialRedisClusterBackend([]string{srv.Addr()}, "recov")
		if err != nil {
			t.Fatal(err)
		}
		defer b.Close()
		runCase(t, b)
	})
}
