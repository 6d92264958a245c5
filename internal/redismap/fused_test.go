package redismap_test

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/diagnosis"
	"repro/internal/faultinject"
	"repro/internal/graph"
	"repro/internal/mapping"
	"repro/internal/miniredis"
	"repro/internal/state"
	"repro/internal/telemetry"
)

// fanKeyedPE folds each item into keyed state and emits two derived items,
// so one execution makes two calls into a fused successor.
type fanKeyedPE struct{ core.Base }

func (p *fanKeyedPE) Process(ctx *core.Context, _ string, v any) error {
	it := v.(replayItem)
	if _, err := ctx.State().AddInt(it.Key, it.Val); err != nil {
		return err
	}
	if err := ctx.EmitDefault(replayItem{Key: it.Key, Val: it.Val}); err != nil {
		return err
	}
	return ctx.EmitDefault(replayItem{Key: it.Key + "'", Val: 10 * it.Val})
}

// fusedChainGraph builds gen → A → B → C → sink: A is keyed state and emits
// twice per item, B is a cheap stateless map (the fusable hop), C is a keyed
// aggregation whose Final flushes its totals to the sink.
func fusedChainGraph(items []replayItem, collect func(string)) *graph.Graph {
	key := graph.GroupByKey(func(v any) string { return v.(replayItem).Key })
	g := graph.New("fusedchain")
	g.Add(func() core.PE {
		return core.NewSource("gen", func(ctx *core.Context) error {
			for _, it := range items {
				// Paced, so A keeps running after the pool has measured B.
				time.Sleep(100 * time.Microsecond)
				if err := ctx.EmitDefault(it); err != nil {
					return err
				}
			}
			return nil
		})
	})
	g.Add(func() core.PE { return &fanKeyedPE{Base: core.NewBase("A", core.In(), core.Out())} }).SetKeyedState()
	g.Add(func() core.PE {
		return core.NewMap("B", func(_ *core.Context, v any) (any, error) {
			it := v.(replayItem)
			return replayItem{Key: it.Key, Val: it.Val + 1}, nil
		})
	})
	g.Add(func() core.PE {
		return &slowKeyedCountPE{Base: core.NewBase("C", core.In(), core.Out())}
	}).SetKeyedState()
	g.Add(func() core.PE {
		return core.NewSink("sink", func(_ *core.Context, v any) error {
			collect(v.(string))
			return nil
		})
	})
	g.Pipe("gen", "A").SetGrouping(key)
	g.Pipe("A", "B")
	g.Pipe("B", "C").SetGrouping(key)
	g.Pipe("C", "sink")
	return g
}

// TestFusedChainExactlyOnceUnderReplay checks that task identities do not
// depend on fusion. Run 1 executes keyed A → stateless B → keyed C on
// dyn_redis with a kill armed just after one of B's fused calls; the kill
// returns through A's emit and the run dies with C's totals partly applied.
// Run 2 resumes onto the surviving state and reruns the workflow from the
// source with another number of workers, so it executes much of what run 1
// ran fused through the transport instead (or the reverse), and only
// identities that are the same fused or delivered let C's fence drop every
// mutation run 1 applied. A and C fence by marks per partition, which hold
// only under run 1's partition count: run 2 must adopt the count its
// namespaces record, four partitions per run-1 worker, whether its own pool
// is larger or smaller. Its totals must equal an undisturbed sequential
// run's, and the fence must have dropped duplicates.
func TestFusedChainExactlyOnceUnderReplay(t *testing.T) {
	keys := []string{"alpha", "beta", "gamma", "delta", "epsilon"}
	items := make([]replayItem, 0, 400)
	for i := 0; i < cap(items); i++ {
		items = append(items, replayItem{Key: keys[i%len(keys)], Val: int64(i + 1)})
	}
	var want []string
	m, err := mapping.Get("simple")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Execute(fusedChainGraph(items, func(s string) { want = append(want, s) }),
		mapping.Options{Processes: 1, Platform: platformForTest(), Seed: 5}); err != nil {
		t.Fatal(err)
	}
	sort.Strings(want)
	if len(want) != 2*len(keys) {
		t.Fatalf("reference run: %v", want)
	}

	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("%dshard", shards), func(t *testing.T) {
			for _, procs := range [][2]int{{2, 6}, {6, 2}} {
				t.Run(fmt.Sprintf("%dto%dprocs", procs[0], procs[1]), func(t *testing.T) {
					addrs := make([]string, shards)
					for i := range addrs {
						srv, err := miniredis.StartTestServer()
						if err != nil {
							t.Fatal(err)
						}
						defer srv.Close()
						addrs[i] = srv.Addr()
					}
					backend, err := state.DialRedisClusterBackend(addrs, "fusedbk")
					if err != nil {
						t.Fatal(err)
					}
					defer backend.Close()
					m, err := mapping.Get("dyn_redis")
					if err != nil {
						t.Fatal(err)
					}
					var mu sync.Mutex
					var got []string
					collect := func(s string) {
						mu.Lock()
						got = append(got, s)
						mu.Unlock()
					}
					opts := mapping.Options{
						Processes:        procs[0],
						Platform:         platformForTest(),
						Seed:             5,
						RedisAddrs:       addrs,
						ExactlyOnceState: true,
						StateBackend:     backend,
					}

					// Run 1: killed after its 40th fused call.
					inj := faultinject.New(1).
						Schedule(faultinject.Fault{Probe: faultinject.ProbeFusedCall, Kind: faultinject.Kill, Hits: 40})
					faultinject.Arm(inj)
					t.Cleanup(faultinject.Disarm)
					if _, err := m.Execute(fusedChainGraph(items, collect), opts); !errors.Is(err, faultinject.ErrKill) {
						t.Fatalf("run 1 should die on the injected kill, got %v", err)
					}
					if n := inj.FiredCount(faultinject.ProbeFusedCall); n != 1 {
						t.Fatalf("fused-call fault fired %d times, want 1", n)
					}
					faultinject.Disarm()
					if len(got) != 0 {
						t.Fatalf("killed run flushed C's Final: %v", got)
					}

					// Run 2: resume on another pool, each of whose workers delivers B
					// until it has measured it.
					reg := telemetry.New(telemetry.Config{TraceSampleEvery: -1})
					diag := diagnosis.New(diagnosis.Config{})
					opts.Processes = procs[1]
					opts.StateResume = true
					opts.Telemetry = reg
					opts.Diagnosis = diag
					if _, err := m.Execute(fusedChainGraph(items, collect), opts); err != nil {
						t.Fatalf("resume run: %v", err)
					}
					sort.Strings(got)
					if strings.Join(got, ",") != strings.Join(want, ",") {
						t.Fatalf("C's totals after replay diverge:\n got %v\nwant %v", got, want)
					}
					adopted := map[string]int64{}
					for _, ev := range diag.Journal.Events() {
						if ev.Kind == diagnosis.EvPartition && strings.Contains(ev.Detail, "adopted") {
							adopted[ev.PE] = ev.N
						}
					}
					if want := int64(4 * procs[0]); adopted["A"] != want || adopted["C"] != want {
						t.Fatalf("run 2 adopted partition counts %v, want %d for A and C", adopted, want)
					}
					snap := reg.Snapshot()
					if snap.State == nil || snap.State.FenceDrops == 0 {
						t.Fatal("the replay dropped no duplicate mutation; run 1 left nothing to replay")
					}
					t.Logf("run 2: %d fence drops, %d of %d tasks fused", snap.State.FenceDrops, snap.Workers.Fused, snap.Workers.Tasks)
				})
			}
		})
	}
}
