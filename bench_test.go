// Package repro's root benchmarks regenerate every table and figure of the
// paper's evaluation at a reduced (quick) scale suitable for `go test
// -bench=.`, plus ablation benches for the design choices DESIGN.md calls
// out. The paper-scale regeneration lives in cmd/d4pbench; these benches
// exist so `go test -bench=. -benchmem ./...` exercises the complete
// experiment matrix end to end and reports the headline metrics.
package repro

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/autoscale"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/diagnosis"
	_ "repro/internal/dynamic"
	"repro/internal/graph"
	"repro/internal/harness"
	"repro/internal/mapping"
	"repro/internal/metrics"
	"repro/internal/miniredis"
	"repro/internal/platform"
	_ "repro/internal/redismap"
	"repro/internal/state"
	"repro/internal/telemetry"
	"repro/internal/workflows/galaxy"
	"repro/internal/workflows/sentiment"
)

// benchScale shrinks further than QuickScale for per-iteration cost.
func benchScale() harness.Scale {
	s := harness.QuickScale()
	return s
}

// runPanels executes experiments and reports the pooled ratio table when a
// pair is given.
func runPanels(b *testing.B, exps []harness.Experiment, pair *harness.TablePair) {
	b.Helper()
	r := &harness.Runner{}
	defer r.Close()
	for i := 0; i < b.N; i++ {
		var panels [][]metrics.Series
		for _, e := range exps {
			series, err := r.RunExperiment(e)
			if err != nil {
				b.Fatal(err)
			}
			panels = append(panels, series)
		}
		if pair != nil {
			tables := harness.BuildTables(exps[0].Platform.Name, []harness.TablePair{*pair}, panels)
			if len(tables) == 1 {
				b.ReportMetric(tables[0].RuntimeMean, "rt-ratio-mean")
				b.ReportMetric(tables[0].ProcessTimeMean, "pt-ratio-mean")
			}
		}
	}
}

// BenchmarkFig08GalaxyServer regenerates Figure 8 (galaxy on the 16-core
// server, all six techniques).
func BenchmarkFig08GalaxyServer(b *testing.B) {
	runPanels(b, harness.Fig8(benchScale())[:1], nil)
}

// BenchmarkFig09GalaxyCloud regenerates Figure 9 (galaxy on the 8-core
// cloud).
func BenchmarkFig09GalaxyCloud(b *testing.B) {
	runPanels(b, harness.Fig9(benchScale())[:1], nil)
}

// BenchmarkFig10GalaxyHPC regenerates Figure 10 (galaxy on the 64-core HPC,
// multi family only).
func BenchmarkFig10GalaxyHPC(b *testing.B) {
	runPanels(b, harness.Fig10(benchScale())[:1], nil)
}

// BenchmarkFig11SeismicServer regenerates Figure 11a (seismic on server).
func BenchmarkFig11SeismicServer(b *testing.B) {
	runPanels(b, harness.Fig11(benchScale())[:1], nil)
}

// BenchmarkFig11SeismicCloud regenerates Figure 11b (seismic on cloud).
func BenchmarkFig11SeismicCloud(b *testing.B) {
	runPanels(b, harness.Fig11(benchScale())[1:2], nil)
}

// BenchmarkFig11SeismicHPC regenerates Figure 11c (seismic on HPC).
func BenchmarkFig11SeismicHPC(b *testing.B) {
	runPanels(b, harness.Fig11(benchScale())[2:], nil)
}

// BenchmarkFig12SentimentServer regenerates Figure 12a (stateful sentiment,
// multi vs hybrid_redis on server) and reports the hybrid/multi ratios
// (Table 3's content).
func BenchmarkFig12SentimentServer(b *testing.B) {
	pair := harness.Table3Pairs[0]
	runPanels(b, harness.Fig12(benchScale())[:1], &pair)
}

// BenchmarkFig12SentimentCloud regenerates Figure 12b (cloud).
func BenchmarkFig12SentimentCloud(b *testing.B) {
	pair := harness.Table3Pairs[0]
	runPanels(b, harness.Fig12(benchScale())[1:], &pair)
}

// BenchmarkFig13Traces regenerates the Figure 13 auto-scaler traces.
func BenchmarkFig13Traces(b *testing.B) {
	r := &harness.Runner{}
	defer r.Close()
	exps := harness.Fig13(benchScale())
	for i := 0; i < b.N; i++ {
		var points int
		for _, e := range exps {
			trace, _, err := r.RunTrace(e)
			if err != nil {
				b.Fatal(err)
			}
			points += len(trace.Points())
		}
		b.ReportMetric(float64(points), "trace-points")
	}
}

// BenchmarkTable1GalaxyRatios computes Table 1 (auto-scaling vs dynamic
// scheduling on the galaxy workflow, server platform).
func BenchmarkTable1GalaxyRatios(b *testing.B) {
	pair := harness.Table1Pairs[0]
	runPanels(b, harness.Fig8(benchScale())[:1], &pair)
}

// BenchmarkTable2SeismicRatios computes Table 2 (the same comparisons on
// the seismic workflow).
func BenchmarkTable2SeismicRatios(b *testing.B) {
	pair := harness.Table1Pairs[0]
	runPanels(b, harness.Fig11(benchScale())[:1], &pair)
}

// BenchmarkTable3SentimentRatios computes Table 3 (hybrid_redis vs multi on
// the sentiment workflow).
func BenchmarkTable3SentimentRatios(b *testing.B) {
	pair := harness.Table3Pairs[0]
	runPanels(b, harness.Fig12(benchScale())[:1], &pair)
}

// --- Ablations ---------------------------------------------------------------

// BenchmarkAblationHybridVsMulti contrasts the two stateful-capable
// mappings head to head at the paper's shared sweep point.
func BenchmarkAblationHybridVsMulti(b *testing.B) {
	srv, err := miniredis.StartTestServer()
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	for _, tech := range []string{"multi", "hybrid_redis"} {
		b.Run(tech, func(b *testing.B) {
			m, err := mapping.Get(tech)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				g := sentiment.New(sentiment.Config{Articles: 40})
				rep, err := m.Execute(g, mapping.Options{
					Processes: sentiment.MinMultiProcesses, Platform: platform.Server,
					Seed: 1, RedisAddrs: []string{srv.Addr()},
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(rep.Runtime.Seconds(), "runtime-s")
			}
		})
	}
}

// BenchmarkAblationStrategy contrasts the paper's naive ±1 queue-size
// strategy (Algorithm 1, kept as the reference) with the mapping's default,
// which sizes the pool to the outstanding tasks in one step, on a bursty
// workload where ±1 inertia costs runtime.
func BenchmarkAblationStrategy(b *testing.B) {
	strategies := map[string]func() autoscale.Strategy{
		"naive":  func() autoscale.Strategy { return &autoscale.QueueSizeStrategy{Floor: 2} },
		"demand": func() autoscale.Strategy { return nil }, // mapping default
	}
	for name, newStrategy := range strategies {
		b.Run(name, func(b *testing.B) {
			m, err := mapping.Get("dyn_auto_multi")
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				g := galaxy.New(galaxy.Config{Galaxies: 60})
				rep, err := m.Execute(g, mapping.Options{
					Processes: 16, Platform: platform.Server, Seed: 1, Strategy: newStrategy(),
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(rep.Runtime.Seconds(), "runtime-s")
				b.ReportMetric(rep.ProcessTime.Seconds(), "proctime-s")
			}
		})
	}
}

// BenchmarkAblationHybridAutoScaling measures the future-work extension:
// hybrid_redis with and without auto-scaling of its stateless pool.
func BenchmarkAblationHybridAutoScaling(b *testing.B) {
	srv, err := miniredis.StartTestServer()
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	for _, tech := range []string{"hybrid_redis", "hybrid_auto_redis"} {
		b.Run(tech, func(b *testing.B) {
			m, err := mapping.Get(tech)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				g := sentiment.New(sentiment.Config{Articles: 40})
				rep, err := m.Execute(g, mapping.Options{
					Processes: 14, Platform: platform.Server, Seed: 1, RedisAddrs: []string{srv.Addr()},
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(rep.Runtime.Seconds(), "runtime-s")
				b.ReportMetric(rep.ProcessTime.Seconds(), "proctime-s")
			}
		})
	}
}

// BenchmarkAblationRedisCost sweeps the embedded server's per-command
// service delay, quantifying how Redis weight drives the multi/Redis gap
// the paper attributes to Redis being "more resource-intensive".
func BenchmarkAblationRedisCost(b *testing.B) {
	for _, delay := range []time.Duration{0, 100 * time.Microsecond, 500 * time.Microsecond} {
		b.Run(fmt.Sprintf("opdelay=%s", delay), func(b *testing.B) {
			srv := miniredis.NewServer(miniredis.Options{OpDelay: delay})
			if err := srv.Start(); err != nil {
				b.Fatal(err)
			}
			defer srv.Close()
			m, err := mapping.Get("dyn_redis")
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				g := galaxy.New(galaxy.Config{Galaxies: 20})
				rep, err := m.Execute(g, mapping.Options{
					Processes: 8, Platform: platform.Server, Seed: 1, RedisAddrs: []string{srv.Addr()},
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(rep.Runtime.Seconds(), "runtime-s")
			}
		})
	}
}

// BenchmarkTelemetryOverhead measures the cost of the live telemetry plane
// on the batched dyn_redis path — the hottest configuration (pull batches,
// pipelined acks, Redis round trips). The contract is that "on" stays
// within a few percent of "off": the hot path only pays atomic
// increments and a pair of clock reads per batch, never a lock. The "diag"
// variant adds the bottleneck-attribution layer (per-PE flow ledger, service
// histograms, per-edge byte counters) on top — its budget is the same ~5%,
// since the per-task additions are two clock reads and a handful of atomics
// against cached ledger rows.
func BenchmarkTelemetryOverhead(b *testing.B) {
	run := func(b *testing.B, reg *telemetry.Registry, diag *diagnosis.Diag) {
		srv := miniredis.NewServer(miniredis.Options{})
		if err := srv.Start(); err != nil {
			b.Fatal(err)
		}
		defer srv.Close()
		m, err := mapping.Get("dyn_redis")
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			g := galaxy.New(galaxy.Config{Galaxies: 20})
			rep, err := m.Execute(g, mapping.Options{
				Processes: 8, Platform: platform.Server, Seed: 1,
				RedisAddrs: []string{srv.Addr()}, Telemetry: reg, Diagnosis: diag,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(rep.Runtime.Seconds(), "runtime-s")
		}
	}
	b.Run("off", func(b *testing.B) { run(b, nil, nil) })
	b.Run("on", func(b *testing.B) {
		reg := telemetry.New(telemetry.Config{})
		run(b, reg, nil)
		if snap := reg.Snapshot(); snap.Workers.Pull.Count == 0 {
			b.Fatal("telemetry-on run recorded no pulls")
		}
	})
	b.Run("diag", func(b *testing.B) {
		reg := telemetry.New(telemetry.Config{})
		diag := diagnosis.New(diagnosis.Config{})
		run(b, reg, diag)
		flow := diag.Flow.Snapshot()
		if len(flow.PEs) == 0 {
			b.Fatal("diagnosis-on run recorded no flow rows")
		}
	})
}

// benchKeyed is the payload of the state-subsystem benchmark workload.
type benchKeyed struct {
	Key string
	Val int64
}

func init() { codec.Register(benchKeyed{}) }

// benchFieldCount is the legacy model: per-instance totals in PE fields.
type benchFieldCount struct {
	core.Base
	totals map[string]int64
}

func (p *benchFieldCount) Process(ctx *core.Context, port string, v any) error {
	it := v.(benchKeyed)
	p.totals[it.Key] += it.Val
	return nil
}

func (p *benchFieldCount) Final(ctx *core.Context) error {
	for k, v := range p.totals {
		if err := ctx.EmitDefault(fmt.Sprintf("%s=%d", k, v)); err != nil {
			return err
		}
	}
	return nil
}

// benchManagedCount is the same aggregation on the managed state subsystem.
type benchManagedCount struct {
	core.Base
}

func (p *benchManagedCount) Process(ctx *core.Context, port string, v any) error {
	it := v.(benchKeyed)
	_, err := ctx.State().AddInt(it.Key, it.Val)
	return err
}

func (p *benchManagedCount) Final(ctx *core.Context) error {
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

// benchKeyedGraph builds gen → count ×3 (group-by key) → sink.
func benchKeyedGraph(items int, managed bool) *graph.Graph {
	g := graph.New("benchstate")
	keys := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta"}
	g.Add(func() core.PE {
		return core.NewSource("gen", func(ctx *core.Context) error {
			for i := 0; i < items; i++ {
				if err := ctx.EmitDefault(benchKeyed{Key: keys[i%len(keys)], Val: int64(i)}); err != nil {
					return err
				}
			}
			return nil
		})
	})
	if managed {
		g.Add(func() core.PE {
			return &benchManagedCount{Base: core.NewBase("count", core.In(), core.Out())}
		}).SetInstances(3).SetKeyedState()
	} else {
		g.Add(func() core.PE {
			return &benchFieldCount{Base: core.NewBase("count", core.In(), core.Out()), totals: map[string]int64{}}
		}).SetInstances(3).SetStateful(true)
	}
	g.Add(func() core.PE {
		return core.NewSink("sink", func(ctx *core.Context, v any) error { return nil })
	})
	g.Pipe("gen", "count").SetGrouping(graph.GroupByKey(func(v any) string { return v.(benchKeyed).Key }))
	g.Pipe("count", "sink")
	return g
}

// BenchmarkStateFieldVsManaged compares the cost structures of the three
// state models on one keyed aggregation workload: legacy field state,
// managed state on the lock-sharded memory backend, and managed state on the
// Redis backend — first under the static multi mapping (where field state is
// the baseline), then managed state under the dynamic mappings field state
// cannot use at all.
func BenchmarkStateFieldVsManaged(b *testing.B) {
	srv, err := miniredis.StartTestServer()
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	const items = 400

	run := func(b *testing.B, mappingName string, g *graph.Graph, opts mapping.Options) {
		b.Helper()
		m, err := mapping.Get(mappingName)
		if err != nil {
			b.Fatal(err)
		}
		rep, err := m.Execute(g, opts)
		if err != nil {
			b.Fatal(err)
		}
		if ops := rep.State.Total(); ops > 0 {
			// One benchmark op is one Execute, so the per-run total is
			// already the per-op figure.
			b.ReportMetric(float64(ops), "state-ops/op")
		}
	}
	baseOpts := func() mapping.Options {
		return mapping.Options{Processes: 5, Platform: platform.Server, Seed: 3}
	}

	b.Run("field/multi", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			run(b, "multi", benchKeyedGraph(items, false), baseOpts())
		}
	})
	b.Run("managed-memory/multi", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			run(b, "multi", benchKeyedGraph(items, true), baseOpts())
		}
	})
	b.Run("managed-redis/multi", func(b *testing.B) {
		// Backend pluggability: an in-process mapping with external Redis
		// state (the resume-capable configuration).
		backend, err := state.DialRedisClusterBackend([]string{srv.Addr()}, "bench")
		if err != nil {
			b.Fatal(err)
		}
		defer backend.Close()
		for i := 0; i < b.N; i++ {
			opts := baseOpts()
			opts.StateBackend = backend
			run(b, "multi", benchKeyedGraph(items, true), opts)
		}
	})
	b.Run("managed-memory/dyn_multi", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			run(b, "dyn_multi", benchKeyedGraph(items, true), baseOpts())
		}
	})
	b.Run("managed-redis/dyn_redis", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			opts := baseOpts()
			opts.RedisAddrs = []string{srv.Addr()}
			run(b, "dyn_redis", benchKeyedGraph(items, true), opts)
		}
	})
	b.Run("managed-redis/hybrid_redis", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			opts := baseOpts()
			opts.RedisAddrs = []string{srv.Addr()}
			run(b, "hybrid_redis", benchKeyedGraph(items, true), opts)
		}
	})
}
