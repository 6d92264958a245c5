package mapping_test

import (
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/diagnosis"
	"repro/internal/graph"
	"repro/internal/mapping"
	"repro/internal/metrics"
	"repro/internal/miniredis"
	"repro/internal/telemetry"
)

// TestTelemetryConformanceAcrossMappings is the observability contract:
// under every runtime mapping, a keyed managed aggregation run with a live
// telemetry registry must surface non-empty pull/emit-flush latency
// histograms, task counts, a transport queue-depth gauge, state-operation
// latencies, and at least one fully assembled source→sink trace — all
// without disturbing the run's results. Run under -race this also hammers
// the registry's lock-free hot path from every worker at once. The run's
// journal also pins the one shutdown path: every worker that started exits,
// either on the coordinator's close of the drained transport ("done") or
// released from the auto-scaler's idle state ("idle_release").
func TestTelemetryConformanceAcrossMappings(t *testing.T) {
	srv, err := miniredis.StartTestServer()
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	items := keyedAggItems(60)

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
	want := reference(t)

	for _, tc := range []struct {
		name  string
		procs int
	}{
		{"multi", 6},
		{"mpi", 6},
		{"dyn_multi", 4},
		{"dyn_auto_multi", 4},
		{"dyn_redis", 4},
		{"dyn_auto_redis", 4},
		{"hybrid_redis", 5},
		{"hybrid_auto_redis", 5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var mu sync.Mutex
			var got []string
			g := keyedAggGraph(items, 3, func(s string) {
				mu.Lock()
				got = append(got, s)
				mu.Unlock()
			})
			m, err := mapping.Get(tc.name)
			if err != nil {
				t.Fatal(err)
			}
			reg := telemetry.New(telemetry.Config{TraceSampleEvery: 1})
			diag := diagnosis.New(diagnosis.Config{JournalRing: 1 << 16})
			opts := testOpts(tc.procs)
			opts.Telemetry = reg
			opts.Diagnosis = diag
			if strings.Contains(tc.name, "redis") {
				opts.RedisAddrs = []string{srv.Addr()}
			}
			if _, err := m.Execute(g, opts); err != nil {
				t.Fatal(err)
			}

			mu.Lock()
			sort.Strings(got)
			mu.Unlock()
			if strings.Join(got, ",") != strings.Join(want, ",") {
				t.Errorf("instrumented run diverged:\n got %v\nwant %v", got, want)
			}

			snap := reg.Snapshot()
			if snap.Workers.Pull.Count == 0 {
				t.Error("pull histogram empty")
			}
			if snap.Workers.EmitFlush.Count == 0 {
				t.Error("emit-flush histogram empty")
			}
			if snap.Workers.Ack.Count == 0 {
				t.Error("ack histogram empty")
			}
			if snap.Workers.Tasks == 0 {
				t.Error("task counter zero")
			}
			if snap.Workers.Pull.Count > 0 && snap.Workers.Pull.P99 < snap.Workers.Pull.P50 {
				t.Errorf("pull p99 %d < p50 %d", snap.Workers.Pull.P99, snap.Workers.Pull.P50)
			}
			if _, ok := snap.Gauges["transport.pending"]; !ok {
				t.Errorf("transport.pending gauge missing: %v", snap.Gauges)
			}
			// An auto-scaled run answers "is the pool saturated" from its
			// gauges: every pool worker joined, so running + parked is the pool.
			gauges, auto := snap.Gauges, strings.Contains(tc.name, "auto")
			if _, ok := gauges["autoscale.active"]; ok != auto {
				t.Errorf("autoscale gauges present=%v, want %v: %v", ok, auto, gauges)
			}
			if pool := gauges["autoscale.running"] + gauges["autoscale.parked"]; auto &&
				(pool < 2 || pool > int64(tc.procs) || gauges["autoscale.active"] < 1 || gauges["autoscale.active"] > pool) {
				t.Errorf("autoscale gauges inconsistent for %d processes: %v", tc.procs, gauges)
			}
			if snap.State == nil || len(snap.State.Ops) == 0 {
				t.Error("state-operation latencies missing")
			} else if _, ok := snap.State.Ops["add"]; !ok {
				t.Errorf("keyed AddInt left no add histogram: %v", snap.State.Ops)
			}
			if len(snap.PerWorker) == 0 {
				t.Error("no per-worker shards")
			}
			complete := 0
			for _, tr := range snap.Traces {
				if tr.Complete {
					complete++
					if len(tr.Hops) < 2 {
						t.Errorf("complete trace with %d hops", len(tr.Hops))
					}
				}
			}
			if complete == 0 {
				t.Errorf("no complete trace among %d assembled (events=%d)",
					len(snap.Traces), snap.TraceEvents)
			}

			evs := diag.Journal.Events()
			if uint64(len(evs)) != diag.Journal.Total() {
				t.Fatalf("journal ring evicted %d of %d events", diag.Journal.Total()-uint64(len(evs)), diag.Journal.Total())
			}
			starts, exits := 0, 0
			for _, e := range evs {
				switch e.Kind {
				case diagnosis.EvWorkerStart:
					starts++
				case diagnosis.EvWorkerExit:
					exits++
					if e.Detail != "done" && e.Detail != "idle_release" {
						t.Errorf("worker %d exited with %q, want done or idle_release", e.Worker, e.Detail)
					}
				}
			}
			if starts == 0 || starts != exits {
				t.Errorf("worker_start %d, worker_exit %d: want equal and non-zero", starts, exits)
			}
		})
	}
}

// TestTelemetryFusedHopParity is the observability contract under operator
// fusion: on dyn_redis, work → sink fuses once the pool has measured the
// sink, and a fused execution must count exactly like a delivered one. The
// sink's flow row takes in every value — deliveries plus fused calls — and
// times each execution, a sampled trace runs complete from the source
// through a fused sink hop, and the report's task and output counts equal
// those of dyn_multi, which never fuses.
func TestTelemetryFusedHopParity(t *testing.T) {
	srv, err := miniredis.StartTestServer()
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const items = 4000
	run := func(name string, opts mapping.Options) metrics.Report {
		t.Helper()
		var got atomic.Int64
		g := graph.New("fusedhop")
		g.Add(func() core.PE {
			return core.NewSource("gen", func(ctx *core.Context) error {
				for i := 0; i < items; i++ {
					// Paced, so work keeps running after the pool has
					// measured the sink and there is something to fuse.
					if i%100 == 0 {
						time.Sleep(time.Millisecond)
					}
					if err := ctx.EmitDefault(i); err != nil {
						return err
					}
				}
				return nil
			})
		})
		g.Add(func() core.PE {
			return core.NewMap("work", func(_ *core.Context, v any) (any, error) { return v.(int) + 1, nil })
		})
		g.Add(func() core.PE {
			return core.NewSink("sink", func(*core.Context, any) error { got.Add(1); return nil })
		})
		g.Pipe("gen", "work")
		g.Pipe("work", "sink")
		m, err := mapping.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := m.Execute(g, opts)
		if err != nil {
			t.Fatal(err)
		}
		if got.Load() != items {
			t.Fatalf("%s: sink received %d values, want %d", name, got.Load(), items)
		}
		return rep
	}

	unfused := run("dyn_multi", testOpts(3))
	// The ring keeps every event: gen runs far ahead of the fused hops, so a
	// default-sized ring would evict their traces' root emissions.
	reg := telemetry.New(telemetry.Config{TraceSampleEvery: 1, TraceRing: 8 * items})
	diag := diagnosis.New(diagnosis.Config{})
	opts := testOpts(3)
	opts.RedisAddrs = []string{srv.Addr()}
	opts.Telemetry = reg
	opts.Diagnosis = diag
	fused := run("dyn_redis", opts)

	snap := reg.Snapshot()
	if snap.Workers.Fused == 0 {
		t.Fatal("no execution fused; the parity checks below would only see deliveries")
	}
	if fused.Tasks != unfused.Tasks || fused.Outputs != unfused.Outputs {
		t.Errorf("fused run reports %d tasks, %d outputs; dyn_multi reports %d, %d",
			fused.Tasks, fused.Outputs, unfused.Tasks, unfused.Outputs)
	}
	var sink *diagnosis.PEFlowSnapshot
	flow := diag.Diagnose(reg).Flow
	for i := range flow.PEs {
		if flow.PEs[i].PE == "sink" {
			sink = &flow.PEs[i]
		}
	}
	if sink == nil {
		t.Fatalf("no sink row in the flow ledger: %+v", flow.PEs)
	}
	if sink.TasksIn != items || sink.Service.Count != items {
		t.Errorf("sink row: tasks_in %d, service observations %d; want %d of each (%d of them fused)",
			sink.TasksIn, sink.Service.Count, items, snap.Workers.Fused)
	}
	// A fused execution is released with its parent's ack, not by one of its
	// own: a sink hop with an execution span and no ack is a fused hop.
	complete := false
	for _, tr := range reg.Tracer().Assemble(1 << 20) {
		last := tr.Hops[len(tr.Hops)-1]
		if tr.Complete && last.PE == "sink" && last.StartedAt > 0 && last.AckedAt == 0 {
			complete = true
			break
		}
	}
	if !complete {
		t.Error("no complete source→sink trace through a fused sink hop")
	}
}
