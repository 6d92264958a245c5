package mapping_test

import (
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/mapping"
	"repro/internal/miniredis"
	"repro/internal/telemetry"
)

// TestTelemetryConformanceAcrossMappings is the observability contract:
// under every runtime mapping, a keyed managed aggregation run with a live
// telemetry registry must surface non-empty pull/emit-flush latency
// histograms, task counts, a transport queue-depth gauge, state-operation
// latencies, and at least one fully assembled source→sink trace — all
// without disturbing the run's results. Run under -race this also hammers
// the registry's lock-free hot path from every worker at once.
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
			opts := testOpts(tc.procs)
			opts.Telemetry = reg
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
		})
	}
}
