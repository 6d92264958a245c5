package redismap_test

import (
	"errors"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/mapping"
	"repro/internal/miniredis"
	"repro/internal/state"
)

// TestKillMidFinalFlushThenResume is the end-to-end crash-consistency
// proof for the transactional Final path, on both Redis mappings:
//
//   - Run 1 executes the workflow against an external state backend with a
//     kill fault armed inside the Final window (after the Final hook ran,
//     before its fenced output flush). The run must fail, and because the
//     gate and the output ride one SINKAPPEND transaction, the sink must
//     see nothing — a crashed Final leaves no partial output behind.
//   - Run 2 resumes onto the surviving namespaces with the same seed. Every
//     task re-executes, the applied ledger drops every duplicate mutation,
//     the Final re-runs against intact aggregates, and the sink output is
//     byte-identical to an undisturbed sequential reference run.
func TestKillMidFinalFlushThenResume(t *testing.T) {
	for _, tc := range []struct {
		name   string
		shards int
	}{
		{"dyn_redis", 1},
		{"hybrid_redis", 1},
		{"dyn_redis-2shard", 2},
		{"dyn_redis-4shard", 4},
	} {
		name := strings.TrimSuffix(strings.TrimSuffix(tc.name, "-2shard"), "-4shard")
		t.Run(tc.name, func(t *testing.T) {
			addrs := make([]string, tc.shards)
			for i := range addrs {
				srv, err := miniredis.StartTestServer()
				if err != nil {
					t.Fatal(err)
				}
				defer srv.Close()
				addrs[i] = srv.Addr()
			}

			keys := []string{"alpha", "beta", "gamma", "delta"}
			items := make([]replayItem, 0, 24)
			for i := 0; i < 24; i++ {
				items = append(items, replayItem{Key: keys[i%len(keys)], Val: int64(i + 1)})
			}

			// Undisturbed sequential reference.
			var mu sync.Mutex
			var want []string
			refG := replayAggGraph(items, 0, func(s string) {
				mu.Lock()
				want = append(want, s)
				mu.Unlock()
			})
			m, err := mapping.Get("simple")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := m.Execute(refG, mapping.Options{Processes: 1, Platform: platformForTest(), Seed: 31}); err != nil {
				t.Fatal(err)
			}
			sort.Strings(want)
			if len(want) != len(keys) {
				t.Fatalf("reference run: %v", want)
			}

			backend, err := state.DialRedisClusterBackend(addrs, "chaosbk")
			if err != nil {
				t.Fatal(err)
			}
			defer backend.Close()
			opts := mapping.Options{
				Processes:    3,
				Platform:     platformForTest(),
				Seed:         31,
				RedisAddrs:   addrs,
				RecoverStale: true,
				StateBackend: backend,
			}
			m, err = mapping.Get(name)
			if err != nil {
				t.Fatal(err)
			}

			// Run 1: killed inside the Final window.
			inj := faultinject.New(1).
				Schedule(faultinject.Fault{Probe: faultinject.ProbeMidFinalFlush, Kind: faultinject.Kill, Hits: 1})
			faultinject.Arm(inj)
			t.Cleanup(faultinject.Disarm)

			var run1 []string
			g := replayAggGraph(items, 0, func(s string) {
				mu.Lock()
				run1 = append(run1, s)
				mu.Unlock()
			})
			if _, err := m.Execute(g, opts); !errors.Is(err, faultinject.ErrKill) {
				t.Fatalf("run 1 should die on the injected kill, got %v", err)
			}
			if got := inj.FiredCount(faultinject.ProbeMidFinalFlush); got != 1 {
				t.Fatalf("mid-final-flush fault fired %d times, want 1", got)
			}
			mu.Lock()
			leaked := len(run1)
			mu.Unlock()
			if leaked != 0 {
				t.Fatalf("crashed Final leaked %d sink values: %v", leaked, run1)
			}

			// Run 2: resume, with no fault armed.
			faultinject.Disarm()

			var got []string
			opts.StateResume = true
			g2 := replayAggGraph(items, 0, func(s string) {
				mu.Lock()
				got = append(got, s)
				mu.Unlock()
			})
			if _, err := m.Execute(g2, opts); err != nil {
				t.Fatalf("resume run: %v", err)
			}
			mu.Lock()
			sort.Strings(got)
			mu.Unlock()
			if strings.Join(got, ",") != strings.Join(want, ",") {
				t.Fatalf("resumed aggregates diverge:\n got %v\nwant %v", got, want)
			}
		})
	}
}
