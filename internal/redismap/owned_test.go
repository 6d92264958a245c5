package redismap_test

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/diagnosis"
	"repro/internal/faultinject"
	"repro/internal/mapping"
)

// TestLeaseTakeoverKeepsExactlyOnce stalls a partition holder between a
// window's execution and its commit (ProbeMidCommit) for longer than the
// lease's TTL, at 1, 2 and 4 shards. Another worker takes the expired lease
// over, adopts the stalled window's entries and runs them again; the stale
// commit then finds its lease gone and applies nothing. The Final output per
// key must equal simple's, and both the takeover and the dropped commit must
// be journaled.
func TestLeaseTakeoverKeepsExactlyOnce(t *testing.T) {
	keys := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta"}
	items := make([]replayItem, 0, 120)
	for i := 0; i < 120; i++ {
		items = append(items, replayItem{Key: keys[i%len(keys)], Val: int64(i + 1)})
	}
	run := func(t *testing.T, name string, opts mapping.Options) []string {
		var mu sync.Mutex
		var got []string
		g := replayAggGraph(items, 0, func(s string) {
			mu.Lock()
			got = append(got, s)
			mu.Unlock()
		})
		m, err := mapping.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Execute(g, opts); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		mu.Lock()
		defer mu.Unlock()
		sort.Strings(got)
		return got
	}
	want := run(t, "simple", mapping.Options{Processes: 1, Platform: platformForTest(), Seed: 31})

	for _, shards := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("%dshard", shards), func(t *testing.T) {
			addrs := make([]string, shards)
			for i := range addrs {
				addrs[i] = startRedis(t)
			}
			// The lease's TTL is 8 poll timeouts, 16 ms: well inside the
			// stall.
			inj := faultinject.New(1).Schedule(faultinject.Fault{
				Probe: faultinject.ProbeMidCommit, Kind: faultinject.Delay, Delay: 120 * time.Millisecond, Hits: 1})
			faultinject.Arm(inj)
			t.Cleanup(faultinject.Disarm)
			diag := diagnosis.New(diagnosis.Config{})
			got := run(t, "dyn_redis", mapping.Options{
				Processes: 3, Platform: platformForTest(), Seed: 31, RedisAddrs: addrs,
				RecoverStale: true, Diagnosis: diag,
			})
			faultinject.Disarm()
			if strings.Join(got, ",") != strings.Join(want, ",") {
				t.Errorf("Final output diverges after the takeover:\n got %v\nwant %v", got, want)
			}
			if n := inj.FiredCount(faultinject.ProbeMidCommit); n != 1 {
				t.Fatalf("mid-commit stall fired %d times, want 1", n)
			}
			var tookOver, dropped bool
			for _, ev := range diag.Journal.Events() {
				if ev.Kind != diagnosis.EvPartition || ev.PE != "count" {
					continue
				}
				tookOver = tookOver || strings.Contains(ev.Detail, "took over")
				dropped = dropped || strings.Contains(ev.Detail, "lost")
			}
			if !tookOver || !dropped {
				t.Errorf("journal: takeover %v, stale commit dropped %v; want both", tookOver, dropped)
			}
		})
	}
}
