package state

import (
	"sync"
	"testing"

	"repro/internal/metrics"
	"repro/internal/telemetry"
)

// A FencedStore's counters and histograms are shared by every worker's
// scope; drive every op shape through many scopes at once (meaningful under
// -race) and check the totals are exact and land in the StateOps field and
// histogram each shape stands for.
func TestOpCountsConcurrent(t *testing.T) {
	st, err := NewMemoryBackend().Open("ns")
	if err != nil {
		t.Fatal(err)
	}
	fs := NewFencedStore(st)
	sm := telemetry.New(telemetry.Config{}).State()
	fs.Instrument(sm)
	const workers, perWorker = 16, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := fs.NewScope()
			for i := 0; i < perWorker; i++ {
				_ = sc.Put("p", "v")
				_, _ = sc.AddInt("n", 1)
				_, _, _ = sc.Get("n")
				_, _ = sc.Snapshot()
				_ = sc.Restore(Snapshot{})
			}
		}()
	}
	wg.Wait()
	const n = workers * perWorker
	want := metrics.StateOps{Puts: n, Adds: n, Gets: n, Snapshots: n, Restores: n}
	if got := fs.Ops(); got != want {
		t.Errorf("ops: %+v want %+v", got, want)
	}
	for name, h := range map[string]*telemetry.Histogram{"put": sm.Put, "add": sm.Add,
		"get": sm.Get, "snapshot": sm.Snapshot, "restore": sm.Restore} {
		if c := h.Count(); c != n {
			t.Errorf("%s histogram holds %d observations, want %d", name, c, n)
		}
	}
}
