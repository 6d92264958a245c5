package state

import (
	"sync"
	"testing"

	"repro/internal/metrics"
)

// A backend's opCounts is shared by every worker of a run; hammer every slot
// from many goroutines (meaningful under -race) and check the totals are
// exact and land in the StateOps field each slot stands for.
func TestOpCountsConcurrent(t *testing.T) {
	var c opCounts
	const workers, perWorker = 16, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				for slot := range c {
					c[slot].Add(int64(slot + 1))
				}
			}
		}()
	}
	wg.Wait()
	const n = workers * perWorker
	want := metrics.StateOps{
		Puts: n * (int64(OpPut) + 1), Deletes: n * (int64(OpDelete) + 1), Adds: n * (int64(OpAddInt) + 1),
		Updates: n * (int64(OpUpdate) + 1), Gets: n * int64(countGet+1), Lists: n * int64(countList+1),
		Snapshots: n * int64(countSnapshot+1), Restores: n * int64(countRestore+1),
		Checkpoints: n * int64(countCheckpoint+1),
	}
	if got := c.ops(); got != want {
		t.Errorf("ops: %+v want %+v", got, want)
	}
}
