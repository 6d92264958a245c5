package diagnosis

import (
	"sync"
	"testing"
)

func TestJournalRingEviction(t *testing.T) {
	j := NewJournal(4)
	for i := 0; i < 10; i++ {
		j.Append(EvWorkerStart, i, "pe", "", 0)
	}
	if got := j.Total(); got != 10 {
		t.Fatalf("Total = %d, want 10", got)
	}
	evs := j.Events()
	if len(evs) != 4 {
		t.Fatalf("retained %d events, want 4", len(evs))
	}
	// Oldest first, with monotone sequence numbers 7..10 surviving.
	for i, e := range evs {
		if want := uint64(7 + i); e.Seq != want {
			t.Fatalf("evs[%d].Seq = %d, want %d", i, e.Seq, want)
		}
	}
	if since := j.Since(8); len(since) != 2 || since[0].Seq != 9 {
		t.Fatalf("Since(8) = %+v, want seqs 9,10", since)
	}
	if since := j.Since(10); since != nil {
		t.Fatalf("Since(10) = %+v, want nil", since)
	}
}

func TestJournalNilSafe(t *testing.T) {
	var j *Journal
	j.Append(EvRunStart, -1, "", "", 0) // must not panic
	if j.Total() != 0 || j.Events() != nil || j.Since(0) != nil {
		t.Fatal("nil journal should report empty everything")
	}
	var d *Diag
	d.Log(EvRunStart, -1, "", "", 0)
	d.PE("x").ObserveExec(1, 2, 3, false)
	d.Edge("a->b").ObserveTask(1)
	if rep := d.Diagnose(nil); rep.JournalEvents != 0 {
		t.Fatal("nil Diag should diagnose to an empty report")
	}
}

// TestJournalConcurrentAppendTail hammers Append from many goroutines while
// tailers read concurrently — the invariants under -race are: no data race, no
// panic, sequence numbers strictly increasing within any returned slice, and
// the final Total equal to the number of appends.
func TestJournalConcurrentAppendTail(t *testing.T) {
	j := NewJournal(64)
	const writers, perWriter, readers = 8, 500, 4
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lastSeen uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				evs := j.Since(lastSeen)
				for i := 1; i < len(evs); i++ {
					if evs[i].Seq <= evs[i-1].Seq {
						t.Errorf("non-monotone seqs %d then %d", evs[i-1].Seq, evs[i].Seq)
						return
					}
				}
				if len(evs) > 0 {
					lastSeen = evs[len(evs)-1].Seq
				}
				j.Events()
				j.Total()
			}
		}()
	}
	var writeWg sync.WaitGroup
	for w := 0; w < writers; w++ {
		writeWg.Add(1)
		go func(w int) {
			defer writeWg.Done()
			for i := 0; i < perWriter; i++ {
				j.Append(EvResize, w, "pe", "detail", int64(i))
			}
		}(w)
	}
	writeWg.Wait()
	close(stop)
	wg.Wait()
	if got := j.Total(); got != writers*perWriter {
		t.Fatalf("Total = %d, want %d", got, writers*perWriter)
	}
	if evs := j.Events(); len(evs) != 64 {
		t.Fatalf("retained %d events, want ring capacity 64", len(evs))
	}
}
