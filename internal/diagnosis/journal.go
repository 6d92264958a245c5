package diagnosis

import (
	"sync"
	"time"
)

// Journal event kinds, matching the runtime lifecycle moments they record.
const (
	EvRunStart    = "run_start"
	EvRunEnd      = "run_end"
	EvWorkerStart = "worker_start"
	EvWorkerExit  = "worker_exit"  // detail: done (the drained transport closed), idle_release, abort or error
	EvReclaim     = "reclaim"      // XAUTOCLAIM adopted stalled deliveries
	EvLease       = "lease_extend" // progress-heartbeat XCLAIM JUSTID
	EvPartition   = "partition"    // a leased partition changed hands: a takeover of an expired lease, or a commit that found its lease lost
	EvFenceDrop   = "fence_drop"   // exactly-once fence dropped a duplicate
	EvResize      = "resize"       // BatchSizer changed a batch window
	EvScale       = "scale"        // auto-scaler entered or left saturation
	EvDrain       = "drain"        // coordinator drain/finalize milestones
	EvFault       = "fault"        // injected fault fired (internal/faultinject)
	EvFuse        = "fuse"         // a fused edge's destination switched between inline and delivered; n is the hop price (ns)
)

// Event is one sequence-numbered journal entry. Worker is -1 for events not
// tied to a worker slot.
type Event struct {
	Seq    uint64 `json:"seq"`
	At     int64  `json:"at"` // UnixNano
	Kind   string `json:"kind"`
	Worker int    `json:"worker"`
	PE     string `json:"pe,omitempty"`
	Detail string `json:"detail,omitempty"`
	N      int64  `json:"n,omitempty"`
}

// Journal is a bounded ring of lifecycle events. Append takes one short mutex
// hold and allocates nothing once the ring is full — cheap enough for every
// lifecycle moment, which arrive at human rates, not task rates. Entries carry
// monotone sequence numbers so tailers can resume from where they left off
// even across ring evictions.
type Journal struct {
	mu     sync.Mutex
	ring   []Event
	at     int
	filled bool
	seq    uint64 // total appended; next entry gets seq+1
}

// DefaultJournalRing bounds the journal when Config.JournalRing is zero.
const DefaultJournalRing = 1024

// NewJournal creates a journal retaining the last capacity events
// (DefaultJournalRing when capacity <= 0).
func NewJournal(capacity int) *Journal {
	if capacity <= 0 {
		capacity = DefaultJournalRing
	}
	return &Journal{ring: make([]Event, 0, capacity)}
}

// Append records one event, stamping the sequence number and timestamp.
// Nil-receiver safe.
func (j *Journal) Append(kind string, worker int, pe, detail string, n int64) {
	if j == nil {
		return
	}
	at := time.Now().UnixNano()
	j.mu.Lock()
	defer j.mu.Unlock()
	j.seq++
	e := Event{Seq: j.seq, At: at, Kind: kind, Worker: worker, PE: pe, Detail: detail, N: n}
	if !j.filled && len(j.ring) < cap(j.ring) {
		j.ring = append(j.ring, e)
		if len(j.ring) == cap(j.ring) {
			j.filled = true
		}
		return
	}
	j.ring[j.at] = e
	j.at = (j.at + 1) % len(j.ring)
}

// Total returns the number of events ever appended (evicted ones included).
func (j *Journal) Total() uint64 {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.seq
}

// Events returns the retained events, oldest first.
func (j *Journal) Events() []Event {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]Event, 0, len(j.ring))
	if !j.filled {
		return append(out, j.ring...)
	}
	out = append(out, j.ring[j.at:]...)
	return append(out, j.ring[:j.at]...)
}

// Since returns retained events with Seq > seq, oldest first — the resume
// cursor for tailers: pass the last Seq you saw.
func (j *Journal) Since(seq uint64) []Event {
	evs := j.Events()
	for i, e := range evs {
		if e.Seq > seq {
			return evs[i:]
		}
	}
	return nil
}
