package main

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one traced interval. Spans of one event share ev; a span's cause
// is the previous span of the same ev in start order.
type span struct {
	Ev    int    `json:"ev"`
	PE    string `json:"pe"`
	Kind  string `json:"kind"` // emit, hop, service, state
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
}

// spanBuf is one PE instance's span log. Each instance runs on one worker
// goroutine, so appends need no lock; the collector reads the buffers only
// after Execute has returned.
type spanBuf struct {
	spans []span
}

// collector is the benchmark's side of one run: the oracle's expectations,
// what the sink saw, and (traced pass) the spans the benchmark's PEs record.
// The mappings run workers as goroutines of this process, so one collector
// reaches every PE instance. Every per-event slot is written with atomics:
// the only ordering between a generator write and a sink read is a TCP
// round trip, which the race detector cannot see.
type collector struct {
	t0 time.Time
	n  int

	// want[seq] is the oracle's checksum of event seq, filled before the run
	// from the same seeded generator the source replays.
	want []uint64
	// seen[seq] counts deliveries; at[seq] is the delivery time (ns since
	// t0); got[seq] is the delivered value the offline check needs (the
	// session count).
	seen []uint32
	at   []int64
	got  []int64
	// bad counts deliveries that failed a check made at the sink (wrong
	// payload, wrong enrich value, unknown sequence number).
	bad atomic.Int64

	offered    atomic.Int64
	delivered  atomic.Int64
	firstOffer atomic.Int64 // ns since t0, 0 = none yet

	// Paced runs: tick i is due at pacedStart + i/rate. lag[i] is how late
	// the generator offered it (generator goroutine only).
	rate       float64
	pacedStart int64
	lag        []int64

	// Traced pass.
	sampleEvery int
	emitAt      [][]int64 // [stage][seq/sampleEvery]: when the stage's Emit returned, the start of the next hop
	mu          sync.Mutex
	bufs        []*spanBuf
}

func newCollector(n int, want []uint64) *collector {
	return &collector{
		t0: time.Now(), n: n, want: want,
		seen: make([]uint32, n), at: make([]int64, n), got: make([]int64, n),
	}
}

// maxStages is the longest pipeline a workload builds (galaxy_auto's four).
const maxStages = 4

// traced switches span recording on, sampling one event in every.
func (c *collector) traced(every int) {
	c.sampleEvery = every
	c.emitAt = make([][]int64, maxStages)
	for i := range c.emitAt {
		c.emitAt[i] = make([]int64, c.n/every+1)
	}
}

func (c *collector) now() int64 { return int64(time.Since(c.t0)) }

// sampled reports whether event seq records spans.
func (c *collector) sampled(seq int) bool {
	return c.sampleEvery > 0 && seq%c.sampleEvery == 0
}

// newBuf registers a span log for one PE instance (nil when not tracing).
func (c *collector) newBuf() *spanBuf {
	if c.sampleEvery == 0 {
		return nil
	}
	b := &spanBuf{}
	c.mu.Lock()
	c.bufs = append(c.bufs, b)
	c.mu.Unlock()
	return b
}

// offer marks one event offered by the source.
func (c *collector) offer() {
	if c.offered.Add(1) == 1 {
		c.firstOffer.Store(c.now())
	}
}

// deliver records one sink delivery of event seq carrying check (compared
// with the oracle's checksum) and value (kept for the offline check).
func (c *collector) deliver(seq int, check uint64, value int64) {
	if seq < 0 || seq >= c.n || check != c.want[seq] {
		c.bad.Add(1)
		return
	}
	atomic.StoreInt64(&c.got[seq], value)
	atomic.StoreInt64(&c.at[seq], c.now())
	atomic.AddUint32(&c.seen[seq], 1)
	c.delivered.Add(1)
}

// due is when paced tick seq was scheduled, ns since t0.
func (c *collector) due(seq int) int64 {
	return c.pacedStart + int64(float64(seq)/c.rate*1e9)
}

// notExactlyOnce counts events not delivered exactly once.
func (c *collector) notExactlyOnce() int {
	missing := 0
	for i := range c.seen {
		if c.seen[i] != 1 {
			missing++
		}
	}
	return missing
}

// lastDelivery is the latest sink delivery, ns since t0.
func (c *collector) lastDelivery() int64 {
	var last int64
	for _, t := range c.at {
		if t > last {
			last = t
		}
	}
	return last
}

// latencies returns due→delivery latency of every delivered paced event in
// ns, sorted, and how many offered events were never delivered.
func (c *collector) latencies() (sorted []int64, lost int) {
	sorted = make([]int64, 0, c.n)
	for i := range c.at {
		if c.seen[i] == 0 {
			lost++
			continue
		}
		sorted = append(sorted, c.at[i]-c.due(i))
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return sorted, lost
}

// allSpans merges the instance logs, ordered by event then start.
func (c *collector) allSpans() []span {
	var out []span
	for _, b := range c.bufs {
		out = append(out, b.spans...)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Ev != out[j].Ev {
			return out[i].Ev < out[j].Ev
		}
		return out[i].Start < out[j].Start
	})
	return out
}

// quantile reads the q-quantile of an ascending slice (0 when empty).
func quantile[T int64 | float64](sorted []T, q float64) T {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[int(q*float64(len(sorted)-1))]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
