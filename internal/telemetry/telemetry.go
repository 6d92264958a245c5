// Package telemetry is the live metrics plane of the runtime: a registry of
// atomic counters, gauges and fixed-bucket latency histograms that workers
// update lock-free while a run executes, plus a bounded task-hop tracer and a
// JSON-marshalable snapshot served over an optional HTTP endpoint.
//
// The package is deliberately dependency-light — standard library only, no
// imports of other internal packages — so the state layer, the transports and
// the runtime can all hang instrumentation off it without import cycles. The
// hot path is allocation-free: each worker slot owns a WorkerMetrics shard
// (cached once, no map lookups per task), every histogram observation is two
// atomic adds plus a bucket search, and tracing touches a mutex only for the
// sampled fraction of tasks.
//
// Its consumers all read the one Registry: the benchmark's traced pass (`go
// run ./benchmark`) prices it as telemetry.overhead_share, the diagnosis layer
// derives its verdict from it, `d4prun`/`d4pbench` serve it live at /metrics,
// and the auto-scaler publishes its pool size and resize counts into it as
// gauges.
package telemetry

import (
	"sync"
	"sync/atomic"
)

// Counter is an atomic monotone counter.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Load reads the current count.
func (c *Counter) Load() int64 { return c.v.Load() }

// Gauge is an atomic instantaneous value.
type Gauge struct{ v atomic.Int64 }

// Set stores the current value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Load reads the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// WorkerMetrics is one worker slot's shard of the registry. The worker loop
// caches the pointer once and updates fields without any shared lock.
type WorkerMetrics struct {
	// Pull, Ack and EmitFlush time the worker loop's transport round trips:
	// non-empty PullBatch calls (empty polls land in IdlePolls instead),
	// batched Ack flushes, and batched emit (Push) flushes.
	Pull, Ack, EmitFlush *Histogram
	// PullBatch and EmitBatch record the delivered/flushed batch sizes the
	// BatchSizer (or fixed windows) actually produced.
	PullBatch, EmitBatch *Histogram
	// Prefetch is the worker's current prefetch-buffer occupancy.
	Prefetch Gauge
	// IdlePolls counts empty pull round trips; Tasks counts processed tasks,
	// and Fused the subset run inline by operator fusion rather than
	// delivered by the transport.
	IdlePolls, Tasks, Fused Counter
}

func newWorkerMetrics() *WorkerMetrics {
	return &WorkerMetrics{
		Pull:      NewLatencyHistogram(),
		Ack:       NewLatencyHistogram(),
		EmitFlush: NewLatencyHistogram(),
		PullBatch: NewSizeHistogram(),
		EmitBatch: NewSizeHistogram(),
	}
}

// StateMetrics times managed-state store operations (one shared set per run —
// store ops already pay a lock or a network round trip, so a shared histogram
// is not the bottleneck) and counts exactly-once fence drops.
type StateMetrics struct {
	// Per-operation latency histograms, matching the Store interface.
	Get, Put, Delete, Add, Update, Snapshot, Restore *Histogram
	// FenceDrops counts mutations the exactly-once fence dropped as already
	// applied — non-zero exactly when duplicate executions reached the store.
	FenceDrops Counter
}

func newStateMetrics() *StateMetrics {
	return &StateMetrics{
		Get:      NewLatencyHistogram(),
		Put:      NewLatencyHistogram(),
		Delete:   NewLatencyHistogram(),
		Add:      NewLatencyHistogram(),
		Update:   NewLatencyHistogram(),
		Snapshot: NewLatencyHistogram(),
		Restore:  NewLatencyHistogram(),
	}
}

// GaugeSource samples a named set of instantaneous values (queue depths, the
// transport's pending count). ok=false means the source is gone — typically
// the transport of a finished run — and the registry then keeps serving the
// last good sample, so post-run snapshots stay meaningful.
type GaugeSource func() (map[string]int64, bool)

// Config sizes a Registry. The zero value gives useful defaults.
type Config struct {
	// TraceSampleEvery starts a task trace on every Nth emission from an
	// untraced execution; 0 means 64, negative disables tracing entirely.
	TraceSampleEvery int
	// TraceRing bounds the trace-event ring buffer; 0 means 4096.
	TraceRing int
	// FlightRing bounds the flight-recorder ring; 0 means 32.
	FlightRing int
}

// Registry is one live metrics plane: per-worker shards, state metrics, named
// gauge sources, the task tracer, and the flight-recorder ring. A Registry
// may outlive a single run — the harness shares one across repetitions, in
// which case counters and histograms accumulate and gauge sources re-register
// per run (same name replaces).
type Registry struct {
	mu      sync.Mutex
	workers []*WorkerMetrics
	gauges  map[string]*gaugeEntry
	order   []string   // gauge source names in registration order
	flights []Snapshot // flight-recorder ring, oldest first once full
	flightN int
	state   *StateMetrics
	tracer  *Tracer

	flightCap int
}

type gaugeEntry struct {
	fn   GaugeSource
	last map[string]int64
}

// New creates a registry.
func New(cfg Config) *Registry {
	r := &Registry{
		gauges:    map[string]*gaugeEntry{},
		state:     newStateMetrics(),
		flightCap: cfg.FlightRing,
	}
	if r.flightCap <= 0 {
		r.flightCap = 32
	}
	if cfg.TraceSampleEvery >= 0 {
		every := cfg.TraceSampleEvery
		if every == 0 {
			every = 64
		}
		ring := cfg.TraceRing
		if ring <= 0 {
			ring = 4096
		}
		r.tracer = newTracer(every, ring)
	}
	return r
}

// Worker returns worker slot w's metrics shard, growing the shard table on
// first use. Callers cache the pointer; only this call takes the lock.
func (r *Registry) Worker(w int) *WorkerMetrics {
	r.mu.Lock()
	defer r.mu.Unlock()
	for len(r.workers) <= w {
		r.workers = append(r.workers, newWorkerMetrics())
	}
	return r.workers[w]
}

// State returns the shared state-operation metrics.
func (r *Registry) State() *StateMetrics { return r.state }

// Tracer returns the task-hop tracer, nil when tracing is disabled
// (Config.TraceSampleEvery < 0).
func (r *Registry) Tracer() *Tracer { return r.tracer }

// RegisterGauges adds (or replaces) a named gauge source. Each sampled key is
// reported as "source.key" in snapshots. Re-registering a name — a new run on
// a shared registry — replaces the sampler but keeps the cached last sample
// until the new source produces one.
func (r *Registry) RegisterGauges(source string, fn GaugeSource) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.gauges[source]; ok {
		e.fn = fn
		return
	}
	r.gauges[source] = &gaugeEntry{fn: fn}
	r.order = append(r.order, source)
}

// sampleGauges evaluates every source under the registry lock (a cold path;
// workers never take this lock).
func (r *Registry) sampleGauges() map[string]int64 {
	out := map[string]int64{}
	for _, name := range r.order {
		e := r.gauges[name]
		vals, ok := e.fn()
		if ok {
			e.last = vals
		} else {
			vals = e.last
		}
		for k, v := range vals {
			out[name+"."+k] = v
		}
	}
	return out
}

// RecordFlight appends the current snapshot (without traces, which the trace
// ring already retains) to the bounded flight-recorder ring. The runtime
// calls it on the Options.TelemetryEvery ticker.
func (r *Registry) RecordFlight() {
	snap := r.snapshot(false)
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.flights) < r.flightCap {
		r.flights = append(r.flights, snap)
		return
	}
	r.flights[r.flightN%r.flightCap] = snap
	r.flightN++
}

// Flights returns the flight-recorder ring, oldest first.
func (r *Registry) Flights() []Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Snapshot, 0, len(r.flights))
	if len(r.flights) < r.flightCap {
		return append(out, r.flights...)
	}
	at := r.flightN % r.flightCap
	out = append(out, r.flights[at:]...)
	return append(out, r.flights[:at]...)
}
