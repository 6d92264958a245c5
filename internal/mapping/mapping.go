// Package mapping defines the interface every dispel4py-style enactment
// engine implements ("mapping is the process of 'translating' workflows onto
// execution systems"), a registry of the available mappings, and the Simple
// sequential mapping.
//
// The nine mappings, matching the paper's evaluation section. simple lives
// here; the other eight are rows of two planner tables, internal/dynamic (in
// process) and internal/redismap (over Redis), which register themselves when
// imported:
//
//	simple             mapping    sequential in-process execution (reference semantics)
//	multi              dynamic    static Multiprocessing: one process per PE instance
//	mpi                dynamic    static message-passing variant of multi
//	dyn_multi          dynamic    dynamic scheduling over an in-process global queue
//	dyn_auto_multi     dynamic    dyn_multi + auto-scaler (demand strategy)
//	dyn_redis          redismap   dynamic scheduling over a Redis stream consumer group
//	dyn_auto_redis     redismap   dyn_redis + auto-scaler (demand strategy)
//	hybrid_redis       redismap   stateful instances on private queues + dynamic stateless pool
//	hybrid_auto_redis  redismap   hybrid_redis + auto-scaler on its stateless pool
package mapping

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/autoscale"
	"repro/internal/diagnosis"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/platform"
	"repro/internal/state"
	"repro/internal/telemetry"
)

// Options configures one workflow execution. How tasks are batched on the
// transport is not an option: the planner that builds the transport decides
// it (runtime.Config.AdaptiveBatching).
type Options struct {
	// Processes is the worker process budget.
	Processes int
	// Platform selects the simulated host; zero value means platform.Server.
	Platform platform.Platform
	// Seed drives all deterministic randomness in the run.
	Seed int64
	// RedisAddrs lists the servers of the Redis data plane for Redis-backed
	// mappings — one address for a single server, several for a sharded
	// plane, in ring order (the order is part of the placement: shard i's
	// ring arc is derived from its index). The Redis planners route the task
	// stream, state namespaces, fence ledgers and telemetry gauges across
	// these shards through one shared redisclient.Cluster.
	RedisAddrs []string
	// Strategy overrides the auto-scaling strategy of every auto mapping;
	// nil means the one default, autoscale.DemandStrategy (pool sized to the
	// outstanding tasks, re-read at each refill). A strategy names the
	// signal it reads and the engine samples that signal whatever the
	// transport; an override is stepped by the monitor tick only.
	// autoscale.QueueSizeStrategy is the paper's ±1 Algorithm 1 reference,
	// autoscale.IdleTimeStrategy its dyn_auto_redis idle-time policy.
	Strategy autoscale.Strategy
	// Trace, when non-nil, collects auto-scaler trace points (Figure 13).
	Trace *autoscale.Trace
	// RecoverStale enables XAUTOCLAIM-based recovery of pending tasks
	// whose consumer stopped acknowledging them (Redis mappings only).
	// Execution becomes at-least-once: a task abandoned mid-flight may be
	// re-run by another worker — possibly while the original worker is
	// still alive, so both executions race. With managed-state PEs this
	// implies ExactlyOnceState, so the race cannot double-apply store
	// mutations. The reclaim threshold is fixed at 16 ms of idle time; a
	// worker heartbeats the entries it still holds, so only a worker that
	// stops making progress loses them.
	RecoverStale bool
	// ExactlyOnceState fences managed-state writes against duplicate task
	// executions: every task is stamped with a deterministic provenance +
	// sequence identity, and each store records an applied ledger (persisted
	// with the namespace, so StateResume keeps the fence)
	// that drops mutations whose identity was already applied. It is
	// implied by RecoverStale on workflows with managed state; set it
	// explicitly to fence against duplicate deliveries from other sources.
	// Emissions to PEs without managed state remain at-least-once.
	ExactlyOnceState bool
	// StateBackend overrides the managed-state backend. nil means a private
	// per-run backend (in-memory for the in-process mappings, a run-prefixed
	// Redis backend for the Redis mappings). Supplying an external backend
	// makes state survive the run: on failure the namespaces are kept, so a
	// follow-up run with StateResume can pick up where it stopped.
	StateBackend state.Backend
	// StateResume continues from the live namespaces a failed run kept on
	// StateBackend — every acknowledged effect and the applied ledger with
	// it — instead of dropping them and starting from empty state. It
	// requires an explicit StateBackend — a default per-run backend cannot
	// hold a previous run's state.
	StateResume bool
	// Telemetry, when non-nil, receives live metrics from the run: per-worker
	// pull/ack/emit-flush latency histograms and batch sizes, transport
	// queue-depth gauges, managed-state per-op latencies and fence-drop
	// counts, and sampled task-hop traces. The registry may be shared across
	// runs (counters accumulate); nil keeps every hot path uninstrumented.
	Telemetry *telemetry.Registry
	// TelemetryEvery, with Telemetry set, records a flight-recorder snapshot
	// of the registry at this period while the run executes (0 disables).
	TelemetryEvery time.Duration
	// Diagnosis, when non-nil, receives bottleneck-attribution signals from
	// the run: the per-PE/per-edge flow ledger (tasks, bytes, service time,
	// sampled queue wait, fence drops, replays) fed by the worker loop and
	// router, and the run-event journal (worker lifecycle, reclaims, lease
	// extensions, fence drops, sizer resizes, drain milestones).
	// Critical-path decomposition additionally needs Telemetry (it reads the
	// tracer's assembled paths); the straggler detector needs TelemetryEvery
	// flights. Like the registry, a Diag may be shared across runs, in which
	// case ledger rows accumulate. nil costs a pointer test and nothing else.
	Diagnosis *diagnosis.Diag
}

// WithDefaults fills zero-valued fields.
func (o Options) WithDefaults() Options {
	if o.Processes <= 0 {
		o.Processes = 1
	}
	if o.Platform.Cores == 0 {
		o.Platform = platform.Server
	}
	return o
}

// Mapping executes abstract workflows on a concrete engine.
type Mapping interface {
	// Name is the technique label used in reports and the registry.
	Name() string
	// Execute runs the workflow and reports its metrics.
	Execute(g *graph.Graph, opts Options) (metrics.Report, error)
}

var (
	registryMu sync.RWMutex
	registry   = map[string]Mapping{}
)

// Register adds a mapping to the global registry. Mapping packages call it
// from init; duplicate names panic immediately.
func Register(m Mapping) {
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[m.Name()]; dup {
		panic(fmt.Sprintf("mapping: duplicate registration of %q", m.Name()))
	}
	registry[m.Name()] = m
}

// Get looks up a registered mapping by name.
func Get(name string) (Mapping, error) {
	registryMu.RLock()
	defer registryMu.RUnlock()
	m, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("mapping: unknown mapping %q (have %v)", name, Names())
	}
	return m, nil
}

// Names returns the registered mapping names, sorted.
func Names() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
