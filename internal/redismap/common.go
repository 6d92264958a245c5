// Package redismap implements the paper's Redis-backed mappings:
//
//   - dyn_redis (Section 3.1.1): dynamic scheduling whose global queue is a
//     Redis Stream consumed through a consumer group, replacing the
//     multiprocessing queue of dyn_multi;
//   - dyn_auto_redis (Section 3.2.2): dyn_redis plus the Algorithm 1
//     auto-scaler;
//   - hybrid_redis (Section 3.1.2): stateful PE instances pinned to
//     dedicated processes with private Redis stream partitions, while
//     stateless PEs keep dynamic scheduling on the global stream;
//   - hybrid_auto_redis: hybrid_redis with the auto-scaler on its stateless
//     pool, the combination the paper leaves for future work. Stateful
//     pinned processes are never scaled (their state is place-bound); only
//     the stateless workers cycle between active and idle.
//
// Each mapping is one row of the planner table in this file: a name, whether
// it auto-scales, and its plan (planDyn or planHybrid).
//
// The auto mappings only set runtime.Config.AutoScale: runtime wires the
// controller as it does for dyn_auto_multi, so the one default is
// DemandStrategy over Transport.Pending(), and a strategy passed in
// Options.Strategy brings the signal it reads. The paper's idle-time policy
// (autoscale.IdleTimeStrategy) reads the workers' in-process idle clocks.
//
// The mappings are planners over runtime.RedisTransport: tasks are
// flat-binary-encoded (package codec) and shipped through real TCP
// connections to the Redis servers (internal/miniredis in this repository),
// so the cost structure of the Redis mappings — heavier than in-process
// queues, as the paper observes — is physically present rather than
// assumed. The servers must be miniredis: the mappings speak RESP2, but
// they issue commands of its own that a stock Redis does not serve —
// FENCEAPPLY, FENCEXACK, SINKAPPEND and XREADGROUP's LEASES option. Every Redis planner sizes its emit
// and pull windows adaptively (runtime.Config.AdaptiveBatching), and the
// transport pipelines the XADD commands of an emit batch into one round trip
// per shard.
//
// Every Redis-touching component of a run — transport, state backend, fence
// ledger — shares one redisclient.Cluster built here, so
// they agree on shard placement (the co-location invariant behind
// single-shard FENCEAPPLY/SINKAPPEND transactions) and no code path opens
// its own unrouted connection.
package redismap

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/mapping"
	"repro/internal/metrics"
	"repro/internal/platform"
	"repro/internal/redisclient"
	"repro/internal/runtime"
	"repro/internal/state"
)

// planner is one Redis mapping. plan is what tells them apart: it checks the
// graph against the mapping's scheduling limits and splits the process budget
// into workers. auto asks runtime for the Algorithm 1 auto-scaler on the
// plan's pool, wired as on every other transport.
type planner struct {
	name string
	auto bool
	plan func(g *graph.Graph, name string, processes int) (runtime.Plan, error)
}

func init() {
	for _, p := range []planner{
		{name: "dyn_redis", plan: planDyn},
		{name: "dyn_auto_redis", auto: true, plan: planDyn},
		{name: "hybrid_redis", plan: planHybrid},
		{name: "hybrid_auto_redis", auto: true, plan: planHybrid},
	} {
		mapping.Register(p)
	}
}

// Name implements mapping.Mapping.
func (p planner) Name() string { return p.name }

// Execute implements mapping.Mapping; it is the body of every Redis mapping.
//
// With RecoverStale, stale deliveries are reclaimed through XAUTOCLAIM on
// the pool and the private streams alike (pulled frames sit in the consumer
// group's PEL until acked, so a stalled delivery is reclaimable, not lost).
// Managed state stays safe under the resulting replays: OpenManagedState
// (inside runtime.Execute) implies ExactlyOnceState, which stamps every task
// with a deterministic identity and drops store mutations a replayed
// execution already applied, while the transport's ownership-checked
// FENCEXACK keeps the pending counter exact when a claimed-away consumer's
// late ack lands.
func (p planner) Execute(g *graph.Graph, opts mapping.Options) (metrics.Report, error) {
	opts = opts.WithDefaults()
	if err := g.Validate(); err != nil {
		return metrics.Report{}, err
	}
	plan, err := p.plan(g, p.name, opts.Processes)
	if err != nil {
		return metrics.Report{}, err
	}
	cluster, err := requireCluster(opts, p.name)
	if err != nil {
		return metrics.Report{}, err
	}
	defer cluster.Close()

	keys := runtime.NewRunKeys(g.Name, opts.Seed)
	tr, err := runtime.NewRedisTransport(cluster, keys, plan, opts.RecoverStale)
	if err != nil {
		return metrics.Report{}, fmt.Errorf("%s: %w", p.name, err)
	}
	tr.SetDiagnosis(opts.Diagnosis)
	defer tr.Cleanup(g)

	return runtime.Execute(g, opts, runtime.Config{
		Name:      p.name,
		Plan:      plan,
		Transport: tr,
		Host:      platform.NewHost(opts.Platform),
		AutoScale: p.auto,
		NewStateBackend: func() state.Backend {
			return state.NewRedisClusterBackend(cluster, keys.Prefix+":state")
		},
		// Redis round trips dominate this mapping's per-task cost.
		AdaptiveBatching: true,
	})
}

// planDyn checks the graph against dynamic scheduling's limits and places
// every node on one shared pool of all the processes.
func planDyn(g *graph.Graph, name string, processes int) (runtime.Plan, error) {
	if err := runtime.ValidateDynamic(g, name); err != nil {
		return runtime.Plan{}, err
	}
	return runtime.PoolPlan(g, processes), nil
}

// requireCluster validates the Redis data-plane addresses and dials the
// run's shared shard cluster. The caller owns the handle (defer Close).
func requireCluster(opts mapping.Options, technique string) (*redisclient.Cluster, error) {
	if len(opts.RedisAddrs) == 0 {
		return nil, fmt.Errorf("%s: Options.RedisAddrs is required (start internal/miniredis and pass its address)", technique)
	}
	cluster, err := redisclient.NewCluster(opts.RedisAddrs)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", technique, err)
	}
	if err := cluster.Ping(); err != nil {
		cluster.Close()
		return nil, fmt.Errorf("%s: redis unreachable: %w", technique, err)
	}
	return cluster, nil
}
