package redismap

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/mapping"
	"repro/internal/metrics"
	"repro/internal/runtime"
)

// Hybrid is the hybrid_redis mapping: stateful PE instances are pinned to
// dedicated processes with private queues; stateless PEs share a dynamic
// pool on the global stream. It is the only dynamic-scheduling mapping that
// supports stateful PEs and groupings.
type Hybrid struct{}

// HybridAuto is hybrid_auto_redis: the hybrid mapping with the Algorithm 1
// auto-scaler applied to its stateless pool. The paper leaves this
// combination explicitly for future work ("given we did not equip
// auto-scaling optimization to it, hybrid_redis does not achieve the same
// efficiency"); this mapping closes that gap. Stateful pinned processes are
// never scaled (their state is place-bound); only the dynamic stateless
// workers cycle between active and idle.
type HybridAuto struct{}

func init() {
	mapping.Register(Hybrid{})
	mapping.Register(HybridAuto{})
}

// Name implements mapping.Mapping.
func (Hybrid) Name() string { return "hybrid_redis" }

// Name implements mapping.Mapping.
func (HybridAuto) Name() string { return "hybrid_auto_redis" }

// Execute implements mapping.Mapping.
func (Hybrid) Execute(g *graph.Graph, opts mapping.Options) (metrics.Report, error) {
	return execute(g, opts, "hybrid_redis", false, planHybrid)
}

// Execute implements mapping.Mapping.
func (HybridAuto) Execute(g *graph.Graph, opts mapping.Options) (metrics.Report, error) {
	return execute(g, opts, "hybrid_auto_redis", true, planHybrid)
}

// planHybrid checks the graph (validateHybrid) and computes the process
// split as a runtime plan: every stateful instance gets a pinned worker with
// a private queue, and the remaining budget forms the dynamic stateless
// pool, enforcing the paper's minimum ("stateless PE instances are assigned
// to the available processes that are not dedicated to stateful tasks ... N
// − number of stateful PE instances").
func planHybrid(g *graph.Graph, _ string, processes int) (runtime.Plan, error) {
	if err := validateHybrid(g); err != nil {
		return runtime.Plan{}, err
	}
	var pinned []runtime.WorkerSpec
	instances := make(map[string]int, len(g.Nodes()))
	for _, n := range g.Nodes() {
		if !n.Stateful {
			instances[n.Name] = 0
			continue
		}
		if n.IsSource() {
			return runtime.Plan{}, fmt.Errorf("hybrid_redis: source PE %s cannot be stateful", n.Name)
		}
		count := statefulInstances(n)
		instances[n.Name] = count
		for i := 0; i < count; i++ {
			pinned = append(pinned, runtime.WorkerSpec{PE: n.Name, Instance: i})
		}
	}
	stateless := processes - len(pinned)
	if stateless < 1 {
		return runtime.Plan{}, fmt.Errorf(
			"hybrid_redis: workflow %s needs at least %d processes (%d stateful instances + 1 stateless worker), got %d",
			g.Name, len(pinned)+1, len(pinned), processes)
	}
	workers := make([]runtime.WorkerSpec, stateless)
	workers = append(workers, pinned...)
	return runtime.NewPlan(workers, instances), nil
}

// statefulInstances is the pinned instance count of a stateful node
// (explicit Instances, defaulting to 1).
func statefulInstances(n *graph.Node) int {
	if n.Instances > 0 {
		return n.Instances
	}
	return 1
}

// validateHybrid checks the stateless part of the graph against dynamic
// scheduling's limits: stateless PEs cannot carry Final hooks, and grouped
// edges must target stateful nodes (a grouped edge into a stateless pool has
// no stable instance identity to route to).
func validateHybrid(g *graph.Graph) error {
	for _, n := range g.Nodes() {
		if n.Stateful {
			continue
		}
		if _, ok := n.Prototype.(core.Finalizer); ok {
			return fmt.Errorf("hybrid_redis: stateless PE %s implements Final; mark it stateful to give it pinned instances", n.Name)
		}
	}
	for _, e := range g.Edges() {
		if e.Grouping.Kind != graph.Shuffle && !g.Node(e.To).Stateful {
			return fmt.Errorf("hybrid_redis: edge %s→%s uses %s grouping into a stateless PE; mark %s stateful", e.From, e.To, e.Grouping.Kind, e.To)
		}
	}
	return nil
}
