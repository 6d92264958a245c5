package redismap

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/runtime"
)

// planHybrid checks the graph (validateHybrid) and computes the process
// split as a runtime plan: every stateful instance gets a pinned worker with
// a private queue, and the remaining budget forms the dynamic stateless
// pool, enforcing the paper's minimum ("stateless PE instances are assigned
// to the available processes that are not dedicated to stateful tasks ... N
// − number of stateful PE instances").
func planHybrid(g *graph.Graph, name string, processes int) (runtime.Plan, error) {
	if err := validateHybrid(g, name); err != nil {
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
			return runtime.Plan{}, fmt.Errorf("%s: source PE %s cannot be stateful", name, n.Name)
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
			"%s: workflow %s needs at least %d processes (%d stateful instances + 1 stateless worker), got %d",
			name, g.Name, len(pinned)+1, len(pinned), processes)
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
func validateHybrid(g *graph.Graph, name string) error {
	for _, n := range g.Nodes() {
		if n.Stateful {
			continue
		}
		if _, ok := n.Prototype.(core.Finalizer); ok {
			return fmt.Errorf("%s: stateless PE %s implements Final; mark it stateful to give it pinned instances", name, n.Name)
		}
	}
	for _, e := range g.Edges() {
		if e.Grouping.Kind != graph.Shuffle && !g.Node(e.To).Stateful {
			return fmt.Errorf("%s: edge %s→%s uses %s grouping into a stateless PE; mark %s stateful", name, e.From, e.To, e.Grouping.Kind, e.To)
		}
	}
	return nil
}
