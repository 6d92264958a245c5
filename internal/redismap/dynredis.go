package redismap

import (
	"repro/internal/graph"
	"repro/internal/mapping"
	"repro/internal/metrics"
	"repro/internal/runtime"
)

// DynRedis is the dyn_redis mapping.
type DynRedis struct{}

// DynAutoRedis is the dyn_auto_redis mapping.
type DynAutoRedis struct{}

func init() {
	mapping.Register(DynRedis{})
	mapping.Register(DynAutoRedis{})
}

// Name implements mapping.Mapping.
func (DynRedis) Name() string { return "dyn_redis" }

// Name implements mapping.Mapping.
func (DynAutoRedis) Name() string { return "dyn_auto_redis" }

// Execute implements mapping.Mapping.
func (DynRedis) Execute(g *graph.Graph, opts mapping.Options) (metrics.Report, error) {
	return execute(g, opts, "dyn_redis", false, planDyn)
}

// Execute implements mapping.Mapping.
func (DynAutoRedis) Execute(g *graph.Graph, opts mapping.Options) (metrics.Report, error) {
	return execute(g, opts, "dyn_auto_redis", true, planDyn)
}

// planDyn checks the graph against dynamic scheduling's limits and places
// every node on one shared pool of all the processes.
func planDyn(g *graph.Graph, name string, processes int) (runtime.Plan, error) {
	if err := runtime.ValidateDynamic(g, name); err != nil {
		return runtime.Plan{}, err
	}
	return runtime.PoolPlan(g, processes), nil
}
