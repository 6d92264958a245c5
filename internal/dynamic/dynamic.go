// Package dynamic implements the paper's dynamic scheduling optimization
// over the in-process global queue (the dyn_multi mapping) and its
// auto-scaling extension (dyn_auto_multi). Workers hold a private copy of
// the whole workflow, fetch (PE, data) tasks from the shared queue, execute
// them, and push the results back — the "dynamic PE-Process mode" of the
// paper's Figure 2.
//
// The worker loop, queue, termination protocol and auto-scaler wiring live in
// package runtime; this package is a planner: it validates the workflow
// against dynamic scheduling's limits and builds a pool plan over the queue
// transport. dyn_auto_multi only asks runtime for the Algorithm 1
// auto-scaler, which every auto mapping gets the same way: the default
// DemandStrategy sizes the active pool to the outstanding tasks, and
// Options.Strategy swaps in another strategy together with the signal it
// reads.
package dynamic

import (
	"repro/internal/graph"
	"repro/internal/mapping"
	"repro/internal/metrics"
	"repro/internal/platform"
	"repro/internal/runtime"
	"repro/internal/state"
)

// Dyn is the dyn_multi mapping: dynamic scheduling over the in-process
// global queue, without auto-scaling.
type Dyn struct{}

// DynAuto is the dyn_auto_multi mapping: Dyn plus the Algorithm 1
// auto-scaler.
type DynAuto struct{}

func init() {
	mapping.Register(Dyn{})
	mapping.Register(DynAuto{})
}

// Name implements mapping.Mapping.
func (Dyn) Name() string { return "dyn_multi" }

// Name implements mapping.Mapping.
func (DynAuto) Name() string { return "dyn_auto_multi" }

// Execute implements mapping.Mapping.
func (Dyn) Execute(g *graph.Graph, opts mapping.Options) (metrics.Report, error) {
	return execute(g, opts, "dyn_multi", false)
}

// Execute implements mapping.Mapping.
func (DynAuto) Execute(g *graph.Graph, opts mapping.Options) (metrics.Report, error) {
	return execute(g, opts, "dyn_auto_multi", true)
}

func execute(g *graph.Graph, opts mapping.Options, name string, auto bool) (metrics.Report, error) {
	// No batching: the per-op queue synchronization cost IS the
	// multiprocessing overhead the paper's dyn_multi curves measure, so
	// amortizing it would change the reproduced baselines.
	opts = opts.WithDefaults()
	if err := g.Validate(); err != nil {
		return metrics.Report{}, err
	}
	if err := runtime.ValidateDynamic(g, name); err != nil {
		return metrics.Report{}, err
	}

	host := platform.NewHost(opts.Platform)
	tr := runtime.NewQueueTransport(runtime.NewQueue(host.SyncCost()))

	return runtime.Execute(g, opts, runtime.Config{
		Name:            name,
		Plan:            runtime.PoolPlan(g, opts.Processes),
		Transport:       tr,
		Host:            host,
		AutoScale:       auto,
		NewStateBackend: func() state.Backend { return state.NewMemoryBackend() },
	})
}
