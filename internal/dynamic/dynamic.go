// Package dynamic implements the paper's dynamic scheduling optimization
// over the in-process global queue (the dyn_multi mapping) and its
// auto-scaling extension (dyn_auto_multi). Workers hold a private copy of
// the whole workflow, fetch (PE, data) tasks from the shared queue, execute
// them, and push the results back — the "dynamic PE-Process mode" of the
// paper's Figure 2.
//
// The worker loop, queue and termination protocol live in package runtime;
// this package is a planner: it validates the workflow against dynamic
// scheduling's limits, builds a pool plan over the queue transport, and —
// for dyn_auto_multi — attaches the Algorithm 1 auto-scaler. Its monitor
// samples the transport's outstanding tasks (queued plus in service), and the
// default strategy sizes the active pool to that demand; Options.Strategy can
// put the paper's ±1 QueueSizeStrategy behind the same signal.
package dynamic

import (
	"repro/internal/autoscale"
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
// auto-scaler driven by the demand strategy.
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

	var ctrl *autoscale.Controller
	if auto {
		// Outstanding tasks: one atomic load, cheap enough for every refill.
		demand := func() float64 {
			n, _ := tr.Pending() // the queue transport's Pending cannot fail
			return float64(n)
		}
		strategy := opts.Strategy
		if strategy == nil {
			strategy = autoscale.DemandStrategy{}
		}
		ctrl = autoscale.NewController(opts.AutoScaleConfig(opts.Processes), strategy, opts.Trace)
		if opts.Strategy == nil {
			// The default rule has no memory, so the refill gate evaluates it too.
			ctrl.GateOn(demand)
		}
		go ctrl.RunMonitor(demand)
		defer ctrl.Terminate()
	}

	return runtime.Execute(g, opts, runtime.Config{
		Name:            name,
		Plan:            runtime.PoolPlan(g, opts.Processes),
		Transport:       tr,
		Host:            host,
		Controller:      ctrl,
		NewStateBackend: func() state.Backend { return state.NewMemoryBackend() },
	})
}
