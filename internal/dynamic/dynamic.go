// Package dynamic holds the in-process planners: the paper's mappings whose
// workers exchange tasks through the in-process Queue transport. Each is one
// row of the table below; they differ only in the plan's shape and whether
// the Algorithm 1 auto-scaler runs.
//
//   - multi, the paper's baseline static Multiprocessing enactment, and mpi,
//     its static message-passing variant, are pinned plans: every PE
//     instance gets a dedicated worker with its own bounded box, and senders
//     route values across destination instances by the edge grouping. So
//     stateful PEs and every grouping work out of the box, the property that
//     makes multi the baseline for the stateful comparison. Like the paper's
//     MPI mapping they are static only: there is no shared queue, so neither
//     dynamic scheduling nor auto-scaling can be layered on them (the pinned
//     transport rejects pool routing outright). A push into a full box waits
//     for room, as MPI's standard-mode send may block. Managed keyed state
//     is supported: the coordinator drains the boxes and flushes each managed
//     node's Final exactly once, so the rank-level finalization barrier falls
//     out of the one termination protocol.
//   - dyn_multi, the paper's dynamic scheduling, and dyn_auto_multi, its
//     auto-scaling extension, are pool plans: workers hold a private copy of
//     the whole workflow, fetch (PE, data) tasks from the shared queue,
//     execute them and push the results back, the "dynamic PE-Process mode"
//     of the paper's Figure 2. dyn_auto_multi only asks runtime for the
//     auto-scaler, which every auto mapping gets the same way: the default
//     DemandStrategy sizes the active pool to the outstanding tasks, and
//     Options.Strategy swaps in another strategy together with the signal it
//     reads.
//
// The worker loop, queue, termination protocol and auto-scaler wiring live in
// package runtime; a planner validates the workflow and builds its plan over
// the queue transport. No row batches: one queue operation per task is the
// per-op synchronization cost the paper's multiprocessing curves measure, so
// amortizing it would change the reproduced baselines.
package dynamic

import (
	"repro/internal/graph"
	"repro/internal/mapping"
	"repro/internal/metrics"
	"repro/internal/platform"
	"repro/internal/runtime"
	"repro/internal/state"
)

// planner is one in-process mapping: pinned picks a worker per PE instance
// over bounded boxes instead of one pool over the shared queue, and auto puts
// the auto-scaler in front of the pool.
type planner struct {
	name   string
	pinned bool
	auto   bool
}

func init() {
	for _, p := range []planner{
		{name: "multi", pinned: true},
		{name: "mpi", pinned: true},
		{name: "dyn_multi"},
		{name: "dyn_auto_multi", auto: true},
	} {
		mapping.Register(p)
	}
}

// Name implements mapping.Mapping.
func (p planner) Name() string { return p.name }

// Execute implements mapping.Mapping.
func (p planner) Execute(g *graph.Graph, opts mapping.Options) (metrics.Report, error) {
	opts = opts.WithDefaults()
	if err := g.Validate(); err != nil {
		return metrics.Report{}, err
	}
	host := platform.NewHost(opts.Platform)
	cfg := runtime.Config{
		Name:            p.name,
		Host:            host,
		AutoScale:       p.auto,
		NewStateBackend: func() state.Backend { return state.NewMemoryBackend() },
	}
	if p.pinned {
		alloc, err := g.AllocateInstances(opts.Processes)
		if err != nil {
			return metrics.Report{}, err
		}
		cfg.Plan = runtime.PinnedPlan(g, alloc)
		cfg.Transport = runtime.NewPinnedTransport(cfg.Plan)
	} else {
		if err := runtime.ValidateDynamic(g, p.name); err != nil {
			return metrics.Report{}, err
		}
		cfg.Plan = runtime.PoolPlan(g, opts.Processes)
		cfg.Transport = runtime.NewQueueTransport(runtime.NewQueue(host.SyncCost()))
	}
	return runtime.Execute(g, opts, cfg)
}
