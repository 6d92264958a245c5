package mpi

import (
	"repro/internal/graph"
	"repro/internal/mapping"
	"repro/internal/metrics"
	"repro/internal/platform"
	"repro/internal/runtime"
	"repro/internal/state"
)

// Mapping is the static MPI-style enactment: the same instance allocation
// as multi, but every connection is realized as point-to-point messages
// between fixed ranks over a World. Like the paper's MPI mapping it is
// static only — there is no shared queue, so neither dynamic scheduling nor
// auto-scaling can be layered on it (the rank transport rejects pool
// routing outright).
//
// Managed keyed state is supported: the shared runtime coordinator drains
// the rank mailboxes and flushes each managed node's Final exactly once, so
// the rank-level finalization barrier the seed lacked now falls out of the
// unified termination protocol instead of needing an MPI-specific one.
type Mapping struct{}

func init() { mapping.Register(Mapping{}) }

// Name implements mapping.Mapping.
func (Mapping) Name() string { return "mpi" }

// Execute implements mapping.Mapping.
func (Mapping) Execute(g *graph.Graph, opts mapping.Options) (metrics.Report, error) {
	// Rank mailboxes are in-process, so tasks are unbatched like multi's.
	opts = opts.WithDefaults()
	if err := g.Validate(); err != nil {
		return metrics.Report{}, err
	}
	alloc, err := g.AllocateInstances(opts.Processes)
	if err != nil {
		return metrics.Report{}, err
	}
	plan := runtime.PinnedPlan(g, alloc)
	world, err := NewWorld(len(plan.Workers))
	if err != nil {
		return metrics.Report{}, err
	}
	defer world.Close()
	tr, err := runtime.NewRankTransport(world, plan)
	if err != nil {
		return metrics.Report{}, err
	}
	return runtime.Execute(g, opts, runtime.Config{
		Name:              "mpi",
		Plan:              plan,
		Transport:         tr,
		Host:              platform.NewHost(opts.Platform),
		NewStateBackend:   func() state.Backend { return state.NewMemoryBackend() },
		PinnedIdleStandby: true,
	})
}
