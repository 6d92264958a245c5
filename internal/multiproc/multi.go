// Package multiproc implements the paper's baseline "multi" mapping: the
// native static Multiprocessing enactment. Every PE instance is pinned to
// its own simulated process with a private bounded input channel; senders
// route values across destination instances according to the edge grouping.
//
// Since the unified worker runtime (package runtime) absorbed the worker
// loop, this package is a planner: it resolves the instance allocation,
// pins one worker per instance, and runs the plan on the in-process channel
// transport. Because each instance is a dedicated process holding its own
// PE value, multi supports stateful PEs and every grouping out of the box —
// the property that makes it the paper's baseline for the stateful
// comparison.
package multiproc

import (
	"repro/internal/graph"
	"repro/internal/mapping"
	"repro/internal/metrics"
	"repro/internal/platform"
	"repro/internal/runtime"
	"repro/internal/state"
)

// Multi is the static Multiprocessing mapping.
type Multi struct{}

func init() { mapping.Register(Multi{}) }

// Name implements mapping.Mapping.
func (Multi) Name() string { return "multi" }

// Execute implements mapping.Mapping.
func (Multi) Execute(g *graph.Graph, opts mapping.Options) (metrics.Report, error) {
	// Channel sends are cheap, so tasks are unbatched to preserve the
	// paper's per-instance queue behaviour.
	opts = opts.WithDefaults()
	if err := g.Validate(); err != nil {
		return metrics.Report{}, err
	}
	alloc, err := g.AllocateInstances(opts.Processes)
	if err != nil {
		return metrics.Report{}, err
	}
	plan := runtime.PinnedPlan(g, alloc)
	return runtime.Execute(g, opts, runtime.Config{
		Name:              "multi",
		Plan:              plan,
		Transport:         runtime.NewChanTransport(plan, 256),
		Host:              platform.NewHost(opts.Platform),
		NewStateBackend:   func() state.Backend { return state.NewMemoryBackend() },
		PinnedIdleStandby: true,
	})
}
