// Package mpi is the static MPI-style mapping. It is a planner: the same
// instance allocation as multi, one fixed rank (pinned worker) per PE
// instance, each with its own bounded box on the in-process transport.
// Like the paper's MPI mapping it is static only — there is no shared
// queue, so neither dynamic scheduling nor auto-scaling can be layered on it
// (the pinned transport rejects pool routing outright): "traditional MPI
// lacks support for a queue-based system crucial for dynamic task
// assignments". A push into a full box waits for room, as MPI's
// standard-mode send may block.
//
// Managed keyed state is supported: the shared runtime coordinator drains
// the rank boxes and flushes each managed node's Final exactly once, so the
// rank-level finalization barrier falls out of the unified termination
// protocol instead of needing an MPI-specific one.
package mpi

import (
	"repro/internal/graph"
	"repro/internal/mapping"
	"repro/internal/metrics"
	"repro/internal/multiproc"
)

// Mapping is the static MPI-style enactment.
type Mapping struct{}

func init() { mapping.Register(Mapping{}) }

// Name implements mapping.Mapping.
func (Mapping) Name() string { return "mpi" }

// Execute implements mapping.Mapping.
func (Mapping) Execute(g *graph.Graph, opts mapping.Options) (metrics.Report, error) {
	return multiproc.ExecutePinned("mpi", g, opts)
}
