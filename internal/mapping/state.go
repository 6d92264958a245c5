package mapping

import (
	"fmt"

	"repro/internal/diagnosis"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/state"
)

// ManagedState is one run's view of the state subsystem: a store per
// managed-state node, resume/checkpoint policy applied, and cleanup
// responsibility tracked. Every mapping builds one at the start of Execute
// and calls Finish when the run ends.
//
// The engine contract it supports (see package state): one namespace per
// (workflow, PE) shared by all instances, and the node's Final hook runs
// exactly once per run against that namespace.
type ManagedState struct {
	backend state.Backend
	owned   bool
	stores  map[string]state.Store
	fenced  map[string]*state.FencedStore
	nodes   []*graph.Node
	opsBase metrics.StateOps
}

// OpenManagedState opens a store for every managed-state node of g. When
// opts.StateBackend is nil, newDefault supplies a private per-run backend
// that Finish disposes of. For graphs without managed state it returns an
// inert handle (all methods are no-ops) without calling newDefault.
func OpenManagedState(g *graph.Graph, opts Options, newDefault func() state.Backend) (*ManagedState, error) {
	ms := &ManagedState{stores: map[string]state.Store{}, fenced: map[string]*state.FencedStore{}}
	ms.nodes = g.ManagedStateNodes()
	if len(ms.nodes) == 0 {
		return ms, nil
	}
	if opts.StateResume && opts.StateBackend == nil {
		// A default backend is private to this run and cannot hold a
		// previous run's checkpoints; resuming from it would silently start
		// empty and report partial aggregates as success.
		return nil, fmt.Errorf("state: Options.StateResume requires an explicit Options.StateBackend holding the previous run's state")
	}
	if opts.StateBackend != nil {
		ms.backend = opts.StateBackend
	} else {
		ms.backend = newDefault()
		ms.owned = true
	}
	ms.opsBase = ms.backend.Ops()
	for _, n := range ms.nodes {
		ns := state.Namespace(g.Name, n.Name)
		if !opts.StateResume {
			// Fresh run: leftover live state *and checkpoints* from an
			// earlier run on the same backend must not contaminate this run
			// or a later resume, so drop the whole namespace before opening.
			if err := ms.backend.DropNamespace(ns); err != nil {
				return nil, fmt.Errorf("state: reset namespace for PE %s: %w", n.Name, err)
			}
		}
		st, err := ms.backend.Open(ns)
		if err != nil {
			return nil, fmt.Errorf("state: open store for PE %s: %w", n.Name, err)
		}
		if opts.StateResume {
			// Resume from the last durable checkpoint when one exists;
			// otherwise whatever live state survived is the best available.
			if _, err := state.RestoreLatest(ms.backend, st); err != nil {
				return nil, fmt.Errorf("state: resume PE %s: %w", n.Name, err)
			}
		}
		chain := st
		if opts.StateCheckpointEvery > 0 {
			cs := state.NewCheckpointStore(st, ms.backend, opts.StateCheckpointEvery)
			if opts.Diagnosis != nil {
				nodeName := n.Name
				cs.OnCheckpoint = func() {
					opts.Diagnosis.Log(diagnosis.EvCheckpoint, -1, nodeName, "", 1)
				}
			}
			chain = cs
		}
		if opts.Telemetry != nil {
			// Instrumentation sits outside the checkpointing chain so a
			// mutation's observed latency includes any checkpoint write it
			// triggers, and inside the fence so ledger traffic is timed like
			// the data traffic it protects. It forwards the fenced Op as it
			// is, so timing never degrades the fence.
			chain = state.InstrumentStore(chain, opts.Telemetry.State())
		}
		ms.stores[n.Name] = chain
		if opts.ExactlyOnceState || opts.RecoverStale {
			// Fence the namespace against duplicate task executions. The
			// fence wraps the checkpointing chain, so its applied ledger is
			// written (and checkpointed) like workflow data, while the raw
			// backend store underneath still applies each fenced Op in one
			// step (a single FENCEAPPLY round trip on Redis).
			fs := state.NewFencedStore(chain)
			if opts.Telemetry != nil {
				fs.SetDropCounter(&opts.Telemetry.State().FenceDrops)
			}
			if opts.Diagnosis != nil {
				// Attribute drops to the PE whose namespace fenced them, and
				// journal each one (drops are the cold replay path).
				fs.SetDropCounter(&opts.Diagnosis.PE(n.Name).FenceDrops)
				nodeName := n.Name
				fs.SetDropNotify(func() {
					opts.Diagnosis.Log(diagnosis.EvFenceDrop, -1, nodeName, "duplicate mutation dropped", 1)
				})
			}
			ms.fenced[n.Name] = fs
		}
	}
	return ms, nil
}

// Store returns the managed store of a node, or nil when the node declared
// no managed state.
func (ms *ManagedState) Store(nodeName string) state.Store { return ms.stores[nodeName] }

// Fenced returns the node's fenced store when exactly-once fencing is on
// (Options.ExactlyOnceState, implied by RecoverStale), nil otherwise. The
// runtime binds one FenceScope per worker onto it and routes task contexts
// through the scope instead of the bare store.
func (ms *ManagedState) Fenced(nodeName string) *state.FencedStore { return ms.fenced[nodeName] }

// ExactlyOnce reports whether any namespace of this run is fenced — the
// signal for the runtime to stamp tasks with fencing identities.
func (ms *ManagedState) ExactlyOnce() bool { return len(ms.fenced) > 0 }

// Ops reports the store operations performed during this run.
func (ms *ManagedState) Ops() metrics.StateOps {
	if ms.backend == nil {
		return metrics.StateOps{}
	}
	return ms.backend.Ops().Sub(ms.opsBase)
}

// Finish releases the run's state resources. On success (or with a private
// per-run backend) every namespace is dropped; on failure against an
// external backend the namespaces — live state and checkpoints — are kept
// so a follow-up run can resume.
func (ms *ManagedState) Finish(g *graph.Graph, success bool) {
	if ms.backend == nil {
		return
	}
	if success || ms.owned {
		for _, n := range ms.nodes {
			_ = ms.backend.DropNamespace(state.Namespace(g.Name, n.Name))
		}
	}
	if ms.owned {
		_ = ms.backend.Close()
	}
}
