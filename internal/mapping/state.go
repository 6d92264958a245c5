package mapping

import (
	"fmt"

	"repro/internal/diagnosis"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/state"
)

// ManagedState is one run's view of the state subsystem: a FencedStore per
// managed-state node — the one link between the node's PEs and its backend
// store — resume policy applied, and cleanup responsibility tracked. Every
// mapping builds one at the start of Execute and calls Finish when the run
// ends.
//
// The engine contract it supports (see package state): one namespace per
// (workflow, PE) shared by all instances, and the node's Final hook runs
// exactly once per run against that namespace.
type ManagedState struct {
	backend state.Backend
	owned   bool
	fenced  bool // the runtime binds scopes to deliveries (ExactlyOnceState)
	stores  map[string]*state.FencedStore
	nodes   []*graph.Node
}

// OpenManagedState opens a store for every managed-state node of g. When
// opts.StateBackend is nil, newDefault supplies a private per-run backend
// that Finish disposes of. For graphs without managed state it returns an
// inert handle (all methods are no-ops) without calling newDefault.
func OpenManagedState(g *graph.Graph, opts Options, newDefault func() state.Backend) (*ManagedState, error) {
	ms := &ManagedState{stores: map[string]*state.FencedStore{}}
	ms.nodes = g.ManagedStateNodes()
	if len(ms.nodes) == 0 {
		return ms, nil
	}
	if opts.StateResume && opts.StateBackend == nil {
		// A default backend is private to this run and cannot hold a
		// previous run's state; resuming from it would silently start empty
		// and report partial aggregates as success.
		return nil, fmt.Errorf("state: Options.StateResume requires an explicit Options.StateBackend holding the previous run's state")
	}
	if opts.StateBackend != nil {
		ms.backend = opts.StateBackend
	} else {
		ms.backend = newDefault()
		ms.owned = true
	}
	ms.fenced = opts.ExactlyOnceState || opts.RecoverStale
	for _, n := range ms.nodes {
		ns := state.Namespace(g.Name, n.Name)
		if !opts.StateResume {
			// Fresh run: leftover live state and checkpoints from an earlier
			// run on the same backend must not contaminate this run or a
			// later resume, so drop the whole namespace before opening. A
			// resumed run opens the live namespace the failed run kept,
			// applied ledger included.
			if err := ms.backend.DropNamespace(ns); err != nil {
				return nil, fmt.Errorf("state: reset namespace for PE %s: %w", n.Name, err)
			}
		}
		st, err := ms.backend.Open(ns)
		if err != nil {
			return nil, fmt.Errorf("state: open store for PE %s: %w", n.Name, err)
		}
		fs := state.NewFencedStore(st)
		if opts.Telemetry != nil {
			fs.Instrument(opts.Telemetry.State())
		}
		if ms.fenced {
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
		}
		ms.stores[n.Name] = fs
	}
	return ms, nil
}

// Scope returns a new handle onto the node's namespace — one per worker, the
// store its PE context carries — or nil when the node declared no managed
// state.
func (ms *ManagedState) Scope(nodeName string) *state.FenceScope {
	if fs := ms.stores[nodeName]; fs != nil {
		return fs.NewScope()
	}
	return nil
}

// Fenced returns the node's fenced store when exactly-once fencing is on
// (Options.ExactlyOnceState, implied by RecoverStale), nil otherwise. The
// runtime binds each worker's scope on it to the delivery it executes.
func (ms *ManagedState) Fenced(nodeName string) *state.FencedStore {
	if !ms.fenced {
		return nil
	}
	return ms.stores[nodeName]
}

// Store returns the node's link onto its namespace, nil when the node
// declared no managed state.
func (ms *ManagedState) Store(nodeName string) *state.FencedStore { return ms.stores[nodeName] }

// ExactlyOnce reports whether any namespace of this run is fenced — the
// signal for the runtime to stamp tasks with fencing identities.
func (ms *ManagedState) ExactlyOnce() bool { return ms.fenced && len(ms.stores) > 0 }

// Ops reports the store operations performed during this run, summed over
// its namespaces.
func (ms *ManagedState) Ops() metrics.StateOps {
	var ops metrics.StateOps
	for _, fs := range ms.stores {
		ops = ops.Add(fs.Ops())
	}
	return ops
}

// Finish releases the run's state resources. On success (or with a private
// per-run backend) every namespace is dropped; on failure against an
// external backend the namespaces are kept so a follow-up run can resume
// from them.
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
