package state

import (
	"time"

	"repro/internal/telemetry"
)

// instrumentedStore times every store operation into the run's shared
// StateMetrics histograms. It sits between the durability chain (backend
// store, optionally inside a CheckpointStore — so a mutation's latency
// includes any checkpoint it triggers) and the exactly-once fence, so fenced
// mutations are timed like plain ones.
type instrumentedStore struct {
	mutations
	inner Store
	sm    *telemetry.StateMetrics
	byOp  [numOpKinds]*telemetry.Histogram // sm's mutation histograms by Op kind
}

// InstrumentStore wraps a store chain with per-operation latency telemetry.
func InstrumentStore(inner Store, sm *telemetry.StateMetrics) Store {
	s := &instrumentedStore{inner: inner, sm: sm}
	s.byOp = [numOpKinds]*telemetry.Histogram{OpPut: sm.Put, OpDelete: sm.Delete, OpAddInt: sm.Add, OpUpdate: sm.Update}
	s.mutations.to = s
	return s
}

// Namespace implements Store.
func (s *instrumentedStore) Namespace() string { return s.inner.Namespace() }

// Get implements Store.
func (s *instrumentedStore) Get(key string) (string, bool, error) {
	start := time.Now()
	v, ok, err := s.inner.Get(key)
	s.sm.Get.ObserveSince(start)
	return v, ok, err
}

// Apply implements Store, timing the mutation into its kind's histogram.
func (s *instrumentedStore) Apply(op Op) (Result, error) {
	start := time.Now()
	res, err := s.inner.Apply(op)
	s.byOp[op.Kind].ObserveSince(start)
	return res, err
}

// Keys implements Store.
func (s *instrumentedStore) Keys() ([]string, error) {
	start := time.Now()
	keys, err := s.inner.Keys()
	s.sm.List.ObserveSince(start)
	return keys, err
}

// Len implements Store.
func (s *instrumentedStore) Len() (int, error) {
	start := time.Now()
	n, err := s.inner.Len()
	s.sm.List.ObserveSince(start)
	return n, err
}

// home forwards the wrapped chain's home (see homed).
func (s *instrumentedStore) home() (key, addr string) { return homeOf(s.inner) }

// Snapshot implements Store.
func (s *instrumentedStore) Snapshot() (Snapshot, error) {
	start := time.Now()
	snap, err := s.inner.Snapshot()
	s.sm.Snapshot.ObserveSince(start)
	return snap, err
}

// Restore implements Store.
func (s *instrumentedStore) Restore(snap Snapshot) error {
	start := time.Now()
	err := s.inner.Restore(snap)
	s.sm.Restore.ObserveSince(start)
	return err
}

// Clear implements Store (untimed: it runs outside the execution hot path).
func (s *instrumentedStore) Clear() error { return s.inner.Clear() }

var _ Store = (*instrumentedStore)(nil)
