package state

import (
	"time"

	"repro/internal/telemetry"
)

// instrumentedStore times every store operation into the run's shared
// StateMetrics histograms. It sits between the durability chain (backend
// store, optionally inside a CheckpointStore — so a mutation's latency
// includes any checkpoint it triggers) and the exactly-once fence, and
// forwards the chain's fenced mutations so they are timed like plain ones.
type instrumentedStore struct {
	inner  Store
	fenced fencedMutator // inner's fenced contract
	sm     *telemetry.StateMetrics
}

// InstrumentStore wraps a store chain with per-operation latency telemetry.
func InstrumentStore(inner Store, sm *telemetry.StateMetrics) Store {
	return &instrumentedStore{inner: inner, fenced: fencedOf(inner), sm: sm}
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

// Put implements Store.
func (s *instrumentedStore) Put(key, value string) error {
	start := time.Now()
	err := s.inner.Put(key, value)
	s.sm.Put.ObserveSince(start)
	return err
}

// Delete implements Store.
func (s *instrumentedStore) Delete(key string) error {
	start := time.Now()
	err := s.inner.Delete(key)
	s.sm.Delete.ObserveSince(start)
	return err
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

// AddInt implements Store.
func (s *instrumentedStore) AddInt(key string, delta int64) (int64, error) {
	start := time.Now()
	n, err := s.inner.AddInt(key, delta)
	s.sm.Add.ObserveSince(start)
	return n, err
}

// FencedAddInt forwards the atomic fenced increment, timed as an Add.
func (s *instrumentedStore) FencedAddInt(ledgerField, key string, delta int64) (bool, int64, error) {
	start := time.Now()
	applied, n, err := s.fenced.FencedAddInt(ledgerField, key, delta)
	s.sm.Add.ObserveSince(start)
	return applied, n, err
}

// FencedPut forwards the atomic fenced set, timed as a Put.
func (s *instrumentedStore) FencedPut(ledgerField, key, value string) (bool, error) {
	start := time.Now()
	applied, err := s.fenced.FencedPut(ledgerField, key, value)
	s.sm.Put.ObserveSince(start)
	return applied, err
}

// FencedDelete forwards the atomic fenced delete, timed as a Delete.
func (s *instrumentedStore) FencedDelete(ledgerField, key string) (bool, error) {
	start := time.Now()
	applied, err := s.fenced.FencedDelete(ledgerField, key)
	s.sm.Delete.ObserveSince(start)
	return applied, err
}

// FencedUpdate forwards the atomic fenced read-modify-write, timed as an
// Update.
func (s *instrumentedStore) FencedUpdate(ledgerField, key string, fn func(string, bool) (string, bool, error)) (bool, error) {
	start := time.Now()
	applied, err := s.fenced.FencedUpdate(ledgerField, key, fn)
	s.sm.Update.ObserveSince(start)
	return applied, err
}

// TaskGateRef implements TaskGater by forwarding to the wrapped chain.
func (s *instrumentedStore) TaskGateRef(tok Token) (hashKey, field string, ok bool) {
	if tg, ok := s.inner.(TaskGater); ok {
		return tg.TaskGateRef(tok)
	}
	return "", "", false
}

// Update implements Store.
func (s *instrumentedStore) Update(key string, fn func(string, bool) (string, bool, error)) error {
	start := time.Now()
	err := s.inner.Update(key, fn)
	s.sm.Update.ObserveSince(start)
	return err
}

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
var _ fencedMutator = (*instrumentedStore)(nil)
