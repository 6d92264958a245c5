// Package state is the managed keyed-state subsystem: it externalizes PE
// state from struct fields into named Stores served by pluggable backends,
// which is what lets stateful PEs scale out, survive restarts, and run under
// dynamic scheduling.
//
// A Store is a keyed map of binary-safe string values living in a namespace.
// Managed-state nodes use one namespace per (workflow, PE): instances of the
// same PE share the namespace, and correctness at instances > 1 comes from
// one of two regimes:
//
//   - partitioned access — GroupBy routing guarantees each key is only
//     touched by its owner instance (static and hybrid mappings);
//   - shared atomic access — any worker may process any task because every
//     store mutation (Put/AddInt/Update) is atomic per key (dynamic
//     mappings, where tasks have no instance affinity).
//
// Two backends implement the contract: a lock-sharded in-memory backend for
// the in-process mappings, and a Redis backend (hashes via
// internal/redisclient) for the distributed ones. Both support durable
// checkpoints, so a killed run can be resumed from its last snapshot —
// "state as the unit of optimization and recovery".
//
// A namespace's store is a chain, built inside out by the mappings:
//
//	backend store → [CheckpointStore] → [InstrumentStore] → FencedStore/FenceScope
//
// and a mutation travels it as a value. An Op says what to do (Put, Delete,
// AddInt or Update on a key); every link has one Apply(Op) that does its own
// job — the scope stamps the delivery's ledger field and counts a drop, the
// instrumentation times, the CheckpointStore counts towards the next
// checkpoint, the backend store applies — and forwards. An Op carrying a
// Ledger field is fenced: the backend records the field and applies the
// mutation in one indivisible step, or applies nothing when it was already
// recorded. FENCEAPPLY is the wire form of a fenced Op on the Redis backend;
// the memory backend does the same under two shard locks.
//
// A fenced Final gates its whole delivery rather than one mutation: its
// TaskGate is one more ledger field of the namespace, which the transport
// carrying the Final's output records — inside the same SINKAPPEND
// transaction as the output when its queues live on the namespace's server,
// through the chain (TaskGate.Admit) otherwise.
package state

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"sort"
	"sync"

	"repro/internal/metrics"
)

// Snapshot is a point-in-time copy of one namespace's entries.
type Snapshot map[string]string

// Clone deep-copies the snapshot.
func (s Snapshot) Clone() Snapshot {
	out := make(Snapshot, len(s))
	for k, v := range s {
		out[k] = v
	}
	return out
}

// Store is one namespace of keyed state. Implementations are safe for
// concurrent use; every mutation is atomic per key.
type Store interface {
	// Apply performs one mutation — the single path every Put, Delete,
	// AddInt and Update below takes (see Op).
	Apply(Op) (Result, error)
	// Namespace returns the store's namespace name.
	Namespace() string
	// Get fetches a key; ok=false when absent.
	Get(key string) (value string, ok bool, err error)
	// Put stores a key.
	Put(key, value string) error
	// Delete removes a key (absent keys are not an error).
	Delete(key string) error
	// Keys lists all keys in unspecified order.
	Keys() ([]string, error)
	// Len counts the entries.
	Len() (int, error)
	// AddInt atomically adds delta to an integer-valued key (absent keys
	// count as 0) and returns the new value. It is the fast path for keyed
	// aggregation: Redis serves it server-side as HINCRBY.
	AddInt(key string, delta int64) (int64, error)
	// Update atomically applies fn to the current value of key. fn receives
	// the value and whether it exists and returns the next value, keep=false
	// to delete the key, or an error to abort without writing.
	Update(key string, fn func(cur string, exists bool) (next string, keep bool, err error)) error
	// Snapshot copies the whole namespace.
	Snapshot() (Snapshot, error)
	// Restore replaces the namespace's content with the snapshot.
	Restore(Snapshot) error
	// Clear removes every entry.
	Clear() error
}

// Backend creates Stores and owns their durability: live namespaces plus one
// checkpoint slot per namespace.
type Backend interface {
	// Name labels the backend ("memory", "redis") in reports and benches.
	Name() string
	// Open returns the Store for a namespace, creating it when new. Opening
	// the same namespace twice returns handles onto the same data.
	Open(namespace string) (Store, error)
	// SaveCheckpoint durably replaces the namespace's checkpoint with snap.
	SaveCheckpoint(namespace string, snap Snapshot) error
	// LoadCheckpoint fetches the namespace's last checkpoint; ok=false when
	// none was ever saved.
	LoadCheckpoint(namespace string) (Snapshot, bool, error)
	// DropNamespace removes the namespace's live data and checkpoint.
	DropNamespace(namespace string) error
	// Ops reports the cumulative store-operation counters.
	Ops() metrics.StateOps
	// Close releases backend resources. Stores must not be used afterwards.
	Close() error
}

// Namespace derives the canonical per-PE namespace. It deliberately excludes
// the instance index: instances of one PE share a namespace (see the package
// comment), which is what makes keyed state rescalable and recoverable — a
// resumed run may use a different instance count.
func Namespace(workflow, pe string) string {
	return workflow + "/" + pe
}

// SortedKeys returns the store's keys in lexical order, for deterministic
// finalization sweeps. Applied-ledger entries of the exactly-once fence are
// skipped, so a Final sweep over a fenced (or fenced-then-resumed) namespace
// only ever sees workflow data.
func SortedKeys(st Store) ([]string, error) {
	keys, err := st.Keys()
	if err != nil {
		return nil, err
	}
	keys = dataKeys(keys)
	sort.Strings(keys)
	return keys, nil
}

// Entry is one key/value pair of a sorted sweep.
type Entry struct {
	Key, Value string
}

// SortedEntries reads the whole namespace in one Snapshot (a single round
// trip on the Redis backend, versus Keys + one Get per key) and returns the
// entries in lexical key order — the efficient form of a Final flush.
func SortedEntries(st Store) ([]Entry, error) {
	snap, err := st.Snapshot()
	if err != nil {
		return nil, err
	}
	out := make([]Entry, 0, len(snap))
	for k, v := range snap {
		if IsFenceKey(k) {
			continue
		}
		out = append(out, Entry{Key: k, Value: v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out, nil
}

// --- Typed value helpers -----------------------------------------------------

// EncodeValue gob-encodes a value to a binary-safe string.
func EncodeValue[T any](v T) (string, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&v); err != nil {
		return "", fmt.Errorf("state: encode %T: %w", v, err)
	}
	return buf.String(), nil
}

// DecodeValue decodes a string produced by EncodeValue.
func DecodeValue[T any](s string) (T, error) {
	var v T
	if err := gob.NewDecoder(bytes.NewReader([]byte(s))).Decode(&v); err != nil {
		return v, fmt.Errorf("state: decode %T: %w", v, err)
	}
	return v, nil
}

// GetAs fetches and decodes a typed value.
func GetAs[T any](st Store, key string) (T, bool, error) {
	var zero T
	s, ok, err := st.Get(key)
	if err != nil || !ok {
		return zero, false, err
	}
	v, err := DecodeValue[T](s)
	if err != nil {
		return zero, false, err
	}
	return v, true, nil
}

// PutAs encodes and stores a typed value.
func PutAs[T any](st Store, key string, v T) error {
	s, err := EncodeValue(v)
	if err != nil {
		return err
	}
	return st.Put(key, s)
}

// UpdateAs atomically applies fn to the decoded current value of key (zero
// value when absent) and stores the encoded result.
func UpdateAs[T any](st Store, key string, fn func(cur T, exists bool) (T, error)) error {
	return st.Update(key, func(cur string, exists bool) (string, bool, error) {
		var v T
		if exists {
			var err error
			if v, err = DecodeValue[T](cur); err != nil {
				return "", false, err
			}
		}
		next, err := fn(v, exists)
		if err != nil {
			return "", false, err
		}
		enc, err := EncodeValue(next)
		if err != nil {
			return "", false, err
		}
		return enc, true, nil
	})
}

// --- Checkpointing -----------------------------------------------------------

// Checkpoint snapshots the store and saves the snapshot as the namespace's
// durable checkpoint on b.
func Checkpoint(b Backend, st Store) error {
	snap, err := st.Snapshot()
	if err != nil {
		return err
	}
	return b.SaveCheckpoint(st.Namespace(), snap)
}

// RestoreLatest loads the namespace's last checkpoint into the store,
// replacing its live content. It reports whether a checkpoint existed.
func RestoreLatest(b Backend, st Store) (bool, error) {
	snap, ok, err := b.LoadCheckpoint(st.Namespace())
	if err != nil || !ok {
		return false, err
	}
	return true, st.Restore(snap)
}

// CheckpointStore decorates a Store with automatic checkpointing: after
// every Interval mutations it persists a snapshot to the backend, bounding
// how much state a crash can lose. It implements Store.
type CheckpointStore struct {
	mutations
	inner    Store
	backend  Backend
	interval int

	// OnCheckpoint, when set, is called after each successful checkpoint
	// write — the diagnosis journal's checkpoint feed. It runs under the
	// checkpoint serialization lock, so it must not re-enter the store. Set
	// it before the store is shared across workers.
	OnCheckpoint func()

	mu   sync.Mutex
	seen int // mutations forwarded so far
	// ckptMu serializes snapshot+save so concurrent workers cannot overwrite
	// a newer checkpoint with an older snapshot.
	ckptMu sync.Mutex
}

// NewCheckpointStore wraps st so that every interval-th mutation triggers a
// checkpoint to b. interval <= 0 means 1 (checkpoint on every mutation).
func NewCheckpointStore(st Store, b Backend, interval int) *CheckpointStore {
	if interval <= 0 {
		interval = 1
	}
	cs := &CheckpointStore{inner: st, backend: b, interval: interval}
	cs.mutations.to = cs
	return cs
}

// noteMutation counts one mutation and checkpoints when the interval is hit.
func (cs *CheckpointStore) noteMutation() error {
	cs.mu.Lock()
	cs.seen++
	due := cs.seen%cs.interval == 0
	cs.mu.Unlock()
	if !due {
		return nil
	}
	return cs.checkpoint()
}

// checkpoint snapshots and saves under ckptMu: each saved snapshot is taken
// after every earlier save completed, so the durable checkpoint never
// regresses past an acknowledged mutation.
func (cs *CheckpointStore) checkpoint() error {
	cs.ckptMu.Lock()
	defer cs.ckptMu.Unlock()
	if err := Checkpoint(cs.backend, cs.inner); err != nil {
		return err
	}
	if cs.OnCheckpoint != nil {
		cs.OnCheckpoint()
	}
	return nil
}

// Apply implements Store: forward, then count the mutation — applied or
// dropped as a duplicate, either way the ledger moved — towards the next
// checkpoint.
func (cs *CheckpointStore) Apply(op Op) (Result, error) {
	res, err := cs.inner.Apply(op)
	if err != nil {
		return Result{}, err
	}
	return res, cs.noteMutation()
}

// Namespace implements Store.
func (cs *CheckpointStore) Namespace() string { return cs.inner.Namespace() }

// Get implements Store.
func (cs *CheckpointStore) Get(key string) (string, bool, error) { return cs.inner.Get(key) }

// Keys implements Store.
func (cs *CheckpointStore) Keys() ([]string, error) { return cs.inner.Keys() }

// Len implements Store.
func (cs *CheckpointStore) Len() (int, error) { return cs.inner.Len() }

// Snapshot implements Store.
func (cs *CheckpointStore) Snapshot() (Snapshot, error) { return cs.inner.Snapshot() }

// home forwards the wrapped store's home (see homed).
func (cs *CheckpointStore) home() (key, addr string) { return homeOf(cs.inner) }

// Clear implements Store; like every other mutation it advances the
// checkpoint, so a resume cannot resurrect cleared state.
func (cs *CheckpointStore) Clear() error {
	if err := cs.inner.Clear(); err != nil {
		return err
	}
	return cs.noteMutation()
}

// Restore implements Store, immediately re-checkpointing the restored
// content so the checkpoint slot tracks the live state.
func (cs *CheckpointStore) Restore(snap Snapshot) error {
	if err := cs.inner.Restore(snap); err != nil {
		return err
	}
	return cs.checkpoint()
}

var _ Store = (*CheckpointStore)(nil)
