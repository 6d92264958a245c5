// Package state is the managed keyed-state subsystem: it externalizes PE
// state from struct fields into named Stores served by pluggable backends,
// which is what lets stateful PEs scale out, survive restarts, and run under
// dynamic scheduling.
//
// A Store is a keyed map of binary-safe string values living in a namespace.
// Managed-state nodes use one namespace per (workflow, PE): instances of the
// same PE share the namespace, and correctness at instances > 1 comes from
// one of three regimes:
//
//   - partitioned access — GroupBy routing guarantees each key is only
//     touched by its owner instance (static and hybrid mappings);
//   - owned partitions — on the Redis pool (dyn_redis, dyn_auto_redis) a
//     keyed PE whose in-edges all group by key, and whose namespace lives on
//     the transport's servers, has its tasks routed to leased partitions; the
//     one worker holding a partition's lease serves the ops of its tasks from
//     a Table of its own and commits each window's delta at once (see
//     Table). A task may touch only keys of its own partition — its group
//     key's — and an op on any other key fails the task;
//   - shared atomic access — any worker may process any task because every
//     store mutation (Put/AddInt/Update) is atomic per key (the other dynamic
//     mappings' managed state, where tasks have no instance affinity).
//
// Two backends implement the contract: a lock-sharded in-memory backend for
// the in-process mappings, and a Redis backend (hashes via
// internal/redisclient) for the distributed ones. A run that fails against
// an external backend leaves its namespaces there, ledger included, so a
// follow-up run resumes from them — "state as the unit of optimization and
// recovery". Each backend also keeps one explicit checkpoint slot per
// namespace (Checkpoint, RestoreLatest).
//
// Every managed-state PE reaches its namespace through one link, the
// worker's FenceScope over the namespace's FencedStore:
//
//	PE → FenceScope → backend store
//	PE → FenceScope → owned Table   (a task of a leased partition)
//
// and a mutation travels it as a value. An Op says what to do (Put, Delete,
// AddInt or Update on a key); the scope stamps the delivery's ledger field
// when the runtime has bound it to one, counts the op, times it when the run
// has telemetry, and counts a drop; the backend store applies it. An Op
// carrying a Ledger field is fenced: the backend records the field and
// applies the mutation in one indivisible step, or applies nothing when it
// was already recorded. FENCEAPPLY is the wire form of a fenced Op on the
// Redis backend; the memory backend does the same under two shard locks.
//
// A fenced Final gates its whole delivery rather than one mutation: its
// TaskGate is one more ledger field of the namespace, which the transport
// carrying the Final's output records — inside the same SINKAPPEND
// transaction as the output when its queues live on the namespace's server,
// through an unbound scope (TaskGate.Admit) otherwise. A task of an owned
// partition stamps no ledger field either: its partition's high-water mark
// for the task's provenance decides whether it is a replay (Table.Admit),
// and the window's commit records the raised marks (MarkField) with its
// effects.
package state

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"sort"
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
}

// Backend creates Stores and owns their durability: live namespaces plus one
// checkpoint slot per namespace.
type Backend interface {
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

// Entry is one key/value pair of a sorted sweep.
type Entry struct {
	Key, Value string
}

// SortedEntries reads the whole namespace in one Snapshot (a single round
// trip on the Redis backend) and returns its workflow entries in lexical key
// order — the efficient form of a Final flush. Applied-ledger entries are
// skipped, so a sweep over a fenced namespace only sees workflow data.
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

// --- Checkpointing -----------------------------------------------------------

// The engine itself never writes or reads a checkpoint: a resumed run
// continues from the live namespace the failed run kept. Checkpoint and
// RestoreLatest are the explicit snapshot and restore of one namespace.

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
