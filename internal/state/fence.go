package state

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/telemetry"
)

// Token identifies one fenced delivery: the task's provenance hash and its
// sequence number within that provenance (see codec.Task.Src/Seq). The zero
// token means "unfenced" — mutations pass straight through.
type Token struct {
	Src uint64
	Seq uint64
}

// IsZero reports whether the token carries no fencing identity.
func (t Token) IsZero() bool { return t.Src == 0 && t.Seq == 0 }

// fencePrefix marks applied-ledger entries inside a namespace. The leading
// NUL byte cannot collide with workflow keys produced by ordinary string
// handling, and keeping the ledger *inside* the namespace is what makes the
// fence durable for free: Snapshot/Restore and every checkpoint carry the
// ledger together with the data it guards, so a resumed run (StateResume)
// still drops updates the crashed run already applied.
const fencePrefix = "\x00fence:"

// IsFenceKey reports whether a state key belongs to the applied ledger
// rather than to workflow data. SortedKeys/SortedEntries skip such keys so
// Final flushes never observe fence bookkeeping.
func IsFenceKey(key string) bool { return strings.HasPrefix(key, fencePrefix) }

// fenceField builds the ledger key of one mutation: provenance, sequence and
// the mutation's index within the delivery's execution. The index is what
// admits several mutations from one execution while rejecting every mutation
// of a duplicate execution of the same delivery.
func fenceField(tok Token, mut uint64) string {
	return fencePrefix + strconv.FormatUint(tok.Src, 36) + ":" +
		strconv.FormatUint(tok.Seq, 36) + ":" + strconv.FormatUint(mut, 36)
}

// taskFenceField is the ledger key gating a whole delivery (Final hooks,
// whose effect is their emissions rather than store mutations).
func taskFenceField(tok Token) string {
	return fencePrefix + strconv.FormatUint(tok.Src, 36) + ":" +
		strconv.FormatUint(tok.Seq, 36) + ":task"
}

// fencedMutator is the one fenced-mutation contract: ledger record plus
// effect in one indivisible operation, per mutation shape. Both backends
// implement it (one FENCEAPPLY compound command on Redis, a dual shard-locked
// section in memory); CheckpointStore and the instrumentation wrapper forward
// it, so a full store chain keeps the atomicity end to end. NewFencedStore
// and the two wrappers resolve it once, at construction (fencedOf).
type fencedMutator interface {
	// FencedAddInt applies delta to key iff ledgerField was never recorded,
	// recording it. It returns whether the delta was applied and the key's
	// resulting value either way.
	FencedAddInt(ledgerField, key string, delta int64) (applied bool, n int64, err error)
	// FencedPut sets key iff ledgerField was never recorded, recording it.
	FencedPut(ledgerField, key, value string) (applied bool, err error)
	// FencedDelete removes key iff ledgerField was never recorded, recording it.
	FencedDelete(ledgerField, key string) (applied bool, err error)
	// FencedUpdate runs the read-modify-write iff ledgerField was never
	// recorded; a duplicate returns applied=false without invoking fn.
	FencedUpdate(ledgerField, key string, fn func(cur string, exists bool) (next string, keep bool, err error)) (applied bool, err error)
}

// fencedOf resolves a store chain's fenced-mutation contract. Every store
// this package hands out implements it; a Store from anywhere else is a
// wiring bug, reported where the chain is built rather than at the first
// fenced mutation.
func fencedOf(st Store) fencedMutator {
	fm, ok := st.(fencedMutator)
	if !ok {
		panic(fmt.Sprintf("state: %T implements no fenced mutations", st))
	}
	return fm
}

// TaskGater is implemented by stores that can name the storage-level address
// of a delivery's task gate — the (hash key, ledger field) pair a transport
// speaking to the same server can record inside an atomic output flush
// (SINKAPPEND). The address is only meaningful when transport and state share
// one server, which every Redis mapping in this repository does.
type TaskGater interface {
	TaskGateRef(tok Token) (hashKey, field string, ok bool)
}

// FencedStore guards one namespace's mutations against duplicate
// application under at-least-once replay. It wraps the namespace's store
// chain (the raw backend store, optionally inside a CheckpointStore, so
// ledger writes are checkpointed like data writes) and hands out per-worker
// Scopes; a Scope bound to a delivery token applies each mutation at most
// once across every execution of that delivery, dropping the rest.
//
// The ledger is exact — one entry per applied (delivery, mutation) — so
// out-of-order duplicate deliveries are caught without assuming ordered
// consumption. Entries live in the namespace itself (see fencePrefix) and
// are filtered from the user-facing key/snapshot views.
//
// Atomicity scope: every mutation shape records its ledger entry and
// applies its effect in one indivisible operation on both backends — a
// single FENCEAPPLY compound command on Redis (fence-check + record +
// HSET/HDEL/HINCRBY under the server's one dispatch lock), a
// double-shard-locked section in memory — forwarded through
// CheckpointStore and the instrumentation wrapper, so no crash point
// between "recorded" and "applied" exists: a worker killed mid-mutation
// either left no record (the replay re-applies) or left record+effect
// together (the replay drops). There is no second path.
type FencedStore struct {
	inner  Store
	fenced fencedMutator
	drops  []*telemetry.Counter
	notify func()
}

// NewFencedStore wraps a namespace's store chain with the fence. The chain
// must come from this package's backends and wrappers (see fencedOf).
func NewFencedStore(inner Store) *FencedStore {
	return &FencedStore{inner: inner, fenced: fencedOf(inner)}
}

// SetDropCounter routes a count of dropped (already-applied) mutations into
// telemetry. It may be called more than once — every registered counter is
// incremented per drop, so the run-wide state counter and a per-PE diagnosis
// row can both observe the same fence. Call before any scope is used; nil is
// ignored.
func (fs *FencedStore) SetDropCounter(c *telemetry.Counter) {
	if c != nil {
		fs.drops = append(fs.drops, c)
	}
}

// SetDropNotify installs a callback invoked once per dropped mutation, after
// the counters — the diagnosis journal's fence-drop feed. Drops are the cold
// replay path, so the callback may allocate. Call before any scope is used.
func (fs *FencedStore) SetDropNotify(fn func()) { fs.notify = fn }

// dropped records one duplicate application being discarded.
func (fs *FencedStore) dropped() {
	for _, c := range fs.drops {
		c.Inc()
	}
	if fs.notify != nil {
		fs.notify()
	}
}

// ObserveDrop records a duplicate detected outside the store path — the
// transport's fenced sink flush (SINKAPPEND) arbitrates the task gate on the
// server and reports the loss here so the drop counters and journal stay the
// single source of truth for fence activity.
func (fs *FencedStore) ObserveDrop() { fs.dropped() }

// TaskGateRef exposes the storage address of a delivery's task gate when the
// wrapped chain can name one (the Redis backend can; memory cannot). A
// transport sharing the server can then record the gate inside its own atomic
// flush instead of the two-step acquire-then-emit sequence.
func (fs *FencedStore) TaskGateRef(tok Token) (hashKey, field string, ok bool) {
	if tok.IsZero() {
		return "", "", false
	}
	if tg, ok := fs.inner.(TaskGater); ok {
		return tg.TaskGateRef(tok)
	}
	return "", "", false
}

// NewScope creates a per-worker view of the namespace. Scopes are not safe
// for concurrent use — each worker goroutine owns its own.
func (fs *FencedStore) NewScope() *FenceScope { return &FenceScope{fs: fs} }

// acquire records one ledger entry, reporting whether this caller was first.
// It rides the store's atomic AddInt, so two racing executions of the same
// delivery resolve to exactly one applier on every backend.
func (fs *FencedStore) acquire(field string) (bool, error) {
	n, err := fs.inner.AddInt(field, 1)
	if err != nil {
		return false, err
	}
	if n != 1 {
		fs.dropped()
	}
	return n == 1, nil
}

// FenceScope is one worker's handle onto a FencedStore. It implements Store:
// reads pass through; with a delivery token set, mutations are applied at
// most once per (token, mutation-index) across duplicate executions.
type FenceScope struct {
	fs  *FencedStore
	tok Token
	mut uint64
}

// SetToken binds the scope to a delivery before its task executes,
// restarting the per-execution mutation index.
func (s *FenceScope) SetToken(tok Token) {
	s.tok = tok
	s.mut = 0
}

// ClearToken unbinds the scope; subsequent mutations pass through unfenced.
func (s *FenceScope) ClearToken() { s.tok = Token{}; s.mut = 0 }

// AcquireTask gates a whole delivery (the Finalize path): it reports whether
// this execution is the delivery's first, so a duplicate Final is skipped
// before it can re-emit its flush values.
func (s *FenceScope) AcquireTask(tok Token) (bool, error) {
	if tok.IsZero() {
		return true, nil
	}
	return s.fs.acquire(taskFenceField(tok))
}

// nextField issues the ledger key for the execution's next mutation.
func (s *FenceScope) nextField() string {
	f := fenceField(s.tok, s.mut)
	s.mut++
	return f
}

// Namespace implements Store.
func (s *FenceScope) Namespace() string { return s.fs.inner.Namespace() }

// Get implements Store.
func (s *FenceScope) Get(key string) (string, bool, error) { return s.fs.inner.Get(key) }

// dropIfDuplicate folds one fenced mutation's outcome into the drop
// accounting and returns its error.
func (s *FenceScope) dropIfDuplicate(applied bool, err error) error {
	if err == nil && !applied {
		s.fs.dropped()
	}
	return err
}

// Put implements Store: a duplicate execution's Put is dropped.
func (s *FenceScope) Put(key, value string) error {
	if s.tok.IsZero() {
		return s.fs.inner.Put(key, value)
	}
	applied, err := s.fs.fenced.FencedPut(s.nextField(), key, value)
	return s.dropIfDuplicate(applied, err)
}

// Delete implements Store: a duplicate execution's Delete is dropped.
func (s *FenceScope) Delete(key string) error {
	if s.tok.IsZero() {
		return s.fs.inner.Delete(key)
	}
	applied, err := s.fs.fenced.FencedDelete(s.nextField(), key)
	return s.dropIfDuplicate(applied, err)
}

// Keys implements Store, hiding the applied ledger.
func (s *FenceScope) Keys() ([]string, error) {
	keys, err := s.fs.inner.Keys()
	if err != nil {
		return nil, err
	}
	out := keys[:0]
	for _, k := range keys {
		if !IsFenceKey(k) {
			out = append(out, k)
		}
	}
	return out, nil
}

// Len implements Store, counting only workflow entries.
func (s *FenceScope) Len() (int, error) {
	keys, err := s.Keys()
	if err != nil {
		return 0, err
	}
	return len(keys), nil
}

// AddInt implements Store: a duplicate execution's increment is dropped and
// the key's current value is returned instead.
func (s *FenceScope) AddInt(key string, delta int64) (int64, error) {
	if s.tok.IsZero() {
		return s.fs.inner.AddInt(key, delta)
	}
	applied, n, err := s.fs.fenced.FencedAddInt(s.nextField(), key, delta)
	return n, s.dropIfDuplicate(applied, err)
}

// Update implements Store: a duplicate execution's read-modify-write is
// dropped without invoking fn.
func (s *FenceScope) Update(key string, fn func(string, bool) (string, bool, error)) error {
	if s.tok.IsZero() {
		return s.fs.inner.Update(key, fn)
	}
	applied, err := s.fs.fenced.FencedUpdate(s.nextField(), key, fn)
	return s.dropIfDuplicate(applied, err)
}

// Snapshot implements Store, hiding the applied ledger. Durability paths
// (CheckpointStore, RestoreLatest) snapshot the inner chain directly and so
// keep the ledger; this filtered view serves Final flushes and user code.
func (s *FenceScope) Snapshot() (Snapshot, error) {
	snap, err := s.fs.inner.Snapshot()
	if err != nil {
		return nil, err
	}
	for k := range snap {
		if IsFenceKey(k) {
			delete(snap, k)
		}
	}
	return snap, nil
}

// Restore implements Store.
func (s *FenceScope) Restore(snap Snapshot) error { return s.fs.inner.Restore(snap) }

// Clear implements Store. Clearing wipes the ledger with the data — which is
// coherent: with no data left there is nothing a replayed update could
// corrupt, and Clear itself is idempotent.
func (s *FenceScope) Clear() error { return s.fs.inner.Clear() }

var _ Store = (*FenceScope)(nil)
