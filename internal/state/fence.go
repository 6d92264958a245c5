package state

import (
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

// dataKeys filters the applied ledger out of a key listing, in place.
func dataKeys(keys []string) []string {
	out := keys[:0]
	for _, k := range keys {
		if !IsFenceKey(k) {
			out = append(out, k)
		}
	}
	return out
}

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

// homed is implemented by stores whose namespace lives in one hash on a
// server (the Redis backend): home names that hash and the server's address.
// The memory backend has no home; the chain's wrappers forward their inner
// store's.
type homed interface {
	home() (key, addr string)
}

// homeOf is the home of a store chain, or two empty strings when it has none.
func homeOf(st Store) (key, addr string) {
	if h, ok := st.(homed); ok {
		return h.home()
	}
	return "", ""
}

// TaskGate gates a whole fenced delivery — a Final, whose effect is its
// emissions rather than store mutations — on one ledger field inside the
// namespace: the execution that records Field ships its output, every
// duplicate ships nothing. A transport whose queues live on the server at
// Addr records Field and ships the output in one transaction (SINKAPPEND on
// the Redis transport); any other transport records it with Admit first and
// pushes after.
type TaskGate struct {
	// Field is the gate's ledger field.
	Field string
	// Key is the hash holding the namespace (and so Field) and Addr the
	// address of the server holding Key; both are empty when the namespace
	// does not live on a server (the memory backend).
	Key, Addr string

	store Store // the namespace's chain, which Admit records Field through
}

// Admit records the gate through the namespace's store chain and reports
// whether this call recorded it: true for the delivery's first execution,
// false for every duplicate. The record is the store's atomic AddInt, so two
// racing executions resolve to exactly one first on every backend.
func (g TaskGate) Admit() (bool, error) {
	n, err := g.store.AddInt(g.Field, 1)
	return n == 1, err
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
// Atomicity scope: a fenced Op records its ledger entry and applies its
// effect in one indivisible operation on both backends — a single FENCEAPPLY
// compound command on Redis (fence-check + record + HSET/HDEL/HINCRBY under
// the server's one dispatch lock), a double-shard-locked section in memory —
// and CheckpointStore and the instrumentation wrapper forward the Op as it
// is, so no crash point between "recorded" and "applied" exists: a worker
// killed mid-mutation either left no record (the replay re-applies) or left
// record+effect together (the replay drops). There is no second path.
type FencedStore struct {
	inner  Store
	drops  []*telemetry.Counter
	notify func()
}

// NewFencedStore wraps a namespace's store chain with the fence.
func NewFencedStore(inner Store) *FencedStore { return &FencedStore{inner: inner} }

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

// ObserveDrop records a duplicate detected outside the store path — a fenced
// Final whose task gate the transport found already recorded — so the drop
// counters and journal stay the single source of truth for fence activity.
func (fs *FencedStore) ObserveDrop() { fs.dropped() }

// TaskGate is the gate of the fenced delivery tok (a non-zero token).
func (fs *FencedStore) TaskGate(tok Token) TaskGate {
	key, addr := homeOf(fs.inner)
	return TaskGate{Field: taskFenceField(tok), Key: key, Addr: addr, store: fs.inner}
}

// TaskGateRef is the storage address of the delivery tok's task gate — the
// hash key and ledger field — when the namespace lives on a server; ok is
// false in memory.
func (fs *FencedStore) TaskGateRef(tok Token) (hashKey, field string, ok bool) {
	g := fs.TaskGate(tok)
	return g.Key, g.Field, g.Key != ""
}

// NewScope creates a per-worker view of the namespace. Scopes are not safe
// for concurrent use — each worker goroutine owns its own.
func (fs *FencedStore) NewScope() *FenceScope {
	s := &FenceScope{fs: fs}
	s.mutations.to = s
	return s
}

// FenceScope is one worker's handle onto a FencedStore. It implements Store:
// reads pass through; with a delivery token set, mutations are applied at
// most once per (token, mutation-index) across duplicate executions.
type FenceScope struct {
	mutations
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

// Namespace implements Store.
func (s *FenceScope) Namespace() string { return s.fs.inner.Namespace() }

// Get implements Store.
func (s *FenceScope) Get(key string) (string, bool, error) { return s.fs.inner.Get(key) }

// Apply implements Store. With a delivery token bound, the op is stamped with
// the ledger field of the execution's next mutation index, so across every
// execution of that delivery it applies once: a duplicate's Put, Delete or
// Update is dropped (Fn not invoked), and a duplicate's AddInt returns the
// key's current value instead. Unbound, the op passes through as it came.
func (s *FenceScope) Apply(op Op) (Result, error) {
	if !s.tok.IsZero() {
		op.Ledger = fenceField(s.tok, s.mut)
		s.mut++
	}
	res, err := s.fs.inner.Apply(op)
	if err == nil && !res.Applied {
		s.fs.dropped()
	}
	return res, err
}

// Keys implements Store, hiding the applied ledger.
func (s *FenceScope) Keys() ([]string, error) {
	keys, err := s.fs.inner.Keys()
	return dataKeys(keys), err
}

// Len implements Store, counting only workflow entries.
func (s *FenceScope) Len() (int, error) {
	keys, err := s.Keys()
	if err != nil {
		return 0, err
	}
	return len(keys), nil
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
