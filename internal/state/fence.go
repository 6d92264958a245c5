package state

import (
	"strconv"
	"strings"
	"time"

	"repro/internal/metrics"
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
// fence durable for free: the live namespace a failed run keeps, like every
// checkpoint, carries the ledger together with the data it guards, so a
// resumed run (StateResume) still drops updates the crashed run already
// applied.
const fencePrefix = "\x00fence:"

// IsFenceKey reports whether a state key belongs to the applied ledger
// rather than to workflow data. SortedEntries and a scope's Snapshot skip
// such keys so Final flushes never observe fence bookkeeping.
func IsFenceKey(key string) bool { return strings.HasPrefix(key, fencePrefix) }

// fenceField builds the ledger key of one mutation: provenance, sequence and
// the mutation's index within the delivery's execution. The index is what
// admits several mutations from one execution while rejecting every mutation
// of a duplicate execution of the same delivery.
func fenceField(tok Token, mut uint64) string {
	var b [64]byte
	return string(strconv.AppendUint(appendToken(b[:0], tok), mut, 36))
}

// taskFenceField is the ledger key gating a whole delivery (Final hooks,
// whose effect is their emissions rather than store mutations).
func taskFenceField(tok Token) string {
	var b [64]byte
	return string(append(appendToken(b[:0], tok), "task"...))
}

// MarkField is the ledger field of an owned namespace's high-water mark for
// provenance src in partition p: the highest Seq of src whose delivery into
// p has run (see Table.Admit). Its "#" follows the ledger prefix where a
// per-op or task-gate field starts its token with a base-36 digit, so a mark
// never equals either.
func MarkField(p int, src uint64) string {
	var b [48]byte
	f := strconv.AppendInt(append(append(b[:0], fencePrefix...), '#'), int64(p), 10)
	return string(strconv.AppendUint(append(f, ':'), src, 36))
}

// PartsField is the ledger field recording an owned namespace's partition
// count. Marks are kept per partition, so they mean nothing under another
// count: a run that finds one recorded adopts it.
const PartsField = fencePrefix + "#parts"

// appendToken appends the ledger-key prefix of tok, "<fencePrefix><src>:<seq>:".
func appendToken(b []byte, tok Token) []byte {
	b = append(b, fencePrefix...)
	b = append(strconv.AppendUint(b, tok.Src, 36), ':')
	return append(strconv.AppendUint(b, tok.Seq, 36), ':')
}

// homed is implemented by stores whose namespace lives in one hash on a
// server (the Redis backend): home names that hash and the server's address.
// The memory backend has no home.
type homed interface {
	home() (key, addr string)
}

// homeOf is the home of a backend store, or two empty strings when it has
// none.
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

	scope *FenceScope // an unbound scope on the namespace, which Admit records Field through
}

// Admit records the gate through an unbound scope on the namespace — so it
// counts, and is timed, as one AddInt — and reports whether this call
// recorded it: true for the delivery's first execution, false for every
// duplicate. The record is the store's atomic AddInt, so two racing
// executions resolve to exactly one first on every backend.
func (g TaskGate) Admit() (bool, error) {
	n, err := g.scope.AddInt(g.Field, 1)
	return n == 1, err
}

// FencedStore is the one link between a namespace's backend store and the
// PEs using it: it hands out per-worker Scopes and holds what they share —
// the namespace's op counters, its latency histograms when the run has
// telemetry, and its drop counters. A Scope bound to a delivery token applies
// each mutation at most once across every execution of that delivery,
// dropping the rest; an unbound one applies every op as it comes.
//
// On this per-op path the ledger is exact — one entry per applied (delivery,
// mutation) — so out-of-order duplicate deliveries are caught without
// assuming ordered consumption. An owned partition's tasks take the other
// path, which does assume it: one high-water mark per (partition,
// provenance) (see Table). Entries of both live in the namespace itself (see
// fencePrefix) and are filtered from the scope's Snapshot.
//
// Atomicity scope: a fenced Op records its ledger entry and applies its
// effect in one indivisible operation on both backends — a single FENCEAPPLY
// compound command on Redis (fence-check + record + HSET/HDEL/HINCRBY under
// the server's one dispatch lock), a double-shard-locked section in memory —
// so no crash point between "recorded" and "applied" exists: a worker killed
// mid-mutation either left no record (the replay re-applies) or left
// record+effect together (the replay drops). There is no second path.
type FencedStore struct {
	inner  Store
	counts opCounts
	hist   [numCounts]*telemetry.Histogram // per counter slot; all nil until Instrument
	drops  []*telemetry.Counter
	notify func()
}

// NewFencedStore makes the link onto a namespace's backend store.
func NewFencedStore(inner Store) *FencedStore { return &FencedStore{inner: inner} }

// Instrument times every op of every scope into sm's per-kind histograms.
// Call before any scope is used; until then no op reads the clock.
func (fs *FencedStore) Instrument(sm *telemetry.StateMetrics) {
	fs.hist = [numCounts]*telemetry.Histogram{
		OpPut: sm.Put, OpDelete: sm.Delete, OpAddInt: sm.Add, OpUpdate: sm.Update,
		countGet: sm.Get, countSnapshot: sm.Snapshot, countRestore: sm.Restore,
	}
}

// Ops reports the ops every scope of the namespace has performed.
func (fs *FencedStore) Ops() metrics.StateOps { return fs.counts.ops() }

// begin counts one op of slot and, when instrumented, starts its clock.
func (fs *FencedStore) begin(slot int) time.Time {
	fs.counts[slot].Add(1)
	if fs.hist[slot] == nil {
		return time.Time{}
	}
	return time.Now()
}

// end closes the clock begin started.
func (fs *FencedStore) end(slot int, start time.Time) {
	if h := fs.hist[slot]; h != nil {
		h.ObserveSince(start)
	}
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

// ObserveDrop records a duplicate detected outside the store path — a fenced
// Final whose task gate the transport found already recorded — so the drop
// counters and journal stay the single source of truth for fence activity.
func (fs *FencedStore) ObserveDrop() { fs.dropped() }

// Home names the hash holding the namespace and the address of its server,
// or two empty strings when the namespace does not live on a server (the
// memory backend). Only a namespace with a home can be owned (see Table).
func (fs *FencedStore) Home() (key, addr string) { return homeOf(fs.inner) }

// TaskGate is the gate of the fenced delivery tok (a non-zero token).
func (fs *FencedStore) TaskGate(tok Token) TaskGate {
	key, addr := homeOf(fs.inner)
	return TaskGate{Field: taskFenceField(tok), Key: key, Addr: addr, scope: fs.NewScope()}
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
// every op is counted and, when instrumented, timed; with a delivery token
// set, mutations are applied at most once per (token, mutation-index) across
// duplicate executions.
type FenceScope struct {
	mutations
	fs  *FencedStore
	tok Token
	mut uint64

	// own, while set, serves the ops of a task of partition part from the
	// worker's owned table (see Own); ownErr is the task's first op outside
	// that partition.
	own    *Table
	part   int
	replay bool
	ownErr error
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
func (s *FenceScope) Get(key string) (string, bool, error) {
	start := s.fs.begin(countGet)
	var v string
	var ok bool
	var err error
	if s.own != nil {
		var c cell
		if c, err = s.ownCell(key); err == nil {
			v, ok = c.val, c.exists
		}
	} else {
		v, ok, err = s.fs.inner.Get(key)
	}
	s.fs.end(countGet, start)
	return v, ok, err
}

// Apply implements Store. With a delivery token bound, the op is stamped with
// the ledger field of the execution's next mutation index, so across every
// execution of that delivery it applies once: a duplicate's Put, Delete or
// Update is dropped (Fn not invoked), and a duplicate's AddInt returns the
// key's current value instead. Unbound, the op passes through as it came.
// While the scope owns a table (Own) the op is applied there instead, and
// the partition's mark for the task's provenance fences the whole task.
func (s *FenceScope) Apply(op Op) (Result, error) {
	if s.own != nil {
		start := s.fs.begin(int(op.Kind))
		res, err := s.ownApply(op)
		s.fs.end(int(op.Kind), start)
		return res, err
	}
	if !s.tok.IsZero() {
		op.Ledger = fenceField(s.tok, s.mut)
		s.mut++
	}
	start := s.fs.begin(int(op.Kind))
	res, err := s.fs.inner.Apply(op)
	s.fs.end(int(op.Kind), start)
	if err == nil && !res.Applied {
		s.fs.dropped()
	}
	return res, err
}

// Snapshot implements Store, hiding the applied ledger. Checkpoint over the
// backend store keeps the ledger; this filtered view serves Final flushes
// and user code.
func (s *FenceScope) Snapshot() (Snapshot, error) {
	start := s.fs.begin(countSnapshot)
	snap, err := s.fs.inner.Snapshot()
	s.fs.end(countSnapshot, start)
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
func (s *FenceScope) Restore(snap Snapshot) error {
	start := s.fs.begin(countRestore)
	err := s.fs.inner.Restore(snap)
	s.fs.end(countRestore, start)
	return err
}

var _ Store = (*FenceScope)(nil)
