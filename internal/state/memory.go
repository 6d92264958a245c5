package state

import (
	"fmt"
	"strconv"
	"sync"
)

// memShards is the lock-shard fan-out of one in-memory namespace. Sharding
// keeps concurrent keyed updates from different workers off a single mutex:
// two keys contend only when they hash to the same shard.
const memShards = 16

// MemoryBackend is the in-process state backend: lock-sharded maps per
// namespace plus an in-memory checkpoint slot per namespace. It serves the
// in-process mappings (simple, multi, dyn_multi, dyn_auto_multi) and tests.
type MemoryBackend struct {
	mu          sync.RWMutex
	namespaces  map[string]*memStore
	checkpoints map[string]Snapshot
	closed      bool
}

// NewMemoryBackend creates an empty in-memory backend.
func NewMemoryBackend() *MemoryBackend {
	return &MemoryBackend{
		namespaces:  make(map[string]*memStore),
		checkpoints: make(map[string]Snapshot),
	}
}

// Open implements Backend.
func (b *MemoryBackend) Open(namespace string) (Store, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil, fmt.Errorf("state: memory backend closed")
	}
	st, ok := b.namespaces[namespace]
	if !ok {
		st = newMemStore(namespace)
		b.namespaces[namespace] = st
	}
	return st, nil
}

// SaveCheckpoint implements Backend.
func (b *MemoryBackend) SaveCheckpoint(namespace string, snap Snapshot) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return fmt.Errorf("state: memory backend closed")
	}
	b.checkpoints[namespace] = snap.Clone()
	return nil
}

// LoadCheckpoint implements Backend.
func (b *MemoryBackend) LoadCheckpoint(namespace string) (Snapshot, bool, error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	snap, ok := b.checkpoints[namespace]
	if !ok {
		return nil, false, nil
	}
	return snap.Clone(), true, nil
}

// DropNamespace implements Backend.
func (b *MemoryBackend) DropNamespace(namespace string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	delete(b.namespaces, namespace)
	delete(b.checkpoints, namespace)
	return nil
}

// Close implements Backend.
func (b *MemoryBackend) Close() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.closed = true
	b.namespaces = make(map[string]*memStore)
	b.checkpoints = make(map[string]Snapshot)
	return nil
}

// memStore is one lock-sharded in-memory namespace.
type memStore struct {
	mutations
	namespace string
	shards    [memShards]memShard
}

type memShard struct {
	mu sync.Mutex
	m  map[string]string
}

func newMemStore(namespace string) *memStore {
	st := &memStore{namespace: namespace}
	st.mutations.to = st
	for i := range st.shards {
		st.shards[i].m = make(map[string]string)
	}
	return st
}

// shardIndexOf hashes a key onto its shard index with FNV-1a.
func shardIndexOf(key string) int {
	var h uint32 = 2166136261
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return int(h % memShards)
}

// shardOf returns the shard owning key.
func (st *memStore) shardOf(key string) *memShard {
	return &st.shards[shardIndexOf(key)]
}

// Namespace implements Store.
func (st *memStore) Namespace() string { return st.namespace }

// Get implements Store.
func (st *memStore) Get(key string) (string, bool, error) {
	sh := st.shardOf(key)
	sh.mu.Lock()
	v, ok := sh.m[key]
	sh.mu.Unlock()
	return v, ok, nil
}

// Apply implements Store. The key's shard — and, for a fenced op, the ledger
// field's shard with it, taken in shard-index order to rule out lock cycles —
// stays locked from the first read to the last write, so the section is
// atomic with respect to every other mutation of the key and is the
// in-process analogue of a FENCEAPPLY compound command: a racing duplicate
// execution can neither double-apply nor observe a gap between record and
// apply. The order inside is check ledger → validate → record → apply, so an
// op that fails (a non-integer AddInt target) leaves no record and a clean
// retry of the same delivery still applies.
func (st *memStore) Apply(op Op) (Result, error) {
	di := shardIndexOf(op.Key)
	li := di
	if op.Ledger != "" {
		li = shardIndexOf(op.Ledger)
	}
	lo, hi := min(di, li), max(di, li)
	st.shards[lo].mu.Lock()
	defer st.shards[lo].mu.Unlock()
	if hi != lo {
		st.shards[hi].mu.Lock()
		defer st.shards[hi].mu.Unlock()
	}
	data, ledger := st.shards[di].m, st.shards[li].m

	// recorded counts the executions the ledger already holds for this op:
	// above zero, this one is a duplicate and must apply nothing.
	var recorded int64
	if op.Ledger != "" {
		if s, ok := ledger[op.Ledger]; ok {
			var err error
			if recorded, err = strconv.ParseInt(s, 10, 64); err != nil {
				return Result{}, fmt.Errorf("state: fence ledger holds non-integer %q", s)
			}
		}
	}
	res := Result{Applied: recorded == 0}
	next := op.Value
	if op.Kind == OpAddInt {
		// Parsed on the duplicate branch too: a dropped increment still
		// reports the key's current value.
		if cur, exists := data[op.Key]; exists {
			n, err := strconv.ParseInt(cur, 10, 64)
			if err != nil {
				return Result{}, fmt.Errorf("state: AddInt on non-integer value %q of key %q", cur, op.Key)
			}
			res.N = n
		}
		if res.Applied {
			res.N += op.Delta
			next = strconv.FormatInt(res.N, 10)
		}
	}
	if op.Ledger != "" {
		ledger[op.Ledger] = strconv.FormatInt(recorded+1, 10)
	}
	if res.Applied {
		data[op.Key] = next
	}
	return res, nil
}

// Snapshot implements Store.
func (st *memStore) Snapshot() (Snapshot, error) {
	snap := make(Snapshot)
	for i := range st.shards {
		sh := &st.shards[i]
		sh.mu.Lock()
		for k, v := range sh.m {
			snap[k] = v
		}
		sh.mu.Unlock()
	}
	return snap, nil
}

// Restore implements Store.
func (st *memStore) Restore(snap Snapshot) error {
	for i := range st.shards {
		sh := &st.shards[i]
		sh.mu.Lock()
		sh.m = make(map[string]string)
		sh.mu.Unlock()
	}
	for k, v := range snap {
		sh := st.shardOf(k)
		sh.mu.Lock()
		sh.m[k] = v
		sh.mu.Unlock()
	}
	return nil
}

var (
	_ Store   = (*memStore)(nil)
	_ Backend = (*MemoryBackend)(nil)
)
