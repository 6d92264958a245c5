package state

import (
	"fmt"
	"strconv"
	"sync"

	"repro/internal/metrics"
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
	counter     metrics.StateCounter
	closed      bool
}

// NewMemoryBackend creates an empty in-memory backend.
func NewMemoryBackend() *MemoryBackend {
	return &MemoryBackend{
		namespaces:  make(map[string]*memStore),
		checkpoints: make(map[string]Snapshot),
	}
}

// Name implements Backend.
func (b *MemoryBackend) Name() string { return "memory" }

// Open implements Backend.
func (b *MemoryBackend) Open(namespace string) (Store, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil, fmt.Errorf("state: memory backend closed")
	}
	st, ok := b.namespaces[namespace]
	if !ok {
		st = newMemStore(namespace, &b.counter)
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
	b.counter.IncCheckpoint()
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

// Ops implements Backend.
func (b *MemoryBackend) Ops() metrics.StateOps { return b.counter.Snapshot() }

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
	namespace string
	counter   *metrics.StateCounter
	shards    [memShards]memShard
}

type memShard struct {
	mu sync.Mutex
	m  map[string]string
}

func newMemStore(namespace string, counter *metrics.StateCounter) *memStore {
	st := &memStore{namespace: namespace, counter: counter}
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
	st.counter.IncGet()
	sh := st.shardOf(key)
	sh.mu.Lock()
	v, ok := sh.m[key]
	sh.mu.Unlock()
	return v, ok, nil
}

// Put implements Store.
func (st *memStore) Put(key, value string) error {
	st.counter.IncPut()
	sh := st.shardOf(key)
	sh.mu.Lock()
	sh.m[key] = value
	sh.mu.Unlock()
	return nil
}

// Delete implements Store.
func (st *memStore) Delete(key string) error {
	st.counter.IncDelete()
	sh := st.shardOf(key)
	sh.mu.Lock()
	delete(sh.m, key)
	sh.mu.Unlock()
	return nil
}

// Keys implements Store.
func (st *memStore) Keys() ([]string, error) {
	st.counter.IncList()
	var keys []string
	for i := range st.shards {
		sh := &st.shards[i]
		sh.mu.Lock()
		for k := range sh.m {
			keys = append(keys, k)
		}
		sh.mu.Unlock()
	}
	return keys, nil
}

// Len implements Store.
func (st *memStore) Len() (int, error) {
	st.counter.IncList()
	n := 0
	for i := range st.shards {
		sh := &st.shards[i]
		sh.mu.Lock()
		n += len(sh.m)
		sh.mu.Unlock()
	}
	return n, nil
}

// AddInt implements Store.
func (st *memStore) AddInt(key string, delta int64) (int64, error) {
	st.counter.IncAdd()
	sh := st.shardOf(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	cur := int64(0)
	if s, ok := sh.m[key]; ok {
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("state: AddInt on non-integer value %q of key %q", s, key)
		}
		cur = n
	}
	cur += delta
	sh.m[key] = strconv.FormatInt(cur, 10)
	return cur, nil
}

// lockPair locks the ledger field's and the data key's shards together
// (ordered by shard index to rule out lock cycles), returning both shards
// and the unlock. Everything done before unlock is one atomic section: the
// in-process analogue of a FENCEAPPLY compound command.
func (st *memStore) lockPair(ledgerField, key string) (la, da *memShard, unlock func()) {
	li, di := shardIndexOf(ledgerField), shardIndexOf(key)
	la, da = &st.shards[li], &st.shards[di]
	first, second := la, da
	if li > di {
		first, second = second, first
	}
	first.mu.Lock()
	if second == first {
		return la, da, first.mu.Unlock
	}
	second.mu.Lock()
	return la, da, func() {
		second.mu.Unlock()
		first.mu.Unlock()
	}
}

// ledgerCount reads the applied-ledger count under the caller's lock.
func ledgerCount(la *memShard, ledgerField string) (int64, error) {
	s, ok := la.m[ledgerField]
	if !ok {
		return 0, nil
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("state: fence ledger holds non-integer %q", s)
	}
	return n, nil
}

// ledgerBump records one more execution in the applied ledger under the
// caller's lock, returning the pre-bump count (0 = first record, the
// mutation must be applied).
func ledgerBump(la *memShard, ledgerField string) (int64, error) {
	cnt, err := ledgerCount(la, ledgerField)
	if err != nil {
		return 0, err
	}
	la.m[ledgerField] = strconv.FormatInt(cnt+1, 10)
	return cnt, nil
}

// FencedAddInt implements fencedMutator in process: the ledger
// check-and-record and the data increment happen under both shard locks at
// once, so a racing duplicate execution can neither double-apply nor observe
// the gap between record and apply.
func (st *memStore) FencedAddInt(ledgerField, key string, delta int64) (bool, int64, error) {
	st.counter.IncAdd()
	la, da, unlock := st.lockPair(ledgerField, key)
	defer unlock()
	cnt, err := ledgerBump(la, ledgerField)
	if err != nil {
		return false, 0, err
	}
	cur := int64(0)
	if s, ok := da.m[key]; ok {
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return false, 0, fmt.Errorf("state: AddInt on non-integer value %q of key %q", s, key)
		}
		cur = n
	}
	if cnt > 0 {
		return false, cur, nil
	}
	cur += delta
	da.m[key] = strconv.FormatInt(cur, 10)
	return true, cur, nil
}

// FencedPut implements fencedMutator: ledger record + set in one
// double-locked section.
func (st *memStore) FencedPut(ledgerField, key, value string) (bool, error) {
	st.counter.IncPut()
	la, da, unlock := st.lockPair(ledgerField, key)
	defer unlock()
	cnt, err := ledgerBump(la, ledgerField)
	if err != nil || cnt > 0 {
		return false, err
	}
	da.m[key] = value
	return true, nil
}

// FencedDelete implements fencedMutator: ledger record + delete in one
// double-locked section.
func (st *memStore) FencedDelete(ledgerField, key string) (bool, error) {
	st.counter.IncDelete()
	la, da, unlock := st.lockPair(ledgerField, key)
	defer unlock()
	cnt, err := ledgerBump(la, ledgerField)
	if err != nil || cnt > 0 {
		return false, err
	}
	delete(da.m, key)
	return true, nil
}

// FencedUpdate implements fencedMutator. A duplicate bumps the ledger and
// returns without invoking fn; an error from fn leaves no record, so a
// clean retry of the same delivery can re-run the update.
func (st *memStore) FencedUpdate(ledgerField, key string, fn func(string, bool) (string, bool, error)) (bool, error) {
	st.counter.IncUpdate()
	la, da, unlock := st.lockPair(ledgerField, key)
	defer unlock()
	cnt, err := ledgerCount(la, ledgerField)
	if err != nil {
		return false, err
	}
	if cnt > 0 {
		la.m[ledgerField] = strconv.FormatInt(cnt+1, 10)
		return false, nil
	}
	cur, ok := da.m[key]
	next, keep, err := fn(cur, ok)
	if err != nil {
		return false, err
	}
	la.m[ledgerField] = "1"
	if !keep {
		delete(da.m, key)
	} else {
		da.m[key] = next
	}
	return true, nil
}

// Update implements Store. The shard stays locked for the duration of fn,
// making the read-modify-write atomic with respect to every other mutation
// of the key.
func (st *memStore) Update(key string, fn func(string, bool) (string, bool, error)) error {
	st.counter.IncUpdate()
	sh := st.shardOf(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	cur, ok := sh.m[key]
	next, keep, err := fn(cur, ok)
	if err != nil {
		return err
	}
	if !keep {
		delete(sh.m, key)
		return nil
	}
	sh.m[key] = next
	return nil
}

// Snapshot implements Store.
func (st *memStore) Snapshot() (Snapshot, error) {
	st.counter.IncSnapshot()
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
	st.counter.IncRestore()
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

// Clear implements Store.
func (st *memStore) Clear() error {
	st.counter.IncDelete()
	for i := range st.shards {
		sh := &st.shards[i]
		sh.mu.Lock()
		sh.m = make(map[string]string)
		sh.mu.Unlock()
	}
	return nil
}

var (
	_ Store   = (*memStore)(nil)
	_ Backend = (*MemoryBackend)(nil)
)
