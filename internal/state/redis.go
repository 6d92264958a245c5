package state

import (
	"fmt"

	"repro/internal/redisclient"
)

// RedisBackend serves namespaces out of a sharded Redis data plane: each
// namespace is one hash (field = state key), checkpoints are single
// gob-encoded string keys (so an empty checkpoint is representable and the
// save is one atomic SET). It speaks RESP2 to internal/miniredis, the only
// server it works against — a fenced op is FENCEAPPLY, a command of that
// server's that a stock Redis does not serve — and backs the distributed
// mappings, where workers in different processes must see the same state.
//
// Sharding is by namespace: every key the backend writes for a namespace —
// live hash, checkpoint, and the fence-ledger fields living inside the live
// hash — embeds the same "{namespace}" hash tag, so the cluster's ring
// places them on one shard together. That co-location is what keeps
// FENCEAPPLY (ledger + apply) and the transport's SINKAPPEND (task gate +
// sink entries) single-shard transactions; see redisclient.Cluster.
type RedisBackend struct {
	cluster     *redisclient.Cluster
	ownsCluster bool
	prefix      string
	coal        *coalescer
}

// NewRedisClusterBackend creates a backend routing namespaces across the
// cluster's shards. The caller keeps ownership of the cluster (Close does
// not close it). A transport of the same run on the same cluster records a
// fenced Final's gate in the same transaction as its output, because gate
// and sink entries co-locate.
func NewRedisClusterBackend(cluster *redisclient.Cluster, prefix string) *RedisBackend {
	return &RedisBackend{cluster: cluster, prefix: prefix}
}

// DialRedisClusterBackend creates a backend with its own cluster over the
// shard addresses (in ring order); Close closes it. An external observer
// dialing the same addresses computes the same placement as the run it
// inspects.
func DialRedisClusterBackend(addrs []string, prefix string) (*RedisBackend, error) {
	cluster, err := redisclient.NewCluster(addrs)
	if err != nil {
		return nil, err
	}
	return &RedisBackend{cluster: cluster, ownsCluster: true, prefix: prefix}, nil
}

// EnableCoalescing turns on per-shard group commit for unfenced AddInt ops:
// concurrent increments funnel into one pipelined HINCRBY flush per shard
// instead of one round trip per call, while every caller still observes its
// exact intermediate value. See coalescer.
func (b *RedisBackend) EnableCoalescing() { b.coal = newCoalescer() }

// liveKey is the hash holding a namespace's live entries.
func (b *RedisBackend) liveKey(ns string) string { return b.prefix + ":st:{" + ns + "}" }

// ckptKey is the string key holding a namespace's checkpoint.
func (b *RedisBackend) ckptKey(ns string) string { return b.prefix + ":ck:{" + ns + "}" }

// Open implements Backend. The namespace's live key and shard are resolved
// once here — every key of the namespace carries the same hash tag, so one
// lookup covers them all.
func (b *RedisBackend) Open(namespace string) (Store, error) {
	live := b.liveKey(namespace)
	shard := b.cluster.ShardFor(live)
	st := &redisStore{b: b, namespace: namespace, live: live, shard: shard, cl: b.cluster.Shard(shard)}
	st.mutations.to = st
	return st, nil
}

// SaveCheckpoint implements Backend.
func (b *RedisBackend) SaveCheckpoint(namespace string, snap Snapshot) error {
	enc, err := EncodeValue(map[string]string(snap))
	if err != nil {
		return err
	}
	if err := b.cluster.For(b.ckptKey(namespace)).Set(b.ckptKey(namespace), enc); err != nil {
		return fmt.Errorf("state: save checkpoint %s: %w", namespace, err)
	}
	return nil
}

// LoadCheckpoint implements Backend.
func (b *RedisBackend) LoadCheckpoint(namespace string) (Snapshot, bool, error) {
	key := b.ckptKey(namespace)
	s, ok, err := b.cluster.For(key).Get(key)
	if err != nil || !ok {
		return nil, false, err
	}
	m, err := DecodeValue[map[string]string](s)
	if err != nil {
		return nil, false, fmt.Errorf("state: load checkpoint %s: %w", namespace, err)
	}
	return Snapshot(m), true, nil
}

// DropNamespace implements Backend.
func (b *RedisBackend) DropNamespace(namespace string) error {
	// liveKey and ckptKey share the namespace tag: one shard holds both.
	_, err := b.cluster.For(b.liveKey(namespace)).Del(b.liveKey(namespace), b.ckptKey(namespace))
	return err
}

// Close implements Backend.
func (b *RedisBackend) Close() error {
	if b.coal != nil {
		b.coal.close()
	}
	if b.ownsCluster {
		return b.cluster.Close()
	}
	return nil
}

// redisStore is one namespace on a RedisBackend, pinned to the shard its
// hash tag maps to.
type redisStore struct {
	mutations
	b         *RedisBackend
	namespace string
	live      string // the hash holding the namespace's entries (liveKey)
	shard     int
	cl        *redisclient.Client
}

// Namespace implements Store.
func (st *redisStore) Namespace() string { return st.namespace }

// Get implements Store.
func (st *redisStore) Get(key string) (string, bool, error) {
	return st.cl.HGet(st.live, key)
}

// Apply implements Store. An unfenced op is the plain hash command — HSET
// or HINCRBY, atomic on the server, so no client-side lock (with coalescing
// on, concurrent increments group-commit into one pipelined flush per shard
// and each caller still gets the exact value its own delta produced). A
// fenced op is one FENCEAPPLY compound command, its SET or INCR arm: the
// server checks the ledger, records it and applies the mutation under its
// dispatch lock — a single round trip with no record/apply gap, no
// duplicate-delta transient and no compensating undo. A duplicate applies
// nothing, and for an increment the server reports the field's current
// value, so the caller always observes the effective count. FENCEAPPLY is
// ledger-gated and therefore retry-safe: the client re-sends it across a
// lost reply without risk of double application.
func (st *redisStore) Apply(op Op) (Result, error) {
	res := Result{Applied: true}
	var err error
	switch {
	case op.Kind == OpPut && op.Ledger != "":
		res.Applied, err = st.cl.FenceApplySet(st.live, op.Ledger, op.Key, op.Value)
	case op.Kind == OpPut:
		err = st.cl.HSet(st.live, op.Key, op.Value)
	case op.Ledger != "":
		res.Applied, res.N, err = st.cl.FenceApplyIncr(st.live, op.Ledger, op.Key, op.Delta)
	case st.b.coal != nil:
		res.N, err = st.b.coal.addInt(st.shard, st.cl, st.live, op.Key, op.Delta)
	default:
		res.N, err = st.cl.HIncrBy(st.live, op.Key, op.Delta)
	}
	if err != nil {
		return Result{}, err
	}
	return res, nil
}

// home implements homed: the namespace's hash and the address of the shard
// holding it. A transport whose queues live on that same server records a
// Final's task gate inside its own SINKAPPEND flush; gate, ledger and sink
// entries then co-locate because the transport routes the flush by hashing
// the key through its ring, which for a shared cluster names this shard.
func (st *redisStore) home() (key, addr string) { return st.live, st.cl.Addr() }

// Snapshot implements Store.
func (st *redisStore) Snapshot() (Snapshot, error) {
	m, err := st.cl.HGetAll(st.live)
	if err != nil {
		return nil, err
	}
	return Snapshot(m), nil
}

// Restore implements Store.
func (st *redisStore) Restore(snap Snapshot) error {
	if _, err := st.cl.Del(st.live); err != nil {
		return err
	}
	if len(snap) == 0 {
		return nil
	}
	fv := make([]string, 0, 2*len(snap))
	for k, v := range snap {
		fv = append(fv, k, v)
	}
	return st.cl.HSet(st.live, fv...)
}

var (
	_ Store   = (*redisStore)(nil)
	_ Backend = (*RedisBackend)(nil)
)
