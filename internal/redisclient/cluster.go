package redisclient

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"sync"
)

// ringVnodes is how many ring points each shard owns. More points smooth the
// key distribution; 128 keeps placement within a few percent of uniform while
// the ring stays small enough for binary search to be free.
const ringVnodes = 128

// Cluster routes keys across N Redis shards with a consistent-hash ring.
// It is the single answer to "which server holds this key?" for every layer
// of the data plane: the transport routes stream partitions by explicit
// shard index, the state backend routes namespace hashes by hashed key, and
// both agree because they share one Cluster (and therefore one ring).
//
// Placement follows the Redis Cluster hash-tag convention: when a key
// contains a "{tag}" substring, only the tag is hashed. The state backend's
// live hash, checkpoint, lock and fence-ledger keys of one namespace all
// embed the same "{namespace}" tag, so they land on one shard by
// construction — that co-location is what keeps FENCEAPPLY and SINKAPPEND
// single-shard transactions.
//
// The ring makes placement stable under shard-count changes: growing from N
// to N+1 shards only moves the keys whose ring arc the new shard's virtual
// nodes capture (~1/(N+1) of the keyspace), not a full reshuffle.
type Cluster struct {
	clients []*Client
	ring    []ringPoint
}

// ringPoint is one virtual node: a position on the hash circle owned by a
// shard index.
type ringPoint struct {
	hash  uint64
	shard int
}

// NewCluster dials one client per address and assembles the ring. The
// cluster owns the clients: Close closes them. Ring positions depend only on
// the shard index, not the address, so a shard keeps its arc when its server
// is restarted elsewhere.
func NewCluster(addrs []string) (*Cluster, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("redisclient: cluster needs at least one address")
	}
	clients := make([]*Client, len(addrs))
	for i, addr := range addrs {
		if addr == "" {
			return nil, fmt.Errorf("redisclient: cluster shard %d has an empty address", i)
		}
		clients[i] = Dial(addr)
	}
	ring := make([]ringPoint, 0, len(clients)*ringVnodes)
	for shard := range clients {
		for v := 0; v < ringVnodes; v++ {
			ring = append(ring, ringPoint{hash: hash64(fmt.Sprintf("shard%d#%d", shard, v)), shard: shard})
		}
	}
	sort.Slice(ring, func(i, j int) bool { return ring[i].hash < ring[j].hash })
	return &Cluster{clients: clients, ring: ring}, nil
}

// NumShards is the shard count.
func (c *Cluster) NumShards() int { return len(c.clients) }

// Shard returns the client of shard i — the explicit-placement path used by
// the transport, whose partitions are addressed by index rather than by key.
func (c *Cluster) Shard(i int) *Client { return c.clients[i] }

// ShardFor maps a key to its owning shard index by consistent hash.
func (c *Cluster) ShardFor(key string) int {
	if len(c.clients) == 1 {
		return 0
	}
	h := hash64(hashTag(key))
	i := sort.Search(len(c.ring), func(i int) bool { return c.ring[i].hash >= h })
	if i == len(c.ring) {
		i = 0
	}
	return c.ring[i].shard
}

// For returns the client owning key.
func (c *Cluster) For(key string) *Client { return c.clients[c.ShardFor(key)] }

// hashTag extracts the routable part of a key: the substring of the first
// "{...}" pair when present and non-empty (the Redis Cluster convention),
// else the whole key.
func hashTag(key string) string {
	if open := strings.IndexByte(key, '{'); open >= 0 {
		if close := strings.IndexByte(key[open+1:], '}'); close > 0 {
			return key[open+1 : open+1+close]
		}
	}
	return key
}

// hash64 is FNV-1a finished with a splitmix64 round, stable across processes
// (placement must agree between the run's workers and any external observer
// sharing the ring). The finalizer matters: bare FNV-1a diffuses a trailing
// character change weakly into the high bits, and the ring orders points by
// the full 64-bit value — without the mix, vnode points ("shard0#1",
// "shard0#2", ...) clump and shards end up with arcs several times their fair
// share no matter how many vnodes are added.
func hash64(s string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(s))
	x := h.Sum64()
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Ping verifies every shard is reachable.
func (c *Cluster) Ping() error {
	for i, cl := range c.clients {
		if err := cl.Ping(); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return nil
}

// Each runs fn sequentially on every shard, stopping at the first error.
func (c *Cluster) Each(fn func(shard int, cl *Client) error) error {
	for i, cl := range c.clients {
		if err := fn(i, cl); err != nil {
			return err
		}
	}
	return nil
}

// Gather runs fn concurrently on every shard (the scatter-gather primitive
// behind multi-key drains) and returns the first error. With one shard it
// degenerates to a plain call — no goroutine, no extra latency at N=1.
func (c *Cluster) Gather(fn func(shard int, cl *Client) error) error {
	if len(c.clients) == 1 {
		return fn(0, c.clients[0])
	}
	var wg sync.WaitGroup
	errs := make([]error, len(c.clients))
	for i, cl := range c.clients {
		wg.Add(1)
		go func(i int, cl *Client) {
			defer wg.Done()
			errs[i] = fn(i, cl)
		}(i, cl)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// SumInt scatter-gathers an integer metric (queue depth, pending count)
// across shards and returns the total.
func (c *Cluster) SumInt(fn func(shard int, cl *Client) (int64, error)) (int64, error) {
	var mu sync.Mutex
	var total int64
	err := c.Gather(func(i int, cl *Client) error {
		n, err := fn(i, cl)
		if err != nil {
			return err
		}
		mu.Lock()
		total += n
		mu.Unlock()
		return nil
	})
	return total, err
}

// Stats sums the per-shard client statistics.
func (c *Cluster) Stats() Stats {
	var out Stats
	for _, cl := range c.clients {
		s := cl.Stats()
		out.RoundTrips += s.RoundTrips
		out.Retries += s.Retries
	}
	return out
}

// Close closes the shard clients.
func (c *Cluster) Close() error {
	var first error
	for _, cl := range c.clients {
		if err := cl.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
