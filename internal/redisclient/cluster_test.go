package redisclient

import (
	"fmt"
	"testing"

	"repro/internal/miniredis"
)

// fakeCluster builds an n-shard cluster over undial-ed clients — ring-only
// tests never touch the network because Dial is lazy.
func fakeCluster(n int) *Cluster {
	addrs := make([]string, n)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("shard-%d.invalid:0", i)
	}
	c, err := NewCluster(addrs)
	if err != nil {
		panic(err)
	}
	return c
}

func TestShardForDistribution(t *testing.T) {
	c := fakeCluster(4)
	const keys = 10_000
	counts := make([]int, 4)
	for i := 0; i < keys; i++ {
		counts[c.ShardFor(fmt.Sprintf("run:st:{user%d}", i))]++
	}
	for s, n := range counts {
		frac := float64(n) / keys
		if frac < 0.10 || frac > 0.45 {
			t.Errorf("shard %d owns %.1f%% of the keyspace; 64 vnodes should keep shards within [10%%, 45%%]", s, 100*frac)
		}
	}
}

// TestRingStabilityUnderGrowth pins the consistent-hash property the ring
// exists for: adding a shard moves roughly 1/(N+1) of the keys, not a full
// modulo reshuffle.
func TestRingStabilityUnderGrowth(t *testing.T) {
	before, after := fakeCluster(3), fakeCluster(4)
	const keys = 10_000
	moved := 0
	for i := 0; i < keys; i++ {
		k := fmt.Sprintf("run:st:{user%d}", i)
		if before.ShardFor(k) != after.ShardFor(k) {
			moved++
		}
	}
	frac := float64(moved) / keys
	if frac == 0 {
		t.Fatal("no keys moved when a shard was added — the new shard owns nothing")
	}
	// Ideal is 1/4; anything far above that means placement is not
	// arc-stable (a modulo hash moves ~3/4 here).
	if frac > 0.40 {
		t.Errorf("%.1f%% of keys moved when growing 3→4 shards; consistent hashing should move ~25%%", 100*frac)
	}
}

// TestHashTagColocation pins the co-location invariant the fence depends on:
// every key embedding the same {namespace} tag hashes to one shard, so a
// task's gate, ledger entry and sink land in single-shard transactions.
func TestHashTagColocation(t *testing.T) {
	c := fakeCluster(4)
	for _, ns := range []string{"sessionize/0", "count:7", "weird{inner"} {
		keys := []string{
			"run:state:st:{" + ns + "}",
			"run:state:ck:{" + ns + "}",
			"run:state:lock:{" + ns + "}",
			"completely-different-prefix:{" + ns + "}:suffix",
		}
		want := c.ShardFor(keys[0])
		for _, k := range keys[1:] {
			if got := c.ShardFor(k); got != want {
				t.Errorf("key %q on shard %d, sibling %q on shard %d; same tag must co-locate", keys[0], want, k, got)
			}
		}
	}
}

func TestHashTag(t *testing.T) {
	cases := map[string]string{
		"plain":        "plain",
		"a:{tag}:b":    "tag",
		"a:{}:b":       "a:{}:b", // empty tag falls back to the whole key
		"a:{open":      "a:{open",
		"{first}{two}": "first",
	}
	for key, want := range cases {
		if got := hashTag(key); got != want {
			t.Errorf("hashTag(%q) = %q, want %q", key, got, want)
		}
	}
}

func TestSingleShardFastPath(t *testing.T) {
	c := fakeCluster(1)
	if c.NumShards() != 1 {
		t.Fatalf("NumShards = %d, want 1", c.NumShards())
	}
	for _, k := range []string{"", "x", "a:{tag}:b"} {
		if got := c.ShardFor(k); got != 0 {
			t.Errorf("ShardFor(%q) = %d on a single-shard cluster, want 0", k, got)
		}
	}
	// Closing a cluster that never dialed is clean.
	if err := c.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func TestClusterRoutesToDistinctServers(t *testing.T) {
	const shards = 3
	addrs := make([]string, shards)
	servers := make([]*miniredis.Server, shards)
	for i := range addrs {
		srv, err := miniredis.StartTestServer()
		if err != nil {
			t.Fatal(err)
		}
		servers[i] = srv
		addrs[i] = srv.Addr()
	}
	c, err := NewCluster(addrs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		c.Close()
		for _, srv := range servers {
			srv.Close()
		}
	})
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}

	// Writes through For(key) must be readable on the shard ShardFor names
	// and absent everywhere else.
	for i := 0; i < 50; i++ {
		key := fmt.Sprintf("probe:{k%d}", i)
		if err := c.For(key).Set(key, "v"); err != nil {
			t.Fatal(err)
		}
		home := c.ShardFor(key)
		for s := 0; s < shards; s++ {
			got, ok, err := c.Shard(s).Get(key)
			if err != nil {
				t.Fatal(err)
			}
			if s == home && (!ok || got != "v") {
				t.Fatalf("key %q missing on its home shard %d", key, home)
			}
			if s != home && ok {
				t.Fatalf("key %q leaked onto shard %d (home %d)", key, s, home)
			}
		}
	}

	// SumInt totals across shards.
	total, err := c.SumInt(func(shard int, cl *Client) (int64, error) {
		return cl.HIncrBy("cnt", "f", int64(shard+1))
	})
	if err != nil {
		t.Fatal(err)
	}
	if total != 1+2+3 {
		t.Fatalf("SumInt = %d, want 6", total)
	}
}
