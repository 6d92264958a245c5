package runtime_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/miniredis"
	"repro/internal/redisclient"
	"repro/internal/runtime"
	"repro/internal/state"
)

// shardedCluster starts n embedded servers and a cluster over them.
func shardedCluster(t *testing.T, n int) *redisclient.Cluster {
	c, _ := shardedServers(t, n)
	return c
}

// shardedServers is shardedCluster that also returns the servers, in shard
// order.
func shardedServers(t *testing.T, n int) (*redisclient.Cluster, []*miniredis.Server) {
	t.Helper()
	srvs := make([]*miniredis.Server, n)
	addrs := make([]string, n)
	for i := range addrs {
		srv, err := miniredis.StartTestServer()
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		srvs[i], addrs[i] = srv, srv.Addr()
	}
	c, err := redisclient.NewCluster(addrs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c, srvs
}

// TestRedisPullRoundTrips pins what one PullBatch costs in commands at one
// and two shards: a pull sends the one blocking read of home, plus a sweep
// read of each other shard that has entries nobody read yet. So an idle
// pull costs one command, an entry on another shard is found by the first
// sweep read, the next pull skips that sweep again, and an entry already on
// home comes back from the blocking read without waiting out its timeout.
func TestRedisPullRoundTrips(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			cluster, srvs := shardedServers(t, shards)
			commands := func() (n int64) {
				for _, srv := range srvs {
					n += srv.Commands()
				}
				return n
			}
			// Pool worker w's home is shard w, so each shard is some worker's home.
			plan := runtime.NewPlan(make([]runtime.WorkerSpec, shards), map[string]int{"pe": 0})
			tr, err := runtime.NewRedisTransport(cluster, runtime.NewRunKeys("pulltrips", 1), plan, false)
			if err != nil {
				t.Fatal(err)
			}
			defer tr.Done()
			// pull runs one PullBatch by worker w and returns its deliveries,
			// the commands it sent and how long it took.
			pull := func(w int, timeout time.Duration) ([]runtime.Env, int64, time.Duration) {
				t.Helper()
				before, start := commands(), time.Now()
				envs, err := tr.PullBatch(w, 4, timeout)
				if err != nil {
					t.Fatal(err)
				}
				return envs, commands() - before, time.Since(start)
			}
			// push puts one task on the stream and returns the shard that got it.
			push := func(v int) int {
				t.Helper()
				before := tr.QueueDepths()
				if err := tr.Push(runtime.Task{PE: "pe", Port: "in", Instance: -1, Value: v}); err != nil {
					t.Fatal(err)
				}
				after := tr.QueueDepths()
				for s := 0; s < shards; s++ {
					if key := fmt.Sprintf("s%d:stream", s); after[key] > before[key] {
						return s
					}
				}
				t.Fatal("pushed task is on no shard")
				return -1
			}
			ack := func(w int, envs []runtime.Env) {
				t.Helper()
				if err := tr.Ack(w, envs...); err != nil {
					t.Fatal(err)
				}
			}

			for w := 0; w < shards; w++ {
				if envs, n, _ := pull(w, 2*time.Millisecond); len(envs) != 0 || n != 1 {
					t.Fatalf("idle pull by worker %d: %d deliveries in %d commands, want 0 in 1", w, len(envs), n)
				}
			}

			if shards > 1 {
				s := push(1)
				w := (s + 1) % shards // a worker whose home is not s
				envs, n, _ := pull(w, 2*time.Millisecond)
				if len(envs) != 1 || envs[0].Shard != s || n != 1 {
					t.Fatalf("entry on shard %d, pulled by worker %d: %v in %d commands, want it found by the first sweep read", s, w, envs, n)
				}
				ack(w, envs)
				if envs, n, _ := pull(w, 2*time.Millisecond); len(envs) != 0 || n != 1 {
					t.Fatalf("pull by worker %d after shard %d's one entry was read: %d deliveries in %d commands, want 0 in 1 (no sweep)", w, s, len(envs), n)
				}
			}

			s := push(2)
			envs, n, took := pull(s, time.Second)
			if len(envs) != 1 || envs[0].Shard != s || n != 1 {
				t.Fatalf("entry on home shard %d: %v in %d commands, want it in 1", s, envs, n)
			}
			if took >= 100*time.Millisecond {
				t.Fatalf("entry already on home took %v to pull with a 1s timeout; the blocking read must return at once", took)
			}
			ack(s, envs)
			if p, err := tr.Pending(); err != nil || p != 0 {
				t.Fatalf("pending = %d (%v), want 0", p, err)
			}
		})
	}
}

// TestShardedPoolSpreadsAndDrains pins the multi-shard pool path: unfenced
// entries round-robin across the shard partitions, depth gauges report per
// shard, every delivery carries its shard in the (Shard, AckID) identity,
// and acking everything drains the scatter-gathered pending count to zero.
func TestShardedPoolSpreadsAndDrains(t *testing.T) {
	const shards, workers, tasks = 2, 2, 8
	cluster := shardedCluster(t, shards)
	plan := runtime.NewPlan(make([]runtime.WorkerSpec, workers), map[string]int{"pe": 0})
	tr, err := runtime.NewRedisTransport(cluster, runtime.NewRunKeys("shardpool", 1), plan, false)
	if err != nil {
		t.Fatal(err)
	}
	// One Push per task: each call packs its own entry, so the round-robin
	// spreads entries (a single batched Push is one entry on one shard).
	for i := 0; i < tasks; i++ {
		if err := tr.Push(runtime.Task{PE: "pe", Port: "in", Instance: -1, Value: i}); err != nil {
			t.Fatal(err)
		}
	}

	depths := tr.QueueDepths()
	var total int64
	for s := 0; s < shards; s++ {
		key := fmt.Sprintf("s%d:stream", s)
		n, ok := depths[key]
		if !ok || n == 0 {
			t.Fatalf("gauge %q = %d; round-robin left a shard partition empty (depths %v)", key, n, depths)
		}
		total += n
	}
	if total != tasks {
		t.Fatalf("per-shard stream depths sum to %d, want %d (%v)", total, tasks, depths)
	}
	if p, err := tr.Pending(); err != nil || p != tasks {
		t.Fatalf("pending = %d (%v), want %d", p, err, tasks)
	}

	seenShards := map[int]bool{}
	acked := 0
	for w := 0; acked < tasks; w = (w + 1) % workers {
		envs, err := tr.PullBatch(w, 4, 2*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		for _, env := range envs {
			seenShards[env.Shard] = true
		}
		if len(envs) > 0 {
			if err := tr.Ack(w, envs...); err != nil {
				t.Fatal(err)
			}
			acked += len(envs)
		}
	}
	if len(seenShards) != shards {
		t.Fatalf("deliveries came from shards %v, want all %d shards", seenShards, shards)
	}
	if p, err := tr.Pending(); err != nil || p != 0 {
		t.Fatalf("pending after full ack = %d (%v), want 0", p, err)
	}
	_ = tr.Done()
}

// TestShardedPushFencedStaysOnGateShard pins the co-location invariant: a
// fenced batch lands entirely on the shard of its gate key, so SINKAPPEND
// stays a single-shard transaction, and replaying the same gate is a no-op.
func TestShardedPushFencedStaysOnGateShard(t *testing.T) {
	const shards = 4
	cluster := shardedCluster(t, shards)
	plan := runtime.NewPlan(make([]runtime.WorkerSpec, 1), map[string]int{"pe": 0})
	tr, err := runtime.NewRedisTransport(cluster, runtime.NewRunKeys("shardfence", 1), plan, false)
	if err != nil {
		t.Fatal(err)
	}
	key := "shardfence:state:gate:{sessionize/3}"
	home := cluster.ShardFor(key)
	gate := state.TaskGate{Key: key, Field: "final", Addr: cluster.Shard(home).Addr()}

	batch := make([]runtime.Task, 5)
	for i := range batch {
		batch[i] = runtime.Task{PE: "pe", Port: "in", Instance: -1, Value: i}
	}
	applied, err := tr.PushFenced(gate, 0, batch...)
	if err != nil {
		t.Fatal(err)
	}
	if !applied {
		t.Fatal("first PushFenced reported the gate as already recorded")
	}
	for s := 0; s < shards; s++ {
		n := tr.QueueDepths()[fmt.Sprintf("s%d:stream", s)]
		if s == home && n == 0 {
			t.Fatalf("gate shard %d holds no entries after PushFenced", home)
		}
		if s != home && n != 0 {
			t.Fatalf("fenced batch leaked %d entries onto shard %d (gate shard %d)", n, s, home)
		}
	}
	if p, err := tr.Pending(); err != nil || p != int64(len(batch)) {
		t.Fatalf("pending = %d (%v), want %d", p, err, len(batch))
	}

	// A replayed flush with the same gate must change nothing.
	applied, err = tr.PushFenced(gate, 0, batch...)
	if err != nil {
		t.Fatal(err)
	}
	if applied {
		t.Fatal("replayed PushFenced applied again; the gate did not fence")
	}
	if p, _ := tr.Pending(); p != int64(len(batch)) {
		t.Fatalf("pending = %d after replayed flush, want %d", p, len(batch))
	}
	_ = tr.Done()
}

// TestShardedPinnedStreamFollowsRing pins the private-partition path: a
// pinned instance's frames go to the hash-ring home of its stream key, and
// its worker finds and acks them there.
func TestShardedPinnedStreamFollowsRing(t *testing.T) {
	const shards = 4
	cluster := shardedCluster(t, shards)
	keys := runtime.NewRunKeys("shardpriv", 1)
	plan := runtime.NewPlan(
		[]runtime.WorkerSpec{{}, {PE: "sess", Instance: 0}, {PE: "sess", Instance: 1}},
		map[string]int{"sess": 2},
	)
	tr, err := runtime.NewRedisTransport(cluster, keys, plan, false)
	if err != nil {
		t.Fatal(err)
	}
	for inst := 0; inst < 2; inst++ {
		if err := tr.Push(runtime.Task{PE: "sess", Port: "in", Instance: inst, Value: inst}); err != nil {
			t.Fatal(err)
		}
	}
	depths := tr.QueueDepths()
	for inst := 0; inst < 2; inst++ {
		home := cluster.ShardFor(keys.PrivKey("sess", inst))
		for s := 0; s < shards; s++ {
			n := depths[fmt.Sprintf("s%d:priv:sess:%d", s, inst)]
			if s == home && n != 1 {
				t.Fatalf("instance %d: home shard %d partition holds %d frames, want 1 (%v)", inst, home, n, depths)
			}
			if s != home && n != 0 {
				t.Fatalf("instance %d: frame leaked onto shard %d (home %d)", inst, s, home)
			}
		}
	}
	for inst := 0; inst < 2; inst++ {
		w, ok := plan.WorkerFor("sess", inst)
		if !ok {
			t.Fatalf("no worker for instance %d", inst)
		}
		envs, err := tr.PullBatch(w, 4, 2*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		if len(envs) != 1 || envs[0].Value != inst {
			t.Fatalf("instance %d pulled %v", inst, envs)
		}
		if want := cluster.ShardFor(keys.PrivKey("sess", inst)); envs[0].Shard != want {
			t.Fatalf("instance %d delivery tagged shard %d, want %d", inst, envs[0].Shard, want)
		}
		if err := tr.Ack(w, envs...); err != nil {
			t.Fatal(err)
		}
	}
	if p, err := tr.Pending(); err != nil || p != 0 {
		t.Fatalf("pending = %d (%v), want 0", p, err)
	}
	_ = tr.Done()
}

// TestSingleShardGaugesCarryShardPrefix pins one gauge naming at every shard
// count: a single-shard cluster reports "s0:"-prefixed keys like any other,
// and no unprefixed name remains.
func TestSingleShardGaugesCarryShardPrefix(t *testing.T) {
	cluster := shardedCluster(t, 1)
	plan := runtime.NewPlan(
		[]runtime.WorkerSpec{{}, {PE: "sess", Instance: 0}},
		map[string]int{"sess": 1},
	)
	tr, err := runtime.NewRedisTransport(cluster, runtime.NewRunKeys("shardone", 1), plan, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Push(
		runtime.Task{PE: "pe", Port: "in", Instance: -1},
		runtime.Task{PE: "sess", Port: "in", Instance: 0},
	); err != nil {
		t.Fatal(err)
	}
	depths := tr.QueueDepths()
	for _, key := range []string{"s0:stream", "s0:priv:sess:0"} {
		if n, ok := depths[key]; !ok || n != 1 {
			t.Fatalf("gauge %q = %d (present %v) at one shard; want depth 1 (%v)", key, n, ok, depths)
		}
	}
	if len(depths) != 2 {
		t.Fatalf("gauges %v at one shard, want exactly s0:stream and s0:priv:sess:0", depths)
	}
	_ = tr.Done()
}
