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
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		srv, err := miniredis.StartTestServer()
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		addrs[i] = srv.Addr()
	}
	c, err := redisclient.NewCluster(addrs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
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
