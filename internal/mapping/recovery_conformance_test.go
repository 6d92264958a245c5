package mapping_test

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/mapping"
	"repro/internal/miniredis"
	"repro/internal/platform"
	"repro/internal/redisclient"
	"repro/internal/runtime"
	"repro/internal/state"
)

// chaosDupAckID tags wrapper-injected duplicate deliveries on transports
// without per-delivery acknowledgement state (queue, rank), so their
// acks are swallowed by the wrapper instead of double-decrementing the
// pending counter. The Redis transport keeps the real entry ID: its fenced
// ack path is exactly what must absorb the duplicate.
const chaosDupAckID = "chaos:dup"

// chaosTransport wraps a real transport and injects duplicate deliveries:
// selected tasks are delivered a second time, preferably to a different
// worker, while the original delivery proceeds normally — the observable
// behaviour of an at-least-once replay racing the still-alive original
// (XAUTOCLAIM after a worker stalls, a killed worker's batch re-claimed
// mid-flight). With exactly-once fencing the duplicates must be invisible
// to managed state and to termination accounting. Every other call reaches
// the wrapped transport unchanged.
type chaosTransport struct {
	runtime.Transport
	// eligible selects envelopes to duplicate.
	eligible func(runtime.Env) bool
	// target picks the worker a duplicate is delivered to.
	target func(env runtime.Env, from, workers int) int
	// stripDupAcks marks in-process transports whose duplicate acks the
	// wrapper must swallow.
	stripDupAcks bool
	workers      int
	budget       int

	mu     sync.Mutex
	seen   map[[2]uint64]bool
	stash  map[int][]runtime.Env
	issued int
}

func newChaosTransport(inner runtime.Transport, workers, budget int, stripDupAcks bool,
	eligible func(runtime.Env) bool, target func(env runtime.Env, from, workers int) int) *chaosTransport {
	return &chaosTransport{
		Transport: inner, eligible: eligible, target: target, stripDupAcks: stripDupAcks,
		workers: workers, budget: budget,
		seen: map[[2]uint64]bool{}, stash: map[int][]runtime.Env{},
	}
}

// PullBatch implements runtime.Transport: duplicates stashed for this worker
// are prepended to whatever the real transport delivers, and fresh eligible
// deliveries are copied into the stash of their duplicate's target worker.
func (c *chaosTransport) PullBatch(w, max int, timeout time.Duration) ([]runtime.Env, error) {
	envs, err := c.Transport.PullBatch(w, max, timeout)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, env := range envs {
		if c.issued >= c.budget || !c.eligible(env) {
			continue
		}
		key := [2]uint64{env.Src, env.Seq}
		if env.Src == 0 || c.seen[key] {
			continue
		}
		c.seen[key] = true
		c.issued++
		dup := env
		if c.stripDupAcks {
			dup.AckID = chaosDupAckID
		}
		c.stash[c.target(env, w, c.workers)] = append(c.stash[c.target(env, w, c.workers)], dup)
	}
	if dups := c.stash[w]; len(dups) > 0 {
		delete(c.stash, w)
		return append(dups, envs...), nil
	}
	return envs, nil
}

// Ack implements runtime.Transport, swallowing wrapper-tagged duplicates.
func (c *chaosTransport) Ack(w int, envs ...runtime.Env) error {
	if c.stripDupAcks {
		kept := envs[:0]
		for _, env := range envs {
			if env.AckID != chaosDupAckID {
				kept = append(kept, env)
			}
		}
		envs = kept
	}
	if len(envs) == 0 {
		return nil
	}
	return c.Transport.Ack(w, envs...)
}

// Issued reports how many duplicates were injected.
func (c *chaosTransport) Issued() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.issued
}

// shardLeakBackend wraps the run's state backend to check the co-location
// invariant while the data still exists: a run's namespaces are dropped on
// success, so the check rides the drop — just before a namespace's live hash
// (state entries plus the fence-ledger fields living inside it) is removed,
// it must be non-empty on exactly one shard, the one the cluster's ring names
// for its key. A hash on two shards means some writer routed around the
// shared cluster, so the exactly-once fence was checking a different ledger
// than the one being written.
type shardLeakBackend struct {
	state.Backend
	t       *testing.T
	cluster *redisclient.Cluster
	prefix  string

	mu      sync.Mutex
	checked int
}

func (b *shardLeakBackend) DropNamespace(ns string) error {
	key := b.prefix + ":st:{" + ns + "}"
	var found []int
	for s := 0; s < b.cluster.NumShards(); s++ {
		if n, err := b.cluster.Shard(s).HLen(key); err == nil && n > 0 {
			found = append(found, s)
		}
	}
	// Empty everywhere is the pre-run hygiene drop (or a namespace that
	// never wrote); only populated hashes witness placement.
	if len(found) > 0 {
		b.mu.Lock()
		b.checked++
		b.mu.Unlock()
		if len(found) > 1 {
			b.t.Errorf("state hash %q present on shards %v — cross-shard fence leak", key, found)
		} else if home := b.cluster.ShardFor(key); found[0] != home {
			b.t.Errorf("state hash %q on shard %d but the ring places it on %d", key, found[0], home)
		}
	}
	return b.Backend.DropNamespace(ns)
}

// verify fails the test when no populated namespace was ever checked.
func (b *shardLeakBackend) verify() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.checked == 0 {
		b.t.Error("no populated state hash was dropped; the leak assertion exercised nothing")
	}
}

// TestKillAndReplayExactlyOnceAcrossTransports is the kill-and-replay chaos
// property of the keyed-state conformance suite: on every transport, a
// managed keyed aggregation whose deliveries are replayed mid-run — source
// generates, keyed updates, even the Finalize flush, each executed twice
// with both executions racing — must produce final aggregates byte-identical
// to an undisturbed sequential run. This is what Options.ExactlyOnceState
// (implied by RecoverStale) guarantees: duplicate executions re-stamp
// identical child identities, the store's applied ledger drops re-applied
// updates, the Final gate admits one flush, and duplicate acknowledgements
// never unbalance drain-based termination.
func TestKillAndReplayExactlyOnceAcrossTransports(t *testing.T) {
	items := keyedAggItems(60)

	reference := func(t *testing.T) []string {
		var got []string
		g := keyedAggGraph(items, 1, func(s string) { got = append(got, s) })
		m, _ := mapping.Get("simple")
		if _, err := m.Execute(g, testOpts(1)); err != nil {
			t.Fatal(err)
		}
		sort.Strings(got)
		return got
	}
	want := reference(t)

	// Duplicate the fence-relevant deliveries: source generates (their
	// re-emitted children must dedup downstream), keyed-state updates, and
	// the managed node's Finalize. Sink deliveries are left alone — the
	// collector is a side effect outside managed state.
	eligible := func(env runtime.Env) bool { return env.PE == "gen" || env.PE == "count" }

	// The fixtures drive the shared runtime directly: the mappings construct
	// their transports internally, so chaos injection needs this seam.
	type fixture struct {
		name string
		run  func(t *testing.T, collect func(string)) *chaosTransport
	}

	// pinnedTarget redirects a duplicate to another worker owning the same
	// PE when one exists (another count instance), else back to the origin.
	pinnedTarget := func(plan runtime.Plan) func(env runtime.Env, from, workers int) int {
		return func(env runtime.Env, from, workers int) int {
			for w, spec := range plan.Workers {
				if w != from && spec.PE == env.PE {
					return w
				}
			}
			return from
		}
	}
	// poolTarget: any other pool worker holds every pooled PE.
	poolTarget := func(env runtime.Env, from, workers int) int { return (from + 1) % workers }

	// redisFixture builds the redis chaos run over an n-shard embedded
	// cluster. recoverStale is on: duplicate acks of real entry IDs must be
	// absorbed by the transport's ownership-checked FENCEXACK, per shard.
	redisFixture := func(shards int, items []keyedItem, eligible func(runtime.Env) bool,
		target func(env runtime.Env, from, workers int) int) fixture {
		return fixture{name: fmt.Sprintf("redis-%dshard", shards), run: func(t *testing.T, collect func(string)) *chaosTransport {
			addrs := make([]string, shards)
			for i := range addrs {
				srv, err := miniredis.StartTestServer()
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { srv.Close() })
				addrs[i] = srv.Addr()
			}
			cluster, err := redisclient.NewCluster(addrs)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { cluster.Close() })
			g := keyedAggGraph(items, 0, collect)
			plan := runtime.PoolPlan(g, 3)
			keys := runtime.NewRunKeys(g.Name, 5)
			tr, err := runtime.NewRedisTransport(cluster, keys, plan, true)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { tr.Cleanup(g) })
			chaos := newChaosTransport(tr, 3, 16, false, eligible, target)
			opts := testOpts(3)
			opts.ExactlyOnceState = true
			leak := &shardLeakBackend{
				Backend: state.NewRedisClusterBackend(cluster, keys.Prefix+":state"),
				t:       t, cluster: cluster, prefix: keys.Prefix + ":state",
			}
			if _, err := runtime.Execute(g, opts, runtime.Config{
				Name: fmt.Sprintf("chaos-redis-%dshard", shards), Plan: plan, Transport: chaos,
				Host:            platform.NewHost(opts.Platform),
				NewStateBackend: func() state.Backend { return leak },
			}); err != nil {
				t.Fatal(err)
			}
			leak.verify()
			return chaos
		}}
	}

	fixtures := []fixture{
		{name: "queue", run: func(t *testing.T, collect func(string)) *chaosTransport {
			g := keyedAggGraph(items, 0, collect)
			plan := runtime.PoolPlan(g, 3)
			chaos := newChaosTransport(runtime.NewQueueTransport(runtime.NewQueue(0)), 3, 16, true, eligible, poolTarget)
			opts := testOpts(3)
			opts.ExactlyOnceState = true
			if _, err := runtime.Execute(g, opts, runtime.Config{
				Name: "chaos-queue", Plan: plan, Transport: chaos,
				Host:            platform.NewHost(opts.Platform),
				NewStateBackend: func() state.Backend { return state.NewMemoryBackend() },
			}); err != nil {
				t.Fatal(err)
			}
			return chaos
		}},
		// redis at 1, 2 and 4 shards: the same chaos must hold on the
		// single-server layout and across a sharded data plane, where the
		// duplicate flows additionally cross shard boundaries.
		redisFixture(1, items, eligible, poolTarget),
		redisFixture(2, items, eligible, poolTarget),
		redisFixture(4, items, eligible, poolTarget),
		{name: "rank", run: func(t *testing.T, collect func(string)) *chaosTransport {
			g := keyedAggGraph(items, 2, collect)
			plan := runtime.PinnedPlan(g, map[string]int{"gen": 1, "count": 2, "sink": 1})
			chaos := newChaosTransport(runtime.NewPinnedTransport(plan), len(plan.Workers), 16, true, eligible, pinnedTarget(plan))
			opts := testOpts(len(plan.Workers))
			opts.ExactlyOnceState = true
			if _, err := runtime.Execute(g, opts, runtime.Config{
				Name: "chaos-rank", Plan: plan, Transport: chaos,
				Host:            platform.NewHost(opts.Platform),
				NewStateBackend: func() state.Backend { return state.NewMemoryBackend() },
			}); err != nil {
				t.Fatal(err)
			}
			return chaos
		}},
	}

	for _, fx := range fixtures {
		fx := fx
		t.Run(fx.name, func(t *testing.T) {
			var mu sync.Mutex
			var got []string
			chaos := fx.run(t, func(s string) {
				mu.Lock()
				got = append(got, s)
				mu.Unlock()
			})
			mu.Lock()
			sort.Strings(got)
			joined := strings.Join(got, ",")
			mu.Unlock()
			if joined != strings.Join(want, ",") {
				t.Errorf("aggregates diverge under replay:\n got %v\nwant %v", got, want)
			}
			if chaos.Issued() == 0 {
				t.Error("chaos transport injected no duplicates; the test exercised nothing")
			}
		})
	}
}
