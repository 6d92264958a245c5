package state

import (
	"sort"
	"sync"
	"testing"

	"repro/internal/miniredis"
	"repro/internal/redisclient"
)

// coalesceCluster is a one-shard cluster over a fresh server; Shard(0) is its
// client, whose Stats the tests read.
func coalesceCluster(t *testing.T) *redisclient.Cluster {
	t.Helper()
	srv, err := miniredis.StartTestServer()
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := redisclient.NewCluster([]string{srv.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cluster.Close()
		srv.Close()
	})
	return cluster
}

// TestFlushAddsMergesIntoOneRoundTrip pins the group-commit mechanics
// deterministically: a batch with repeated and distinct fields costs exactly
// one pipeline round trip, lands the right totals server-side, and hands each
// op the exact intermediate value its arrival position produced.
func TestFlushAddsMergesIntoOneRoundTrip(t *testing.T) {
	cl := coalesceCluster(t).Shard(0)
	if _, err := cl.HIncrBy("h", "a", 100); err != nil {
		t.Fatal(err)
	}

	mkOp := func(hash, field string, delta int64) addOp {
		return addOp{hash: hash, field: field, delta: delta, reply: make(chan addReply, 1)}
	}
	ops := []addOp{
		mkOp("h", "a", 1),
		mkOp("h", "b", 10),
		mkOp("h", "a", 2),
		mkOp("g", "a", 5),
		mkOp("h", "a", 3),
	}
	before := cl.Stats().RoundTrips
	flushAdds(cl, ops)
	if got := cl.Stats().RoundTrips - before; got != 1 {
		t.Fatalf("flushAdds cost %d round trips, want 1", got)
	}

	// Exact intermediate values in arrival order: h.a walks 101, 103, 106
	// (from its pre-batch 100); h.b and g.a see their own deltas.
	want := []int64{101, 10, 103, 5, 106}
	for i, op := range ops {
		r := <-op.reply
		if r.err != nil {
			t.Fatalf("op %d: %v", i, r.err)
		}
		if r.val != want[i] {
			t.Fatalf("op %d observed %d, want %d", i, r.val, want[i])
		}
	}
	if v, err := cl.HIncrBy("h", "a", 0); err != nil || v != 106 {
		t.Fatalf("server h.a = %d (%v), want 106", v, err)
	}
	if v, err := cl.HIncrBy("g", "a", 0); err != nil || v != 5 {
		t.Fatalf("server g.a = %d (%v), want 5", v, err)
	}
}

// TestCoalescedAddIntExactUnderConcurrency is the contract test for the
// sessionize hot path: many goroutines hammering one counter through the
// coalescer must each observe a distinct exact value — collectively a
// permutation of 1..N, exactly as if every increment had been its own
// HINCRBY — and fewer round trips than ops.
func TestCoalescedAddIntExactUnderConcurrency(t *testing.T) {
	cluster := coalesceCluster(t)
	cl := cluster.Shard(0)
	b := NewRedisClusterBackend(cluster, "coal")
	b.EnableCoalescing()
	defer b.Close()
	st, err := b.Open("ns")
	if err != nil {
		t.Fatal(err)
	}

	const goroutines, perG = 8, 50
	vals := make([][]int64, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				v, err := st.AddInt("hot", 1)
				if err != nil {
					t.Error(err)
					return
				}
				vals[g] = append(vals[g], v)
			}
		}(g)
	}
	wg.Wait()

	var all []int64
	for _, vs := range vals {
		// Each goroutine's own increments must observe strictly increasing
		// values (it caused each of them).
		for i := 1; i < len(vs); i++ {
			if vs[i] <= vs[i-1] {
				t.Fatalf("goroutine observed non-increasing values %d then %d", vs[i-1], vs[i])
			}
		}
		all = append(all, vs...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	for i, v := range all {
		if v != int64(i+1) {
			t.Fatalf("observed values are not the permutation 1..%d: position %d holds %d", goroutines*perG, i, v)
		}
	}
	if trips := cl.Stats().RoundTrips; trips >= goroutines*perG {
		t.Fatalf("coalescing used %d round trips for %d ops; group commit is not merging", trips, goroutines*perG)
	}
}

// TestCoalescerCloseDegradesToDirect pins the shutdown path: after the
// backend closes the coalescer, AddInt still works via plain HIncrBy.
func TestCoalescerCloseDegradesToDirect(t *testing.T) {
	b := NewRedisClusterBackend(coalesceCluster(t), "coal2")
	b.EnableCoalescing()
	st, err := b.Open("ns")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.AddInt("k", 1); err != nil {
		t.Fatal(err)
	}
	b.coal.close()
	v, err := st.AddInt("k", 1)
	if err != nil {
		t.Fatal(err)
	}
	if v != 2 {
		t.Fatalf("AddInt after close = %d, want 2", v)
	}
}
