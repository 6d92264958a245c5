package state_test

import (
	"fmt"
	"reflect"
	"strconv"
	"sync"
	"testing"

	"repro/internal/metrics"
	"repro/internal/miniredis"
	"repro/internal/state"
)

// withBackends runs a subtest against both backend implementations.
func withBackends(t *testing.T, fn func(t *testing.T, b state.Backend)) {
	t.Helper()
	t.Run("memory", func(t *testing.T) {
		b := state.NewMemoryBackend()
		defer b.Close()
		fn(t, b)
	})
	t.Run("redis", func(t *testing.T) {
		srv, err := miniredis.StartTestServer()
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		b, err := state.DialRedisClusterBackend([]string{srv.Addr()}, "test")
		if err != nil {
			t.Fatal(err)
		}
		defer b.Close()
		fn(t, b)
	})
}

func TestStoreCRUD(t *testing.T) {
	withBackends(t, func(t *testing.T, b state.Backend) {
		st, err := b.Open(state.Namespace("wf", "pe"))
		if err != nil {
			t.Fatal(err)
		}
		if _, ok, _ := st.Get("missing"); ok {
			t.Error("missing key reported present")
		}
		if err := st.Put("a", "1"); err != nil {
			t.Fatal(err)
		}
		if err := st.Put("b", "2"); err != nil {
			t.Fatal(err)
		}
		if v, ok, err := st.Get("a"); err != nil || !ok || v != "1" {
			t.Errorf("get a: %q %v %v", v, ok, err)
		}
		entries, err := state.SortedEntries(st)
		if err != nil || len(entries) != 2 || entries[0] != (state.Entry{Key: "a", Value: "1"}) || entries[1].Key != "b" {
			t.Errorf("entries: %v %v", entries, err)
		}
		if err := st.Put("a", "3"); err != nil {
			t.Fatal(err)
		}
		if v, ok, err := st.Get("a"); err != nil || !ok || v != "3" {
			t.Errorf("get a after overwrite: %q %v %v", v, ok, err)
		}
		if snap, _ := st.Snapshot(); len(snap) != 2 {
			t.Errorf("entries after overwrite: %v", snap)
		}
	})
}

func TestStoreBinaryValuesRoundTrip(t *testing.T) {
	withBackends(t, func(t *testing.T, b state.Backend) {
		st, _ := b.Open("wf/bin")
		raw := string([]byte{0, 1, 2, 255, '\r', '\n', 0})
		if err := st.Put("k", raw); err != nil {
			t.Fatal(err)
		}
		if v, ok, err := st.Get("k"); err != nil || !ok || v != raw {
			t.Errorf("binary round trip failed: %q %v %v", v, ok, err)
		}
	})
}

func TestNamespaceIsolation(t *testing.T) {
	withBackends(t, func(t *testing.T, b state.Backend) {
		a, _ := b.Open("wf/a")
		c, _ := b.Open("wf/b")
		if err := a.Put("k", "from-a"); err != nil {
			t.Fatal(err)
		}
		if _, ok, _ := c.Get("k"); ok {
			t.Error("namespaces leaked")
		}
		// Re-opening a namespace sees the same data.
		a2, _ := b.Open("wf/a")
		if v, ok, _ := a2.Get("k"); !ok || v != "from-a" {
			t.Errorf("reopen lost data: %q %v", v, ok)
		}
	})
}

func TestAddIntConcurrent(t *testing.T) {
	withBackends(t, func(t *testing.T, b state.Backend) {
		st, _ := b.Open("wf/counters")
		const workers, perWorker = 8, 50
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				key := fmt.Sprintf("k%d", w%3) // contend on 3 keys
				for i := 0; i < perWorker; i++ {
					if _, err := st.AddInt(key, 1); err != nil {
						t.Error(err)
						return
					}
				}
			}(w)
		}
		wg.Wait()
		total := int64(0)
		snap, _ := st.Snapshot()
		for _, v := range snap {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				t.Fatalf("non-integer counter %q", v)
			}
			total += n
		}
		if total != workers*perWorker {
			t.Errorf("lost increments: total=%d want %d", total, workers*perWorker)
		}
	})
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	withBackends(t, func(t *testing.T, b state.Backend) {
		st, _ := b.Open("wf/snap")
		for i := 0; i < 10; i++ {
			_ = st.Put(fmt.Sprintf("k%d", i), strconv.Itoa(i*i))
		}
		snap, err := st.Snapshot()
		if err != nil || len(snap) != 10 {
			t.Fatalf("snapshot: %d entries, err=%v", len(snap), err)
		}
		_ = st.Put("garbage", "1")
		if err := st.Restore(snap); err != nil {
			t.Fatal(err)
		}
		if _, ok, _ := st.Get("garbage"); ok {
			t.Error("restore kept pre-existing key")
		}
		for i := 0; i < 10; i++ {
			v, ok, _ := st.Get(fmt.Sprintf("k%d", i))
			if !ok || v != strconv.Itoa(i*i) {
				t.Errorf("k%d after restore: %q %v", i, v, ok)
			}
		}
	})
}

func TestCheckpointRestoreAcrossStores(t *testing.T) {
	withBackends(t, func(t *testing.T, b state.Backend) {
		ns := state.Namespace("wf", "agg")
		st, _ := b.Open(ns)
		_ = st.Put("ohio", "42")
		_ = st.Put("texas", "7")
		if err := state.Checkpoint(b, st); err != nil {
			t.Fatal(err)
		}
		// Simulate the instance dying: its live namespace is emptied, then a
		// fresh store resumes from the checkpoint.
		_ = st.Restore(state.Snapshot{})
		st2, _ := b.Open(ns)
		ok, err := state.RestoreLatest(b, st2)
		if err != nil || !ok {
			t.Fatalf("restore latest: %v %v", ok, err)
		}
		if v, _, _ := st2.Get("ohio"); v != "42" {
			t.Errorf("ohio after restore: %q", v)
		}
		if snap, _ := st2.Snapshot(); len(snap) != 2 {
			t.Errorf("restored %d entries, want 2", len(snap))
		}
	})
}

func TestLoadCheckpointMissing(t *testing.T) {
	withBackends(t, func(t *testing.T, b state.Backend) {
		if _, ok, err := b.LoadCheckpoint("wf/never"); ok || err != nil {
			t.Errorf("missing checkpoint: ok=%v err=%v", ok, err)
		}
		st, _ := b.Open("wf/never")
		if ok, err := state.RestoreLatest(b, st); ok || err != nil {
			t.Errorf("restore from missing checkpoint: ok=%v err=%v", ok, err)
		}
	})
}

func TestEmptyCheckpointRepresentable(t *testing.T) {
	withBackends(t, func(t *testing.T, b state.Backend) {
		st, _ := b.Open("wf/empty")
		if err := state.Checkpoint(b, st); err != nil {
			t.Fatal(err)
		}
		snap, ok, err := b.LoadCheckpoint("wf/empty")
		if err != nil || !ok || len(snap) != 0 {
			t.Errorf("empty checkpoint: snap=%v ok=%v err=%v", snap, ok, err)
		}
	})
}

func TestDropNamespaceRemovesLiveAndCheckpoint(t *testing.T) {
	withBackends(t, func(t *testing.T, b state.Backend) {
		ns := "wf/drop"
		st, _ := b.Open(ns)
		_ = st.Put("k", "v")
		_ = state.Checkpoint(b, st)
		if err := b.DropNamespace(ns); err != nil {
			t.Fatal(err)
		}
		st2, _ := b.Open(ns)
		if snap, _ := st2.Snapshot(); len(snap) != 0 {
			t.Error("live data survived drop")
		}
		if _, ok, _ := b.LoadCheckpoint(ns); ok {
			t.Error("checkpoint survived drop")
		}
	})
}

// TestTypedHelpers: EncodeValue/DecodeValue carry a typed value through a
// store as a binary-safe string, including through a Get, change and Put.
func TestTypedHelpers(t *testing.T) {
	type pos struct{ X, Y int }
	withBackends(t, func(t *testing.T, b state.Backend) {
		st, _ := b.Open("wf/typed")
		enc, err := state.EncodeValue(pos{X: 3, Y: 4})
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Put("p", enc); err != nil {
			t.Fatal(err)
		}
		cur, exists, err := st.Get("p")
		if err != nil || !exists {
			t.Fatalf("get: %v %v", exists, err)
		}
		p, err := state.DecodeValue[pos](cur)
		if err != nil {
			t.Fatalf("decode existing value: %v", err)
		}
		p.X++
		if enc, err = state.EncodeValue(p); err != nil {
			t.Fatal(err)
		}
		if err := st.Put("p", enc); err != nil {
			t.Fatal(err)
		}
		s, ok, err := st.Get("p")
		if err != nil || !ok {
			t.Fatalf("get: %v %v", ok, err)
		}
		if got, err := state.DecodeValue[pos](s); err != nil || got != (pos{4, 4}) {
			t.Errorf("decoded %+v (%v), want {4 4}", got, err)
		}
		if _, err := state.DecodeValue[pos]("not gob"); err == nil {
			t.Error("decoding garbage succeeded")
		}
	})
}

// TestOpsCountersAccumulate: each op counts once, at the scope it passes
// through, whichever scope of the namespace that is — and only there: ops on
// the backend store directly, or a checkpoint, count nothing.
func TestOpsCountersAccumulate(t *testing.T) {
	withBackends(t, func(t *testing.T, b state.Backend) {
		st, _ := b.Open("wf/ops")
		fs := state.NewFencedStore(st)
		sc, other := fs.NewScope(), fs.NewScope()
		_ = sc.Put("a", "1")
		_, _, _ = sc.Get("a")
		_, _ = other.AddInt("n", 2)
		other.SetToken(state.Token{Src: 1, Seq: 1})
		_ = other.Put("a", "2")
		_, _ = sc.Snapshot()
		_ = sc.Restore(state.Snapshot{})
		_ = st.Put("raw", "1")
		_ = state.Checkpoint(b, st)
		want := metrics.StateOps{Puts: 2, Gets: 1, Adds: 1, Snapshots: 1, Restores: 1}
		if got := fs.Ops(); got != want {
			t.Errorf("ops: %+v, want %+v", got, want)
		}
	})
}

func TestSortedEntriesDeterministic(t *testing.T) {
	b := state.NewMemoryBackend()
	defer b.Close()
	st, _ := b.Open("wf/sorted")
	for _, k := range []string{"zeta", "alpha", "mid"} {
		_ = st.Put(k, "1")
	}
	got, err := state.SortedEntries(st)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, len(got))
	for i, e := range got {
		keys[i] = e.Key
	}
	if want := []string{"alpha", "mid", "zeta"}; !reflect.DeepEqual(keys, want) {
		t.Errorf("sorted keys: %v, want %v", keys, want)
	}
}
