package state_test

import (
	"fmt"
	"sort"
	"strconv"
	"sync"
	"testing"

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
		if n, err := st.Len(); err != nil || n != 2 {
			t.Errorf("len: %d %v", n, err)
		}
		keys, err := state.SortedKeys(st)
		if err != nil || len(keys) != 2 || keys[0] != "a" || keys[1] != "b" {
			t.Errorf("keys: %v %v", keys, err)
		}
		if err := st.Delete("a"); err != nil {
			t.Fatal(err)
		}
		if _, ok, _ := st.Get("a"); ok {
			t.Error("deleted key still present")
		}
		if err := st.Clear(); err != nil {
			t.Fatal(err)
		}
		if n, _ := st.Len(); n != 0 {
			t.Errorf("len after clear: %d", n)
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
		keys, _ := st.Keys()
		for _, k := range keys {
			v, _, _ := st.Get(k)
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

func TestUpdateAtomicUnderContention(t *testing.T) {
	withBackends(t, func(t *testing.T, b state.Backend) {
		st, _ := b.Open("wf/upd")
		const workers, perWorker = 6, 30
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < perWorker; i++ {
					err := st.Update("shared", func(cur string, ok bool) (string, bool, error) {
						n := int64(0)
						if ok {
							var err error
							if n, err = strconv.ParseInt(cur, 10, 64); err != nil {
								return "", false, err
							}
						}
						return strconv.FormatInt(n+1, 10), true, nil
					})
					if err != nil {
						t.Error(err)
						return
					}
				}
			}()
		}
		wg.Wait()
		v, _, _ := st.Get("shared")
		if v != strconv.Itoa(workers*perWorker) {
			t.Errorf("update lost writes: %s want %d", v, workers*perWorker)
		}
	})
}

func TestUpdateDeleteAndError(t *testing.T) {
	withBackends(t, func(t *testing.T, b state.Backend) {
		st, _ := b.Open("wf/ud")
		_ = st.Put("k", "v")
		// keep=false deletes.
		if err := st.Update("k", func(string, bool) (string, bool, error) { return "", false, nil }); err != nil {
			t.Fatal(err)
		}
		if _, ok, _ := st.Get("k"); ok {
			t.Error("update keep=false did not delete")
		}
		// fn error aborts without writing.
		_ = st.Put("k", "orig")
		wantErr := fmt.Errorf("nope")
		if err := st.Update("k", func(string, bool) (string, bool, error) { return "x", true, wantErr }); err == nil {
			t.Error("update error not propagated")
		}
		if v, _, _ := st.Get("k"); v != "orig" {
			t.Errorf("failed update wrote: %q", v)
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
		_ = st.Clear()
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
		// Simulate the instance dying: its live namespace is dropped, then a
		// fresh store resumes from the checkpoint.
		_ = st.Clear()
		st2, _ := b.Open(ns)
		ok, err := state.RestoreLatest(b, st2)
		if err != nil || !ok {
			t.Fatalf("restore latest: %v %v", ok, err)
		}
		if v, _, _ := st2.Get("ohio"); v != "42" {
			t.Errorf("ohio after restore: %q", v)
		}
		if n, _ := st2.Len(); n != 2 {
			t.Errorf("restored %d entries, want 2", n)
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
		if n, _ := st2.Len(); n != 0 {
			t.Error("live data survived drop")
		}
		if _, ok, _ := b.LoadCheckpoint(ns); ok {
			t.Error("checkpoint survived drop")
		}
	})
}

func TestCheckpointStoreAutoCheckpoints(t *testing.T) {
	withBackends(t, func(t *testing.T, b state.Backend) {
		raw, _ := b.Open("wf/auto")
		cs := state.NewCheckpointStore(raw, b, 3)
		for i := 0; i < 7; i++ { // checkpoints fire at mutations 3 and 6
			if _, err := cs.AddInt("n", 1); err != nil {
				t.Fatal(err)
			}
		}
		snap, ok, err := b.LoadCheckpoint("wf/auto")
		if err != nil || !ok {
			t.Fatalf("no auto checkpoint: %v %v", ok, err)
		}
		if snap["n"] != "6" {
			t.Errorf("checkpoint at %q, want \"6\" (last interval boundary)", snap["n"])
		}
		// Live state is ahead of the checkpoint by one mutation.
		if v, _, _ := cs.Get("n"); v != "7" {
			t.Errorf("live value %q, want \"7\"", v)
		}
	})
}

func TestTypedHelpers(t *testing.T) {
	type pos struct{ X, Y int }
	withBackends(t, func(t *testing.T, b state.Backend) {
		st, _ := b.Open("wf/typed")
		if err := state.PutAs(st, "p", pos{X: 3, Y: 4}); err != nil {
			t.Fatal(err)
		}
		got, ok, err := state.GetAs[pos](st, "p")
		if err != nil || !ok || got != (pos{3, 4}) {
			t.Errorf("GetAs: %+v %v %v", got, ok, err)
		}
		err = state.UpdateAs(st, "p", func(cur pos, exists bool) (pos, error) {
			if !exists {
				t.Error("UpdateAs lost existing value")
			}
			cur.X++
			return cur, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		got, _, _ = state.GetAs[pos](st, "p")
		if got.X != 4 {
			t.Errorf("UpdateAs result: %+v", got)
		}
		if _, ok, _ := state.GetAs[pos](st, "missing"); ok {
			t.Error("GetAs on missing key reported present")
		}
	})
}

func TestOpsCountersAccumulate(t *testing.T) {
	withBackends(t, func(t *testing.T, b state.Backend) {
		before := b.Ops()
		st, _ := b.Open("wf/ops")
		_ = st.Put("a", "1")
		_, _, _ = st.Get("a")
		_, _ = st.AddInt("n", 2)
		_ = st.Update("a", func(string, bool) (string, bool, error) { return "2", true, nil })
		_ = st.Delete("a")
		_, _ = st.Keys()
		_, _ = st.Snapshot()
		_ = st.Restore(state.Snapshot{})
		_ = state.Checkpoint(b, st)
		d := b.Ops().Sub(before)
		if d.Puts != 1 || d.Gets != 1 || d.Adds != 1 || d.Updates != 1 || d.Deletes != 1 ||
			d.Lists != 1 || d.Snapshots != 2 || d.Restores != 1 || d.Checkpoints != 1 {
			t.Errorf("ops delta: %+v", d)
		}
	})
}

func TestSortedKeysDeterministic(t *testing.T) {
	b := state.NewMemoryBackend()
	defer b.Close()
	st, _ := b.Open("wf/sorted")
	for _, k := range []string{"zeta", "alpha", "mid"} {
		_ = st.Put(k, "1")
	}
	got, err := state.SortedKeys(st)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"alpha", "mid", "zeta"}
	if !sort.StringsAreSorted(got) || len(got) != 3 || got[0] != want[0] || got[2] != want[2] {
		t.Errorf("sorted keys: %v", got)
	}
}
