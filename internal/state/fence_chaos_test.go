package state_test

import (
	"fmt"
	"strconv"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/miniredis"
	"repro/internal/redisclient"
	"repro/internal/state"
)

// armInj installs a process-global injector for one test; chaos tests must
// therefore not run in parallel.
func armInj(t *testing.T, faults ...faultinject.Fault) *faultinject.Injector {
	t.Helper()
	inj := faultinject.New(1)
	for _, f := range faults {
		inj.Schedule(f)
	}
	faultinject.Arm(inj)
	t.Cleanup(faultinject.Disarm)
	return inj
}

// TestFencedMutationsSurviveConnDrops: every fenced mutation shape on the
// Redis backend lands exactly once even when the reply to its compound
// command is lost and the client retries against a server that already
// executed it. With the faults disarmed, a fenced Put, AddInt and Delete
// each then cost exactly one round trip across the cluster: the single
// FENCEAPPLY compound, never a record trip followed by an apply trip.
func TestFencedMutationsSurviveConnDrops(t *testing.T) {
	for _, shards := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("%dshard", shards), func(t *testing.T) {
			addrs := make([]string, shards)
			for i := range addrs {
				srv, err := miniredis.StartTestServer()
				if err != nil {
					t.Fatal(err)
				}
				defer srv.Close()
				addrs[i] = srv.Addr()
			}
			cluster, err := redisclient.NewCluster(addrs)
			if err != nil {
				t.Fatal(err)
			}
			defer cluster.Close()
			b := state.NewRedisClusterBackend(cluster, "chaos")
			defer b.Close()

			// One namespace per shard count keeps a scope's gate, ledger and
			// state fields on a single shard (the co-location invariant), so
			// the lost-reply retry races one server, never two.
			st, err := b.Open("ns")
			if err != nil {
				t.Fatal(err)
			}
			fs := state.NewFencedStore(st)
			scope := fs.NewScope()

			// Drop the reply of every first FENCEAPPLY occurrence three times
			// over the run: each fenced write crosses the lost-reply window at
			// least once.
			armInj(t,
				faultinject.Fault{Probe: faultinject.ProbeConnRead, Cmd: "FENCEAPPLY", Hits: 1, Kind: faultinject.ConnDrop},
				faultinject.Fault{Probe: faultinject.ProbeConnRead, Cmd: "FENCEAPPLY", Hits: 3, Kind: faultinject.ConnDrop},
				faultinject.Fault{Probe: faultinject.ProbeConnRead, Cmd: "FENCEAPPLY", Hits: 5, Kind: faultinject.ConnDrop},
			)

			for seq := uint64(1); seq <= 4; seq++ {
				scope.SetToken(state.Token{Src: 1, Seq: seq})
				if _, err := scope.AddInt("sum", 10); err != nil {
					t.Fatal(err)
				}
				if err := scope.Put("last", strconv.FormatUint(seq, 10)); err != nil {
					t.Fatal(err)
				}
				if err := scope.Update("sq", func(cur string, exists bool) (string, bool, error) {
					n := int64(0)
					if exists {
						n, _ = strconv.ParseInt(cur, 10, 64)
					}
					return strconv.FormatInt(n+int64(seq), 10), true, nil
				}); err != nil {
					t.Fatal(err)
				}
				scope.ClearToken()
			}

			if n, _ := scope.AddInt("sum", 0); n != 40 {
				t.Fatalf("sum=%d want 40", n)
			}
			if v, _, _ := scope.Get("last"); v != "4" {
				t.Fatalf("last=%q want 4", v)
			}
			if v, _, _ := scope.Get("sq"); v != "10" {
				t.Fatalf("sq=%q want 10", v)
			}
			if err := scope.Delete("last"); err != nil {
				t.Fatal(err)
			}
			if _, ok, _ := scope.Get("last"); ok {
				t.Fatal("delete lost")
			}

			faultinject.Disarm()
			scope.SetToken(state.Token{Src: 2, Seq: 1})
			defer scope.ClearToken()
			for _, op := range []struct {
				name string
				fn   func() error
			}{
				{"Put", func() error { return scope.Put("k", "v") }},
				{"AddInt", func() error { _, err := scope.AddInt("n", 3); return err }},
				{"Delete", func() error { return scope.Delete("k") }},
			} {
				before := cluster.Stats().RoundTrips
				if err := op.fn(); err != nil {
					t.Fatalf("fenced %s: %v", op.name, err)
				}
				if got := cluster.Stats().RoundTrips - before; got != 1 {
					t.Errorf("fenced %s cost %d round trips, want 1", op.name, got)
				}
			}
		})
	}
}
