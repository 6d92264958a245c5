package state_test

import (
	"testing"

	"repro/internal/state"
	"repro/internal/telemetry"
)

// TestFenceDropsDuplicateExecutions is the core exactly-once property: the
// same delivery token applied twice (a replayed task raced by its original)
// mutates the store once, while distinct tokens — and distinct mutations
// within one execution — all apply.
func TestFenceDropsDuplicateExecutions(t *testing.T) {
	withBackends(t, func(t *testing.T, b state.Backend) {
		st, err := b.Open("ns")
		if err != nil {
			t.Fatal(err)
		}
		fs := state.NewFencedStore(st)
		scope := fs.NewScope()

		execute := func(tok state.Token) {
			// One task execution: two mutations on different keys.
			scope.SetToken(tok)
			defer scope.ClearToken()
			if _, err := scope.AddInt("hits", 1); err != nil {
				t.Fatal(err)
			}
			if err := scope.Put("last", "x"); err != nil {
				t.Fatal(err)
			}
		}
		execute(state.Token{Src: 7, Seq: 1})
		execute(state.Token{Src: 7, Seq: 1}) // duplicate delivery
		execute(state.Token{Src: 7, Seq: 2}) // distinct task

		if n, _ := scope.AddInt("hits", 0); n != 2 {
			t.Fatalf("hits = %d after {apply, duplicate, apply}, want 2", n)
		}

		// Unfenced scopes pass straight through.
		scope.ClearToken()
		if _, err := scope.AddInt("hits", 1); err != nil {
			t.Fatal(err)
		}
		if _, err := scope.AddInt("hits", 1); err != nil {
			t.Fatal(err)
		}
		if n, _ := scope.AddInt("hits", 0); n != 4 {
			t.Fatalf("unfenced increments fenced: hits = %d, want 4", n)
		}
	})
}

// TestFenceDuplicateAddIntReturnsCurrentValue: a dropped duplicate increment
// still reports the key's present value, so PE code observing the return
// stays coherent.
func TestFenceDuplicateAddIntReturnsCurrentValue(t *testing.T) {
	withBackends(t, func(t *testing.T, b state.Backend) {
		st, _ := b.Open("ns")
		scope := state.NewFencedStore(st).NewScope()
		scope.SetToken(state.Token{Src: 1, Seq: 1})
		if n, err := scope.AddInt("k", 5); err != nil || n != 5 {
			t.Fatalf("first apply: n=%d err=%v", n, err)
		}
		scope.SetToken(state.Token{Src: 1, Seq: 1}) // replay of the same delivery
		if n, err := scope.AddInt("k", 5); err != nil || n != 5 {
			t.Fatalf("duplicate apply: n=%d err=%v, want current value 5", n, err)
		}
	})
}

// TestFenceHidesLedgerFromUserViews: the applied ledger must be invisible to
// the scope's Snapshot and to SortedEntries (the Final-flush path), while
// remaining present in the backend store's snapshot — the durability view
// checkpoints are taken from.
func TestFenceHidesLedgerFromUserViews(t *testing.T) {
	withBackends(t, func(t *testing.T, b state.Backend) {
		st, _ := b.Open("ns")
		scope := state.NewFencedStore(st).NewScope()
		scope.SetToken(state.Token{Src: 3, Seq: 9})
		if err := scope.Put("data", "v"); err != nil {
			t.Fatal(err)
		}
		snap, _ := scope.Snapshot()
		if len(snap) != 1 {
			t.Fatalf("scope snapshot = %v, want only workflow data", snap)
		}
		entries, err := state.SortedEntries(scope)
		if err != nil || len(entries) != 1 || entries[0].Key != "data" {
			t.Fatalf("SortedEntries = %v (%v)", entries, err)
		}
		entries, err = state.SortedEntries(st)
		if err != nil || len(entries) != 1 || entries[0].Key != "data" {
			t.Fatalf("SortedEntries over the backend store = %v (%v), want ledger filtered", entries, err)
		}
		inner, _ := st.Snapshot()
		if len(inner) != 2 {
			t.Fatalf("inner snapshot = %d entries, want data + ledger entry", len(inner))
		}
	})
}

// TestFenceSurvivesCheckpointRestore: the ledger rides the namespace — in the
// live namespace a failed run keeps, which is what StateResume continues
// from, and through an explicit checkpoint and restore — so replaying the
// crashed run's deliveries against either leaves the state byte-identical.
func TestFenceSurvivesCheckpointRestore(t *testing.T) {
	withBackends(t, func(t *testing.T, b state.Backend) {
		st, _ := b.Open("ns")
		scope := state.NewFencedStore(st).NewScope()
		scope.SetToken(state.Token{Src: 11, Seq: 4})
		if _, err := scope.AddInt("total", 10); err != nil {
			t.Fatal(err)
		}
		if err := state.Checkpoint(b, st); err != nil {
			t.Fatal(err)
		}

		// replay re-runs the delivery through a new run's link onto ns.
		replay := func(what string) {
			t.Helper()
			st2, _ := b.Open("ns")
			scope2 := state.NewFencedStore(st2).NewScope()
			scope2.SetToken(state.Token{Src: 11, Seq: 4})
			if _, err := scope2.AddInt("total", 10); err != nil {
				t.Fatal(err)
			}
			v, ok, err := st2.Get("total")
			if err != nil || !ok || v != "10" {
				t.Fatalf("total = %q (%v, %v) after replay against %s, want 10", v, ok, err, what)
			}
		}
		replay("the live namespace")

		// Crash that loses the live namespace: restore the checkpoint.
		if err := st.Restore(state.Snapshot{}); err != nil {
			t.Fatal(err)
		}
		if ok, err := state.RestoreLatest(b, st); err != nil || !ok {
			t.Fatalf("restore: ok=%v err=%v", ok, err)
		}
		replay("the restored checkpoint")
	})
}

// TestFenceFinalGate: a delivery's task gate admits its first execution
// only, counts each admission as one AddInt of the namespace, and names the
// server the namespace lives on, so a transport on that server can record it
// atomically.
func TestFenceFinalGate(t *testing.T) {
	withBackends(t, func(t *testing.T, b state.Backend) {
		st, _ := b.Open("ns")
		fs := state.NewFencedStore(st)
		sm := telemetry.New(telemetry.Config{}).State()
		fs.Instrument(sm)
		tok := state.Token{Src: 21, Seq: 0}
		gate := fs.TaskGate(tok)
		if first, err := gate.Admit(); err != nil || !first {
			t.Fatalf("first admit: %v %v", first, err)
		}
		if first, err := fs.TaskGate(tok).Admit(); err != nil || first {
			t.Fatalf("duplicate admitted: %v %v", first, err)
		}
		if adds, timed := fs.Ops().Adds, sm.Add.Count(); adds != 2 || timed != 2 {
			t.Fatalf("two admissions counted as %d adds, timed %d, want 2 and 2", adds, timed)
		}
		if entries, _ := state.SortedEntries(st); len(entries) != 0 {
			t.Fatalf("gate visible to user views: %v", entries)
		}
		_, isRedis := b.(*state.RedisBackend)
		key, field, onServer := fs.TaskGateRef(tok)
		if field != gate.Field || key != gate.Key || onServer != isRedis {
			t.Fatalf("TaskGateRef = (%q, %q, %v), gate = %+v", key, field, onServer, gate)
		}
		if onServer && gate.Addr == "" {
			t.Fatal("a gate on a server names no address")
		}
	})
}
