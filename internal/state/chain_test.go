package state_test

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/metrics"
	"repro/internal/state"
	"repro/internal/telemetry"
)

// chainExec is one task execution of the chain script: the scope is bound to
// tok (the zero token leaves it unbound, so the ops go through unfenced), the
// ops run in order — an op's position is its mutation index — and the scope
// is unbound again.
type chainExec struct {
	name string
	tok  state.Token
	ops  []state.Op
	// want pins each op's outcome for the hand-written rows; nil for the
	// seeded rows, which are held to the duplicate rule below and to
	// agreement across configurations.
	want []chainOutcome
	// dup marks a replay of a delivery that already ran clean: every op must
	// come back dropped.
	dup bool
}

type chainOutcome struct {
	res    state.Result
	failed bool
}

var errChainBoom = errors.New("boom")

// chainScript builds the op script every configuration runs. It is a pure
// function of the seed; Fn closures report an invocation they must not see
// through t.
func chainScript(t *testing.T, seed int64) []chainExec {
	put := func(k, v string) state.Op { return state.Op{Kind: state.OpPut, Key: k, Value: v} }
	del := func(k string) state.Op { return state.Op{Kind: state.OpDelete, Key: k} }
	add := func(k string, d int64) state.Op { return state.Op{Kind: state.OpAddInt, Key: k, Delta: d} }
	upd := func(k string, fn func(string, bool) (string, bool, error)) state.Op {
		return state.Op{Kind: state.OpUpdate, Key: k, Fn: fn}
	}
	bang := func(cur string, _ bool) (string, bool, error) { return cur + "!", true, nil }
	never := func(string, bool) (string, bool, error) {
		t.Error("Fn invoked for a duplicate execution")
		return "clobbered", true, nil
	}
	applied := chainOutcome{res: state.Result{Applied: true}}
	dropped := chainOutcome{}
	failed := chainOutcome{failed: true}
	n := func(applied bool, v int64) chainOutcome {
		return chainOutcome{res: state.Result{Applied: applied, N: v}}
	}

	window, retried, repaired := state.Token{Src: 2, Seq: 9}, state.Token{Src: 4, Seq: 1}, state.Token{Src: 5, Seq: 1}
	script := []chainExec{
		// Every fenced mutation shape is one record+apply step on both
		// backends: there is no record-then-apply sequence left for a crash
		// to split, so the execution lands whole...
		{name: "all four kinds, fenced", tok: window,
			ops:  []state.Op{put("k", "v"), add("n", 3), upd("k", bang), del("n")},
			want: []chainOutcome{applied, n(true, 3), applied, applied}},
		// ...and its replay not at all: Fn is not invoked, and the dropped
		// AddInt reports the key's current value (n is gone, so 0).
		{name: "replayed token", tok: window, dup: true,
			ops:  []state.Op{put("k", "again"), add("n", 3), upd("k", never), del("k")},
			want: []chainOutcome{dropped, n(false, 0), dropped, dropped}},
		{name: "all four kinds, unfenced",
			ops:  []state.Op{put("p", "1"), add("m", 2), add("m", 2), upd("p", bang), upd("p", bang), del("m"), del("m")},
			want: []chainOutcome{applied, n(true, 2), n(true, 4), applied, applied, applied, applied}},
		// An Update whose Fn errors leaves no ledger record: the retry of the
		// same delivery sees no phantom value and applies; only the replay
		// after that is a duplicate.
		{name: "failing Update fn", tok: retried,
			ops:  []state.Op{upd("u", func(string, bool) (string, bool, error) { return "", false, errChainBoom })},
			want: []chainOutcome{failed}},
		{name: "failing Update fn, retried", tok: retried,
			ops: []state.Op{upd("u", func(cur string, exists bool) (string, bool, error) {
				if exists {
					t.Errorf("failed Update left phantom value %q", cur)
				}
				return "ok", true, nil
			})},
			want: []chainOutcome{applied}},
		{name: "failing Update fn, replayed", tok: retried, dup: true,
			ops: []state.Op{upd("u", never)}, want: []chainOutcome{dropped}},
		// A fenced AddInt on a non-integer value errors without burning the
		// delivery's ledger slot: once the key is repaired, the retry of the
		// same token applies instead of being dropped as a duplicate.
		{name: "non-integer value", ops: []state.Op{put("c", "x")}, want: []chainOutcome{applied}},
		{name: "non-integer AddInt", tok: repaired, ops: []state.Op{add("c", 5)}, want: []chainOutcome{failed}},
		{name: "value repaired", ops: []state.Op{put("c", "10")}, want: []chainOutcome{applied}},
		{name: "non-integer AddInt, retried", tok: repaired, ops: []state.Op{add("c", 5)}, want: []chainOutcome{n(true, 15)}},
	}

	// Seeded rows: a pool of deliveries, each with a fixed op list, scheduled
	// with repeats so a good share of the executions are whole-task replays.
	// Counters and strings use disjoint keys so no seeded op can fail.
	rng := rand.New(rand.NewSource(seed))
	grow := func(cur string, _ bool) (string, bool, error) { return cur + "+", len(cur) < 3, nil }
	pool := make([][]state.Op, 24)
	for i := range pool {
		for j, nops := 0, 1+rng.Intn(4); j < nops; j++ {
			str, cnt := fmt.Sprintf("s%d", rng.Intn(4)), fmt.Sprintf("n%d", rng.Intn(4))
			pool[i] = append(pool[i], []state.Op{
				put(str, fmt.Sprint(rng.Intn(100))), del(str), add(cnt, int64(rng.Intn(9)-4)), upd(str, grow),
			}[rng.Intn(4)])
		}
	}
	seen := map[int]bool{}
	for e := 0; e < 40; e++ {
		i := rng.Intn(len(pool))
		script = append(script, chainExec{
			name: fmt.Sprintf("seeded delivery %d", i), tok: state.Token{Src: 77, Seq: uint64(i + 1)},
			ops: pool[i], dup: seen[i],
		})
		seen[i] = true
	}
	return script
}

// chainRun is what one configuration made of the script.
type chainRun struct {
	outcomes []chainOutcome
	snap     state.Snapshot // the backend store's own snapshot, ledger included
}

// TestStoreChainAppliesOneScript drives one op script through the one link
// the mappings build — a FenceScope over the backend store — on {memory,
// redis} × {bare, instrument}, and holds all four configurations to the same
// outcomes: per-op Results, final content, op counts, fence drops and
// per-kind histogram counts.
func TestStoreChainAppliesOneScript(t *testing.T) {
	var ref *chainRun
	withBackends(t, func(t *testing.T, b state.Backend) {
		for _, instrumented := range []bool{false, true} {
			name := "bare"
			if instrumented {
				name = "instrument"
			}
			t.Run(name, func(t *testing.T) {
				script := chainScript(t, 20231112)
				st, err := b.Open("chain/" + name)
				if err != nil {
					t.Fatal(err)
				}
				fs := state.NewFencedStore(st)
				sm := telemetry.New(telemetry.Config{}).State()
				if instrumented {
					fs.Instrument(sm)
				}
				drops := &telemetry.Counter{}
				fs.SetDropCounter(drops)
				scope := fs.NewScope()

				run := &chainRun{}
				var byKind [4]int64
				var clean, wantDrops int64 // ops that returned no error; ops of dup executions
				for _, ex := range script {
					scope.SetToken(ex.tok)
					for i, op := range ex.ops {
						res, err := scope.Apply(op)
						got := chainOutcome{res: res, failed: err != nil}
						run.outcomes = append(run.outcomes, got)
						byKind[op.Kind]++
						if err == nil {
							clean++
						}
						if ex.want != nil && got != ex.want[i] {
							t.Errorf("%s, op %d: got %+v (err %v), want %+v", ex.name, i, got, err, ex.want[i])
						}
						if ex.dup {
							wantDrops++
							if err != nil || res.Applied {
								t.Errorf("%s, op %d: duplicate not dropped: %+v (err %v)", ex.name, i, res, err)
							}
						} else if ex.want == nil && (err != nil || !res.Applied) {
							t.Errorf("%s, op %d: first execution not applied: %+v (err %v)", ex.name, i, res, err)
						}
					}
					scope.ClearToken()
				}
				t.Logf("%d ops: %d clean, %d of duplicate executions", len(run.outcomes), clean, wantDrops)

				if got := drops.Load(); got != wantDrops {
					t.Errorf("fence drops = %d, want %d (one per op of a duplicate execution)", got, wantDrops)
				}
				// Every op counts once, at the scope, and an op that fails or
				// is dropped still counts.
				wantOps := metrics.StateOps{Puts: byKind[state.OpPut], Deletes: byKind[state.OpDelete],
					Adds: byKind[state.OpAddInt], Updates: byKind[state.OpUpdate]}
				if ops := fs.Ops(); ops != wantOps {
					t.Errorf("ops = %+v, want %+v", ops, wantOps)
				}
				hists := [4]*telemetry.Histogram{state.OpPut: sm.Put, state.OpDelete: sm.Delete, state.OpAddInt: sm.Add, state.OpUpdate: sm.Update}
				for kind, h := range hists {
					want := byKind[kind]
					if !instrumented {
						want = 0
					}
					if got := h.Count(); got != want {
						t.Errorf("histogram of op kind %d holds %d observations, want %d", kind, got, want)
					}
				}

				if run.snap, err = st.Snapshot(); err != nil {
					t.Fatal(err)
				}
				view, err := scope.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				for k, v := range map[string]string{"k": "v!", "p": "1!!", "u": "ok", "c": "15"} {
					if view[k] != v {
						t.Errorf("final %s = %q, want %q", k, view[k], v)
					}
				}
				for _, gone := range []string{"n", "m"} {
					if v, ok := view[gone]; ok {
						t.Errorf("deleted key %s still holds %q", gone, v)
					}
				}
				// A ledger entry's count past 1 is how often a duplicate
				// reached the backend's apply step, which a dropped Update
				// does on memory and not on Redis (it returns under the key
				// lock, before the wire op); whether the entry exists is the
				// contract, so that is what is compared.
				for k := range run.snap {
					if state.IsFenceKey(k) {
						run.snap[k] = "recorded"
					}
				}
				if ref == nil {
					ref = run
					return
				}
				if !reflect.DeepEqual(run.outcomes, ref.outcomes) {
					for i := range run.outcomes {
						if run.outcomes[i] != ref.outcomes[i] {
							t.Errorf("op %d: %+v here, %+v on memory/bare", i, run.outcomes[i], ref.outcomes[i])
						}
					}
				}
				if !reflect.DeepEqual(run.snap, ref.snap) {
					t.Errorf("final content differs from memory/bare:\n got %q\nwant %q", run.snap, ref.snap)
				}
			})
		}
	})
}
