package state

import (
	"math"
	"slices"
	"testing"

	"repro/internal/miniredis"
)

// TestMarkFieldsNeverCollideWithLedgerFields: an owned namespace's mark and
// partition-count fields share the ledger prefix with the per-op and
// task-gate fields, so they must never equal one — for any partition,
// provenance, sequence and mutation index, edge values included — and must
// stay distinct among themselves and hidden from a scope's Snapshot.
func TestMarkFieldsNeverCollideWithLedgerFields(t *testing.T) {
	for _, tc := range []struct {
		name string
		p    int
		tok  Token
		mut  uint64
	}{
		{"zero", 0, Token{}, 0},
		{"first task", 0, Token{Src: 1, Seq: 0}, 0},
		{"same digits", 35, Token{Src: 35, Seq: 35}, 35},
		{"partition as provenance", 7, Token{Src: 7, Seq: 7}, 7},
		{"large partition", 1 << 20, Token{Src: 1 << 20, Seq: 1}, 2},
		{"max values", math.MaxInt32, Token{Src: math.MaxUint64, Seq: math.MaxUint64}, math.MaxUint64},
		{"mixed", 3, Token{Src: 0x5eed, Seq: 12345}, 9},
	} {
		t.Run(tc.name, func(t *testing.T) {
			marks := []string{MarkField(tc.p, tc.tok.Src), MarkField(tc.p, tc.tok.Seq), MarkField(int(tc.mut%1000), tc.tok.Src), PartsField}
			ledger := []string{fenceField(tc.tok, tc.mut), fenceField(tc.tok, 0), taskFenceField(tc.tok),
				fenceField(Token{Src: uint64(tc.p), Seq: tc.tok.Src}, tc.mut), taskFenceField(Token{Src: uint64(tc.p), Seq: tc.tok.Src})}
			for _, m := range marks {
				if !IsFenceKey(m) {
					t.Errorf("%q is not a fence key", m)
				}
				for _, l := range ledger {
					if m == l {
						t.Errorf("mark or count field %q equals a ledger field", m)
					}
				}
			}
			if tc.tok.Src != tc.tok.Seq && marks[0] == marks[1] {
				t.Errorf("marks of two provenances share field %q", marks[0])
			}
			if MarkField(tc.p, tc.tok.Src) == MarkField(tc.p+1, tc.tok.Src) {
				t.Errorf("marks of two partitions share field %q", marks[0])
			}
		})
	}

	srv, err := miniredis.StartTestServer()
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	rb, err := DialRedisClusterBackend([]string{srv.Addr()}, "marks")
	if err != nil {
		t.Fatal(err)
	}
	defer rb.Close()
	for name, b := range map[string]Backend{"memory": NewMemoryBackend(), "redis": rb} {
		st, err := b.Open("ns")
		if err != nil {
			t.Fatal(err)
		}
		for _, kv := range [][2]string{{"data", "v"}, {MarkField(3, 7), "5"}, {PartsField, "8"}} {
			if err := st.Put(kv[0], kv[1]); err != nil {
				t.Fatal(err)
			}
		}
		snap, err := NewFencedStore(st).NewScope().Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if len(snap) != 1 || snap["data"] != "v" {
			t.Errorf("%s: scope snapshot %v, want the workflow key alone", name, snap)
		}
	}
}

// TestTableMarksAdmitFirstDeliveries drives one partition's mark through two
// executions of one provenance whose deliveries interleave: each Seq runs at
// its first appearance only, a loaded mark fences what a previous holder
// ran, and a commit writes each raised mark once, at its highest Seq.
func TestTableMarksAdmitFirstDeliveries(t *testing.T) {
	const p, src = 2, 77
	tbl := NewTable(4, func(string) int { return p })
	if tbl.Marked(p, src) {
		t.Fatal("an empty table has a mark")
	}
	// A previous holder ran Seq 0 to 3 and committed.
	if err := tbl.FillMark(p, src, "3", true); err != nil {
		t.Fatal(err)
	}
	// Two executions each emit Seq 2 to 9 in order. They alternate up to 5,
	// then the first stalls while the second overtakes it, so each Seq
	// first appears at the earlier of its two positions, and those increase.
	order := []uint64{2, 2, 3, 3, 4, 4, 5, 5, 6, 7, 8, 9, 6, 7, 8, 9}
	ran := map[uint64]int{}
	for _, seq := range order {
		if tbl.Admit(p, Token{Src: src, Seq: seq}) {
			ran[seq]++
		}
	}
	for seq := uint64(0); seq <= 9; seq++ {
		if want := map[bool]int{true: 1, false: 0}[seq >= 4]; ran[seq] != want {
			t.Errorf("Seq %d ran %d times, want %d", seq, ran[seq], want)
		}
	}
	delta := tbl.Delta(p)
	if len(delta) != 1 || delta[0].Key != MarkField(p, src) || delta[0].Value != "9" || !delta[0].Keep {
		t.Fatalf("delta %v, want the one mark at 9", delta)
	}
	tbl.Committed(p)
	if d := tbl.Delta(p); len(d) != 0 {
		t.Fatalf("delta after the commit %v, want none", d)
	}
	if tbl.Admit(p, Token{Src: src, Seq: 9}) {
		t.Error("a committed Seq ran again")
	}
	if err := tbl.FillMark(p, src+1, "x", true); err == nil {
		t.Error("a mark that is not a sequence number loaded")
	}
	tbl.Drop(p)
	if tbl.Marked(p, src) {
		t.Error("a dropped partition kept its mark")
	}
}

// TestTableCompleteness: a complete partition lacks nothing — no key is
// missing, every mark is known (absent until raised), and an owned op reads
// no backend value — until Drop ends it. A commit that forgets the marks
// past markCache ends it for the marks alone: a forgotten mark must be
// loaded again, not read as absent, while the keys stay complete.
func TestTableCompleteness(t *testing.T) {
	const p = 1
	partOf := func(key string) int {
		if key[0] == 'a' {
			return 0
		}
		return p
	}
	st, err := NewMemoryBackend().Open("ns")
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put("b1", "7"); err != nil {
		t.Fatal(err)
	}
	scope := NewFencedStore(st).NewScope()
	tbl := NewTable(2, partOf)
	missing := func() []string { return tbl.Missing([]string{"a1", "b1", "b2", "b1"}) }
	if got := missing(); !slices.Equal(got, []string{"a1", "b1", "b2"}) {
		t.Fatalf("an empty table misses %v, want every key once", got)
	}

	tbl.Complete(p)
	if got := missing(); !slices.Equal(got, []string{"a1"}) {
		t.Fatalf("with partition %d complete the table misses %v, want the other partition's key alone", p, got)
	}
	if !tbl.Marked(p, 5) || tbl.Marked(0, 5) {
		t.Fatalf("marks known: complete partition %v, other partition %v; want true, false", tbl.Marked(p, 5), tbl.Marked(0, 5))
	}
	if !tbl.Admit(p, Token{Src: 5, Seq: 0}) || tbl.Admit(p, Token{Src: 5, Seq: 0}) {
		t.Fatal("an absent mark must admit its first Seq once")
	}
	scope.Own(tbl, p, false)
	n, err := scope.AddInt("b1", 1)
	if err := scope.Disown(); err != nil {
		t.Fatal(err)
	}
	if err != nil || n != 1 {
		t.Fatalf("AddInt on a complete partition = %d (%v), want 1: the backend's value must not be read", n, err)
	}

	for src := uint64(100); src <= 100+markCache; src++ {
		tbl.Admit(p, Token{Src: src, Seq: 0})
	}
	tbl.Committed(p)
	if tbl.Marked(p, 5) {
		t.Fatal("a mark forgotten past markCache is read as absent; it must be loaded again")
	}
	if got := tbl.Missing([]string{"b3"}); len(got) != 0 {
		t.Fatalf("after the marks were forgotten the table misses %v, want no key: the keys stay complete", got)
	}

	tbl.Drop(p)
	if got := missing(); !slices.Equal(got, []string{"a1", "b1", "b2"}) || tbl.Marked(p, 5) {
		t.Fatalf("a dropped partition is still complete: misses %v, mark known %v", got, tbl.Marked(p, 5))
	}
	scope.Own(tbl, p, false)
	n, err = scope.AddInt("b1", 1)
	if err := scope.Disown(); err != nil {
		t.Fatal(err)
	}
	if err != nil || n != 8 {
		t.Fatalf("AddInt after Drop = %d (%v), want 8 from the backend's 7", n, err)
	}
}
