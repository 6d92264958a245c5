package state

import (
	"math"
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
