package miniredis_test

import (
	"errors"
	"strconv"
	"strings"
	"testing"

	"repro/internal/redisclient"
)

// TestXAddIDRules runs XADD's ID rules through both doors an entry can come
// in by: the XADD command and SINKAPPEND's XADD arm. Whatever the ID argument,
// the stream must stay strictly increasing — searchIdx, XRANGE and XAUTOCLAIM
// binary-search it.
func TestXAddIDRules(t *testing.T) {
	const (
		maxU = "18446744073709551615" // 2^64-1
		// A millisecond far above any wall clock, so "*" on a stream whose top
		// item sits there stays inside that millisecond.
		future = "9999999999999"
	)
	cases := []struct {
		name    string
		top     string // explicit ID appended first; "" leaves the stream empty
		id      string // the ID argument under test
		want    string // assigned ID; "" with no wantErr means "any valid ID"
		wantErr string // substring of the error reply
	}{
		{name: "auto on an empty stream", id: "*"},
		{name: "auto is monotonic within a millisecond", top: future + "-5", id: "*", want: future + "-6"},
		{name: "auto carries a full sequence into the next millisecond", top: future + "-" + maxU, id: "*", want: "10000000000000-0"},
		{name: "auto takes the last ID", top: maxU + "-18446744073709551614", id: "*", want: maxU + "-" + maxU},
		{name: "auto after the last ID", top: maxU + "-" + maxU, id: "*", wantErr: "exhausted the last possible ID"},
		{name: "ms-* on a new millisecond starts at 0", top: "5-3", id: "6-*", want: "6-0"},
		{name: "ms-* on the top millisecond takes seq+1", top: "5-3", id: "5-*", want: "5-4"},
		{name: "ms-* on an older millisecond", top: "5-3", id: "4-*", wantErr: "equal or smaller"},
		{name: "ms-* on a full millisecond", top: "5-" + maxU, id: "5-*", wantErr: "exhausted the last possible ID"},
		{name: "ms-* malformed", id: "x-*", wantErr: "Invalid stream ID"},
		{name: "explicit above the top item", top: "5-3", id: "5-4", want: "5-4"},
		{name: "explicit bare millisecond", top: "5-3", id: "6", want: "6-0"},
		{name: "explicit equal to the top item", top: "5-3", id: "5-3", wantErr: "equal or smaller"},
		{name: "explicit below the top item", top: "5-3", id: "4-9", wantErr: "equal or smaller"},
		{name: "0-0", id: "0-0", wantErr: "must be greater than 0-0"},
		{name: "range sentinel +", id: "+", wantErr: "Invalid stream ID"},
		{name: "range sentinel -", id: "-", wantErr: "Invalid stream ID"},
		{name: "malformed word", id: "abc", wantErr: "Invalid stream ID"},
		{name: "malformed sequence", id: "1-x", wantErr: "Invalid stream ID"},
		{name: "malformed three parts", id: "1-2-3", wantErr: "Invalid stream ID"},
	}
	for _, tc := range cases {
		for _, door := range []string{"XADD", "SINKAPPEND"} {
			t.Run(door+"/"+tc.name, func(t *testing.T) {
				_, cl := newPair(t)
				before := int64(0)
				if tc.top != "" {
					if _, err := cl.Do("XADD", "st", tc.top, "f", "top"); err != nil {
						t.Fatalf("seed top item %s: %v", tc.top, err)
					}
					before = 1
				}

				wantErr := tc.wantErr
				var err error
				if door == "XADD" {
					var got string
					got, _, err = cl.DoString("XADD", "st", tc.id, "f", "v")
					if err == nil && tc.want != "" && got != tc.want {
						t.Fatalf("assigned %s, want %s", got, tc.want)
					}
				} else {
					// SINKAPPEND carries only the automatic form; any other ID
					// argument is a malformed block.
					if tc.id != "*" {
						wantErr = "SINKAPPEND malformed XADD"
					}
					_, err = cl.SinkAppend("ledger", "gate", [][]string{{"XADD", "st", tc.id, "f", "v"}})
					if _, recorded, _ := cl.HGet("ledger", "gate"); recorded != (err == nil) {
						t.Fatalf("gate recorded=%v after err=%v", recorded, err)
					}
				}

				var se redisclient.ServerError
				switch {
				case wantErr == "" && err != nil:
					t.Fatalf("rejected: %v", err)
				case wantErr != "" && (!errors.As(err, &se) || !strings.Contains(string(se), wantErr)):
					t.Fatalf("err = %v, want one containing %q", err, wantErr)
				}
				after := before
				if wantErr == "" {
					after++
				}
				n, lerr := cl.XLen("st")
				mustInt(t, n, lerr, after, "XLEN")

				// The invariant every row protects: entries strictly increasing.
				v, rerr := cl.Do("XRANGE", "st", "-", "+")
				if rerr != nil || int64(len(v.Array)) != after {
					t.Fatalf("XRANGE: %d entries, want %d (%v)", len(v.Array), after, rerr)
				}
				for i := 1; i < len(v.Array); i++ {
					prev, cur := v.Array[i-1].Array[0].Str, v.Array[i].Array[0].Str
					if !idLess(t, prev, cur) {
						t.Fatalf("stream out of order: %s before %s", prev, cur)
					}
					if tc.want != "" && cur != tc.want {
						t.Fatalf("stored %s, want %s", cur, tc.want)
					}
				}
			})
		}
	}
}

// idLess compares two "ms-seq" IDs numerically.
func idLess(t *testing.T, a, b string) bool {
	t.Helper()
	parse := func(s string) (ms, seq uint64) {
		msStr, seqStr, ok := strings.Cut(s, "-")
		ms, err1 := strconv.ParseUint(msStr, 10, 64)
		seq, err2 := strconv.ParseUint(seqStr, 10, 64)
		if !ok || err1 != nil || err2 != nil {
			t.Fatalf("malformed stream ID %q", s)
		}
		return ms, seq
	}
	ams, aseq := parse(a)
	bms, bseq := parse(b)
	return ams < bms || (ams == bms && aseq < bseq)
}
