package codec_test

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"testing"

	"repro/internal/codec"
	"repro/internal/synth"
	"repro/internal/workflows/galaxy"
	"repro/internal/workflows/seismic"
	"repro/internal/workflows/sentiment"
)

// The session types have no registering package outside the benchmark, so
// the test registers them itself (the workflow packages register theirs).
func init() {
	codec.Register(synth.SessionEvent{})
	codec.Register(synth.SessionUpdate{})
}

// viaGob is the reference: the round trip the gob trailer gave (and, for
// non-flat types, still gives) an interface-held payload.
func viaGob(t *testing.T, v any) any {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&v); err != nil {
		t.Fatalf("gob encode %T: %v", v, err)
	}
	var out any
	if err := gob.NewDecoder(&buf).Decode(&out); err != nil {
		t.Fatalf("gob decode %T: %v", v, err)
	}
	return out
}

// TestRegisteredPayloadTypes round-trips every payload type the repo
// registers. Flat ones must be carried inline (tag 0xFE) and decode to
// exactly what gob decoded them to — which fixes the slice rule: a nil or
// empty slice decodes as nil. Non-flat ones must still ride the gob trailer.
func TestRegisteredPayloadTypes(t *testing.T) {
	const tagFlat, tagGob = 0xFE, 0xFF
	for _, tc := range []struct {
		value any
		tag   byte
	}{
		{synth.SessionEvent{User: "u17", Action: "click", Seq: 9, At: 1_700_000_000_000_000_000}, tagFlat},
		{synth.SessionEvent{}, tagFlat},
		{synth.SessionUpdate{User: "u17", Count: -3, At: 42}, tagFlat},
		{synth.Galaxy{Name: "NGC 7", RA: 12.5, Dec: -88.25, MorphType: 3, LogR25: 0.4}, tagFlat},
		{synth.Article{ID: 3, State: "Ohio", Title: "t", Body: "good bad"}, tagFlat},
		{galaxy.FilteredPayload{Name: "g", MorphType: 1.5, LogR25: 0.25}, tagFlat},
		{galaxy.ResultPayload{Name: "g", Extinction: 0.125}, tagFlat},
		{galaxy.VOTablePayload{Galaxy: synth.Galaxy{Name: "g"}, Rows: synth.MakeVOTable(synth.Galaxy{Name: "g", MorphType: 2}, 2, 1)}, tagGob},
		{sentiment.ScoredPayload{State: "Ohio", Score: -1.5, Source: "afinn"}, tagFlat},
		{sentiment.TokensPayload{State: "Ohio", Tokens: []string{"good", "", "bad"}}, tagFlat},
		{sentiment.TokensPayload{State: "Ohio", Tokens: []string{}}, tagFlat},
		{sentiment.TokensPayload{State: "Ohio"}, tagFlat},
		{sentiment.StateScore{State: "Ohio", Score: 2}, tagFlat},
		{[]sentiment.StateScore{{State: "Ohio", Score: 2}, {State: "Utah"}}, tagFlat},
		{[]sentiment.StateScore{}, tagFlat},
		{[]sentiment.StateScore(nil), tagFlat},
		{seismic.TracePayload{Station: "ST001", Rate: 100, Samples: []float64{0, -1.5, 2.25}}, tagFlat},
		{seismic.TracePayload{Station: "ST001", Samples: []float64{}}, tagFlat},
		{seismic.PairPayload{A: "ST001", B: "ST002", Peak: 0.75}, tagFlat},
	} {
		frame, err := codec.Encode(codec.Task{Value: tc.value})
		if err != nil {
			t.Errorf("%#v: %v", tc.value, err)
			continue
		}
		// magic, version, count | flags, empty PE, empty port, instance 0 | tag
		if got := frame[8]; got != tc.tag {
			t.Errorf("%T: payload tag 0x%02x, want 0x%02x", tc.value, got, tc.tag)
		}
		out, err := codec.Decode(frame)
		if err != nil {
			t.Errorf("%#v: %v", tc.value, err)
			continue
		}
		if want := viaGob(t, tc.value); !reflect.DeepEqual(out.Value, want) {
			t.Errorf("%T: decoded %#v, gob decodes %#v", tc.value, out.Value, want)
		}
	}
}
