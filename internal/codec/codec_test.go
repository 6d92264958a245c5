package codec

import (
	"strings"
	"testing"
	"testing/quick"
)

type samplePayload struct {
	Name   string
	Values []float64
	Nested map[string]int
}

func init() {
	Register(samplePayload{})
}

func TestTaskRoundTrip(t *testing.T) {
	in := Task{
		PE:       "getVOTable",
		Port:     "in",
		Value:    samplePayload{Name: "g1", Values: []float64{1.5, -2.25}, Nested: map[string]int{"a": 1}},
		Instance: 3,
		Src:      0xdead_beef_cafe,
		Seq:      41,
	}
	s, err := Encode(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Decode(s)
	if err != nil {
		t.Fatal(err)
	}
	if out.PE != in.PE || out.Port != in.Port || out.Instance != 3 || out.Finalize {
		t.Errorf("header: %+v", out)
	}
	if out.Src != in.Src || out.Seq != in.Seq {
		t.Errorf("fencing identity lost: Src=%x Seq=%d", out.Src, out.Seq)
	}
	p, ok := out.Value.(samplePayload)
	if !ok {
		t.Fatalf("payload type %T", out.Value)
	}
	if p.Name != "g1" || len(p.Values) != 2 || p.Values[1] != -2.25 || p.Nested["a"] != 1 {
		t.Errorf("payload: %+v", p)
	}
}

// TestControlTasks round-trips the one control flag and pins the record
// flag bits: 0x01 is unused, 0x02–0x10 keep the values the frame layout
// documents.
func TestControlTasks(t *testing.T) {
	in := Task{PE: "agg", Instance: 1, Finalize: true}
	s, err := Encode(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Decode(s)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Finalize || out.PE != in.PE || out.Instance != in.Instance {
		t.Errorf("control task lost: %+v vs %+v", out, in)
	}
	all, err := Encode(Task{PE: "p", Finalize: true, Src: 1, Seq: 2, TraceAt: 3, Value: "v"})
	if err != nil {
		t.Fatal(err)
	}
	// magic (2) + version (1) + count (1), then the record's flags byte.
	if got := all[4]; got != 0x02|0x04|0x08|0x10 {
		t.Errorf("record flags = %#x, want 0x1e (Finalize 0x02, identity 0x04, traced 0x08, value 0x10)", got)
	}
}

func TestDecodeGarbage(t *testing.T) {
	if _, err := Decode("not gob data"); err == nil {
		t.Error("garbage must not decode")
	}
	if _, err := Decode(""); err == nil {
		t.Error("empty string must not decode")
	}
}

func TestEncodeUnregisteredType(t *testing.T) {
	type private struct{ X int }
	_, err := Encode(Task{PE: "x", Value: private{X: 1}})
	if err == nil || !strings.Contains(err.Error(), "encode") {
		t.Errorf("unregistered type should fail encode, got %v", err)
	}
}

func TestRegisterIdempotent(t *testing.T) {
	// Re-registering the same type must not panic.
	Register(samplePayload{})
	Register(samplePayload{})
}

func TestBatchRoundTrip(t *testing.T) {
	in := []Task{
		{PE: "getVOTable", Port: "in", Value: samplePayload{Name: "g1", Values: []float64{1.5}}, Instance: -1},
		{PE: "filterColumns", Port: "in", Value: "row", Instance: 2},
		{PE: "agg", Instance: 0, Finalize: true},
	}
	s, err := EncodeBatch(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeBatch(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("decoded %d tasks, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i].PE != in[i].PE || out[i].Port != in[i].Port || out[i].Instance != in[i].Instance || out[i].Finalize != in[i].Finalize {
			t.Errorf("task %d: %+v vs %+v", i, out[i], in[i])
		}
	}
	if p, ok := out[0].Value.(samplePayload); !ok || p.Name != "g1" {
		t.Errorf("payload 0: %#v", out[0].Value)
	}
}

func TestBatchWireCompatibility(t *testing.T) {
	// A single-task flat frame written by Encode must decode through
	// DecodeBatch, and a one-task EncodeBatch must stay readable by plain
	// Decode — a pulled stream entry may hold either shape.
	single, err := Encode(Task{PE: "pe", Port: "in", Value: "v"})
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeBatch(single)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].PE != "pe" || got[0].Value != "v" {
		t.Errorf("single frame through DecodeBatch: %+v", got)
	}

	one, err := EncodeBatch([]Task{{PE: "pe", Port: "in", Value: "v"}})
	if err != nil {
		t.Fatal(err)
	}
	task, err := Decode(one)
	if err != nil {
		t.Fatal(err)
	}
	if task.PE != "pe" || task.Value != "v" {
		t.Errorf("one-task batch through Decode: %+v", task)
	}
}

func TestBatchEdgeCases(t *testing.T) {
	if _, err := EncodeBatch(nil); err == nil {
		t.Error("empty batch must not encode")
	}
	if _, err := DecodeBatch(""); err == nil {
		t.Error("empty string must not decode")
	}
	if _, err := DecodeBatch("\x00garbage"); err == nil {
		t.Error("a single-NUL (legacy gob batch) frame must not decode")
	}
	if _, err := DecodeBatch(string([]byte{flatMagic, flatMagic, flatVersion, 200}) + "x"); err == nil {
		t.Error("flat frame with implausible count must not decode")
	}
	if _, err := DecodeBatch(string([]byte{flatMagic, flatMagic, 0x7f, 1, 0})); err == nil {
		t.Error("unknown wire version must not decode")
	}
}

func TestQuickRoundTripStrings(t *testing.T) {
	f := func(pe, port string, inst int) bool {
		in := Task{PE: pe, Port: port, Value: pe + port, Instance: inst}
		s, err := Encode(in)
		if err != nil {
			return false
		}
		out, err := Decode(s)
		if err != nil {
			return false
		}
		return out.PE == pe && out.Port == port && out.Instance == inst && out.Value == pe+port
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
