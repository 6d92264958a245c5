package codec

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"
)

// TestFlatScalarPayloads pins the inline fast path: every scalar payload
// type round-trips with its exact dynamic type and value, no gob involved.
func TestFlatScalarPayloads(t *testing.T) {
	values := []any{
		nil,
		"",
		"hello \x00 world",
		[]byte{0x00, 0xff, 0x80},
		true,
		false,
		int(-42),
		int(1 << 40),
		int64(math.MinInt64),
		uint64(math.MaxUint64),
		float64(-2.25),
		math.Inf(1),
		float32(3.5),
		int32(-7),
	}
	for i, v := range values {
		in := Task{PE: "pe", Port: "in", Value: v, Instance: -1}
		s, err := Encode(in)
		if err != nil {
			t.Fatalf("value %d (%T): %v", i, v, err)
		}
		out, err := Decode(s)
		if err != nil {
			t.Fatalf("value %d (%T): %v", i, v, err)
		}
		switch want := v.(type) {
		case []byte:
			got, ok := out.Value.([]byte)
			if !ok || !bytes.Equal(got, want) {
				t.Errorf("value %d: got %#v want %#v", i, out.Value, v)
			}
		default:
			if out.Value != v {
				t.Errorf("value %d: got %#v (%T) want %#v (%T)", i, out.Value, out.Value, v, v)
			}
		}
	}
}

// TestFlatEnvelopeQuick round-trips arbitrary envelopes — including
// zero-value Src/Seq, empty strings, and negative instances — and requires
// re-encoding the decoded task to reproduce the frame byte-for-byte.
func TestFlatEnvelopeQuick(t *testing.T) {
	f := func(pe, port string, inst int32, finalize bool, src, seq uint64, traceAt int64, payload string, hasPayload bool) bool {
		in := Task{
			PE: pe, Port: port, Instance: int(inst), Finalize: finalize,
			Src: src, Seq: seq, TraceAt: traceAt,
		}
		if hasPayload {
			in.Value = payload
		}
		s, err := Encode(in)
		if err != nil {
			return false
		}
		out, err := Decode(s)
		if err != nil {
			return false
		}
		if out != in {
			return false
		}
		s2, err := Encode(out)
		return err == nil && s2 == s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestFlatBatchInterleavedPayloads packs scalar and gob payloads in one
// frame: the trailing gob stream must hand values back to the right tasks.
func TestFlatBatchInterleavedPayloads(t *testing.T) {
	in := []Task{
		{PE: "a", Value: samplePayload{Name: "first", Values: []float64{1}}},
		{PE: "b", Value: "scalar"},
		{PE: "c", Value: samplePayload{Name: "second", Nested: map[string]int{"k": 2}}},
		{PE: "d"},
		{PE: "e", Value: int64(9), Src: 7, Seq: 3},
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
	if p, ok := out[0].Value.(samplePayload); !ok || p.Name != "first" {
		t.Errorf("task 0 payload: %#v", out[0].Value)
	}
	if out[1].Value != "scalar" {
		t.Errorf("task 1 payload: %#v", out[1].Value)
	}
	if p, ok := out[2].Value.(samplePayload); !ok || p.Name != "second" || p.Nested["k"] != 2 {
		t.Errorf("task 2 payload: %#v", out[2].Value)
	}
	if out[3].Value != nil {
		t.Errorf("task 3 payload: %#v", out[3].Value)
	}
	if out[4].Value != int64(9) || out[4].Src != 7 || out[4].Seq != 3 {
		t.Errorf("task 4: %+v", out[4])
	}
}

// TestFlatMaxSizeBatch round-trips a batch far beyond any sizer window.
func TestFlatMaxSizeBatch(t *testing.T) {
	in := make([]Task, 4096)
	for i := range in {
		in[i] = Task{PE: "pe", Port: "in", Value: i, Instance: -1, Src: uint64(i + 1), Seq: uint64(i)}
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
		if out[i] != in[i] {
			t.Fatalf("task %d: %+v vs %+v", i, out[i], in[i])
		}
	}
}

// TestEncodeSteadyStateZeroAllocs is the allocation-regression gate: the
// steady-state encode path — a reused buffer, inline-scalar or flat-struct
// payloads, stamped identities — must not allocate at all.
func TestEncodeSteadyStateZeroAllocs(t *testing.T) {
	scalars := make([]Task, 16)
	for i := range scalars {
		scalars[i] = Task{PE: "sessionize", Port: "in", Value: "user-1234", Instance: -1, Src: uint64(i + 1), Seq: uint64(i), TraceAt: 0}
	}
	t.Run("scalar", func(t *testing.T) { encodeAllocatesNothing(t, scalars) })
	t.Run("SessionEvent", func(t *testing.T) { encodeAllocatesNothing(t, sessionEventBatch(16)) })
}

func encodeAllocatesNothing(t *testing.T, tasks []Task) {
	dst := make([]byte, 0, 8192)
	var err error
	if dst, err = AppendBatch(dst[:0], tasks); err != nil { // warm the capacity
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		dst, err = AppendBatch(dst[:0], tasks)
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Fatalf("steady-state AppendBatch allocates %.1f times per frame, want 0", allocs)
	}

	var one []byte
	one, err = AppendTask(dst[:0], tasks[0])
	if err != nil {
		t.Fatal(err)
	}
	_ = one
	allocs = testing.AllocsPerRun(1000, func() {
		one, err = AppendTask(one[:0], tasks[0])
	})
	if allocs != 0 {
		t.Fatalf("steady-state AppendTask allocates %.1f times per task, want 0", allocs)
	}
}

// FuzzDecodeBatch asserts the decoder never panics on hostile bytes.
func FuzzDecodeBatch(f *testing.F) {
	seed1, _ := Encode(Task{PE: "pe", Port: "in", Value: "v", Src: 1, Seq: 2})
	seed2, _ := EncodeBatch([]Task{{PE: "a", Value: int64(1)}, {PE: "agg", Finalize: true}, {PE: "b", Value: samplePayload{Name: "x"}}})
	seed3, _ := Encode(Task{PE: "flat", Value: flatEvent{User: "u1", Action: "view", Seq: 7}})
	seed4, _ := EncodeBatch([]Task{{PE: "f1", Value: flatPoint{X: 1}}, {PE: "f2", Value: 3.5}, {PE: "f3", Value: flatEvent{User: "u2"}}})
	f.Add(seed1)
	f.Add(seed2)
	f.Add(seed3)
	f.Add(seed4)
	f.Add("")
	f.Add("\x00\x00\x01\x02garbage")
	f.Add("\x00not-a-gob-batch")
	f.Fuzz(func(t *testing.T, s string) {
		ts, err := DecodeBatch(s)
		if err == nil && len(ts) == 0 {
			t.Fatal("nil error with empty batch")
		}
	})
}
