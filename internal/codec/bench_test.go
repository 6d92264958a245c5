package codec

import "testing"

// The BenchmarkCodec* family measures the wire format per payload class:
// inline scalars, flat structs (the compiled plans) and the gob trailer. CI
// runs these with -benchmem as the allocation-regression smoke alongside
// TestEncodeSteadyStateZeroAllocs.

func benchTask(i int) Task {
	return Task{PE: "sessionize", Port: "in", Value: "user-1234", Instance: -1, Src: uint64(i + 1), Seq: uint64(i)}
}

func benchBatch(n int) []Task {
	ts := make([]Task, n)
	for i := range ts {
		ts[i] = benchTask(i)
	}
	return ts
}

func BenchmarkCodecEncode(b *testing.B) {
	task := benchTask(0)
	dst := make([]byte, 0, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var err error
		dst, err = AppendTask(dst[:0], task)
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCodecDecode(b *testing.B) {
	s, err := Encode(benchTask(0))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCodecEncodeBatch64(b *testing.B) {
	ts := benchBatch(64)
	dst := make([]byte, 0, 8192)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var err error
		dst, err = AppendBatch(dst[:0], ts)
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCodecDecodeBatch64(b *testing.B) {
	s, err := EncodeBatch(benchBatch(64))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeBatch(s); err != nil {
			b.Fatal(err)
		}
	}
}

// Struct payloads: the workloads' synth.SessionEvent is flat, so its frames
// are written and read by the compiled plan. CI gates the encode bench at
// 0 allocs/op and the decode bench at 4 allocs per task (256 per frame).
func BenchmarkCodecEncodeStructBatch64(b *testing.B) {
	ts := sessionEventBatch(64)
	dst := make([]byte, 0, 16384)
	b.ReportAllocs()
	b.ResetTimer() // building the batch allocates; CI reads allocs/op at 100x
	for i := 0; i < b.N; i++ {
		var err error
		dst, err = AppendBatch(dst[:0], ts)
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCodecDecodeStructBatch64(b *testing.B) {
	s, err := EncodeBatch(sessionEventBatch(64))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeBatch(s); err != nil {
			b.Fatal(err)
		}
	}
}

// samplePayload holds a map, so it is not flat: this round trip keeps the
// shared gob trailer (descriptors once per frame, records flat) measured.
func BenchmarkCodecGobTrailerBatch64(b *testing.B) {
	ts := make([]Task, 64)
	for i := range ts {
		ts[i] = Task{PE: "filter", Port: "in", Instance: -1, Value: samplePayload{Name: "g", Values: []float64{1.5, 2.5}, Nested: map[string]int{"k": i}}}
	}
	dst := make([]byte, 0, 16384)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var err error
		dst, err = AppendBatch(dst[:0], ts)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := DecodeBatch(string(dst)); err != nil {
			b.Fatal(err)
		}
	}
}
