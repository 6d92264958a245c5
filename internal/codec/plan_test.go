package codec

import (
	"encoding/binary"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/synth"
)

// Flat test payloads. flatEvent has synth.SessionEvent's shape; flatPoint
// covers every remaining op kind, nesting included.
type flatEvent struct {
	User, Action string
	Seq, At      int64
}

type flatInner struct {
	Label string
	N     uint32
}

type flatPoint struct {
	X     float64
	Y     float32
	OK    bool
	Small int8
	Mid   uint16
	Tags  []string
	Raw   []byte
	Grid  [2]int32
	In    flatInner
	Ins   []flatInner
}

type flatNarrow struct {
	Small int8
	Mid   uint16
}

func init() {
	Register(flatEvent{})
	Register(flatPoint{})
	Register(flatNarrow{})
	Register([]flatInner(nil))
	Register(synth.SessionEvent{})
}

// valueFrame hand-builds a one-task frame whose payload is the given bytes
// (starting with the tag), for malformed-input cases.
func valueFrame(payload ...byte) string {
	// magic, version, count 1 | flags value | PE "" | Port "" | Instance 0
	return string(append([]byte{0, 0, flatVersion, 1, flagValue, 0, 0, 0}, payload...))
}

func TestFlatTypeClassification(t *testing.T) {
	type hasMap struct{ M map[string]int }
	type hasPtr struct{ P *int }
	type hasIface struct{ V any }
	type hasUnexported struct {
		A int
		b int
	}
	type empty struct{}
	type tree struct{ Kids []tree }
	type zeroWidth struct{ Z [][0]int }
	type hasComplex struct{ C complex128 }
	for _, tc := range []struct {
		v    any
		flat bool
	}{
		{flatEvent{}, true},
		{flatPoint{}, true},
		{[]flatInner(nil), true},
		{[3]string{}, true},
		{hasMap{}, false},
		{hasPtr{}, false},
		{hasIface{}, false},
		{hasUnexported{}, false},
		{empty{}, false},
		{tree{}, false},
		{zeroWidth{}, false},
		{hasComplex{}, false},
		{synth.SessionGen{}, false},
		{samplePayload{}, false},
	} {
		if _, flat := compileOp(reflect.TypeOf(tc.v), "", map[reflect.Type]bool{}); flat != tc.flat {
			t.Errorf("%T: flat=%v, want %v", tc.v, flat, tc.flat)
		}
	}
}

// randomMixedBatch builds a batch mixing scalar, flat and gob payloads.
// Slices are nil when empty (an empty slice decodes as nil) and maps hold at
// most one key (gob writes map keys in iteration order), so that decoding
// and re-encoding must reproduce the frame byte for byte.
func randomMixedBatch(r *rand.Rand) []Task {
	str := func() string {
		b := make([]byte, r.Intn(12))
		r.Read(b)
		return string(b)
	}
	ts := make([]Task, 1+r.Intn(24))
	for i := range ts {
		t := Task{PE: str(), Port: str(), Instance: r.Intn(5) - 1}
		if r.Intn(2) == 0 {
			t.Src, t.Seq = r.Uint64()|1, r.Uint64()>>uint(r.Intn(64))
		}
		switch r.Intn(7) {
		case 0: // no payload
		case 1:
			t.Value = str()
		case 2:
			t.Value = r.Int63() - r.Int63()
		case 3:
			t.Value = flatEvent{User: str(), Action: str(), Seq: r.Int63() - r.Int63(), At: r.Int63()}
		case 4:
			p := flatPoint{
				X: r.NormFloat64(), Y: float32(r.NormFloat64()), OK: r.Intn(2) == 0,
				Small: int8(r.Intn(256) - 128), Mid: uint16(r.Intn(1 << 16)),
				Grid: [2]int32{int32(r.Uint32()), int32(r.Uint32())},
				In:   flatInner{Label: str(), N: r.Uint32()},
			}
			for j := r.Intn(4); j > 0; j-- {
				p.Tags = append(p.Tags, str())
				p.Ins = append(p.Ins, flatInner{Label: str(), N: r.Uint32()})
			}
			if raw := str(); raw != "" {
				p.Raw = []byte(raw)
			}
			t.Value = p
		case 5:
			var ins []flatInner
			for j := r.Intn(4); j > 0; j-- {
				ins = append(ins, flatInner{Label: str(), N: r.Uint32()})
			}
			t.Value = ins
		case 6:
			t.Value = samplePayload{Name: str(), Values: []float64{r.Float64()}, Nested: map[string]int{str(): r.Int()}}
		}
		ts[i] = t
	}
	return ts
}

// checkMixedRoundTrip encodes, decodes and re-encodes a batch.
func checkMixedRoundTrip(t *testing.T, in []Task) {
	t.Helper()
	frame, err := EncodeBatch(in)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	out, err := DecodeBatch(frame)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(out, in) {
		t.Fatalf("round trip changed the batch:\n got %#v\nwant %#v", out, in)
	}
	again, err := EncodeBatch(out)
	if err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	if again != frame {
		t.Fatalf("re-encoded frame differs: %q vs %q", again, frame)
	}
}

func TestMixedFrameQuick(t *testing.T) {
	f := func(seed int64) bool {
		checkMixedRoundTrip(t, randomMixedBatch(rand.New(rand.NewSource(seed))))
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// FuzzMixedFrameRoundTrip round-trips batches mixing scalar, flat-struct and
// gob payloads in one frame; order picks which kinds the batch interleaves.
func FuzzMixedFrameRoundTrip(f *testing.F) {
	f.Add("u17", "click", int64(-9), []byte{0, 0xff}, 2.5, int8(-128), uint16(0x1234))
	f.Add("", "", int64(1<<62), []byte(nil), -0.0, int8(127), uint16(0))
	f.Fuzz(func(t *testing.T, user, action string, seq int64, raw []byte, x float64, small int8, order uint16) {
		if len(raw) == 0 {
			raw = nil
		}
		if x != x {
			x = 0 // NaN never compares equal
		}
		kinds := []any{
			user,
			flatEvent{User: user, Action: action, Seq: seq, At: -seq},
			flatPoint{X: x, Small: small, Mid: order, Raw: raw, In: flatInner{Label: action}},
			samplePayload{Name: user, Nested: map[string]int{action: int(small)}},
			nil,
			[]flatInner{{Label: user, N: uint32(order)}},
			seq,
			flatNarrow{Small: small, Mid: order},
		}
		var in []Task
		for i := 0; i < 6; i++ {
			in = append(in, Task{PE: action, Port: "in", Instance: -1, Value: kinds[int(order>>(3*i))%len(kinds)], Src: uint64(i + 1), Seq: uint64(seq)})
		}
		checkMixedRoundTrip(t, in)
	})
}

func TestFlatMalformedPayloads(t *testing.T) {
	name := func(v any) []byte {
		n := wireName(reflect.TypeOf(v))
		return append(binary.AppendUvarint(nil, uint64(len(n))), n...)
	}
	cat := func(parts ...[]byte) (out []byte) {
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	good, err := Encode(Task{Value: flatEvent{User: "u1", Action: "view", Seq: 3, At: 1 << 40}})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		what, frame, want string
	}{
		{"type ref beyond the table", valueFrame(tagFlat, 1), "type ref 1 beyond"},
		{"truncated type ref", valueFrame(tagFlat), "type ref"},
		{"unknown type name", valueFrame(cat([]byte{tagFlat, 0, 6}, []byte("nope.T"))...), `"nope.T"`},
		{"truncated type name", valueFrame(tagFlat, 0, 60, 'x'), "type name"},
		{"truncated last field", good[:len(good)-1], "field At"},
		{"truncated string field", good[:len(good)-12], "field Action"},
		{"int8 overflow", valueFrame(cat([]byte{tagFlat, 0}, name(flatNarrow{}), appendZigzag(nil, 300), []byte{0})...), "field Small: value 300 overflows int8"},
		{"int8 underflow", valueFrame(cat([]byte{tagFlat, 0}, name(flatNarrow{}), appendZigzag(nil, -129), []byte{0})...), "field Small"},
		{"uint16 overflow", valueFrame(cat([]byte{tagFlat, 0}, name(flatNarrow{}), []byte{0}, binary.AppendUvarint(nil, 70000))...), "field Mid: value 70000 overflows uint16"},
		{"slice length beyond the frame", valueFrame(cat([]byte{tagFlat, 0}, name([]flatInner(nil)), binary.AppendUvarint(nil, 1<<40))...), "field (value): length"},
		{"element field truncated", valueFrame(cat([]byte{tagFlat, 0}, name([]flatInner(nil)), []byte{1, 2, 'a'})...), "field [].Label"},
		{"non-boolean byte", valueFrame(cat([]byte{tagFlat, 0}, name(flatPoint{}), make([]byte, 12), []byte{2})...), "field OK"},
		{"trailing bytes", good + "x", "trailing bytes"},
	} {
		ts, err := DecodeBatch(tc.frame)
		if err == nil {
			t.Errorf("%s: decoded %+v, want an error", tc.what, ts)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.what, err, tc.want)
		}
	}
}

// TestFlatTypeTableShared interleaves two flat types in one frame: each
// type's name is written once, at its first use, and later values reference
// it by index.
func TestFlatTypeTableShared(t *testing.T) {
	in := []Task{
		{PE: "a", Value: flatEvent{User: "u1", Seq: 1}},
		{PE: "b", Value: flatNarrow{Small: -3, Mid: 9}},
		{PE: "c", Value: flatEvent{User: "u2", Seq: 2}},
		{PE: "d", Value: "scalar"},
		{PE: "e", Value: flatNarrow{Small: 4}},
		{PE: "f", Value: flatEvent{User: "u3", Seq: 3}},
	}
	frame, err := EncodeBatch(in)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []any{flatEvent{}, flatNarrow{}} {
		if n := strings.Count(frame, wireName(reflect.TypeOf(v))); n != 1 {
			t.Errorf("%T named %d times in the frame, want once", v, n)
		}
	}
	out, err := DecodeBatch(frame)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, in) {
		t.Errorf("got %+v\nwant %+v", out, in)
	}

	one, err := AppendTask(nil, in[1])
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(string(one))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, in[1]) {
		t.Errorf("one-task frame: got %+v want %+v", got, in[1])
	}
}

// TestFlatManyTypesInOneFrame overflows the type table's inline capacity.
func TestFlatManyTypesInOneFrame(t *testing.T) {
	type t1 struct{ A int }
	type t2 struct{ A int }
	type t3 struct{ A int }
	type t4 struct{ A int }
	type t5 struct{ A int }
	type t6 struct{ A int }
	vals := []any{t1{1}, t2{2}, t3{3}, t4{4}, t5{5}, t6{6}}
	var in []Task
	for round := 0; round < 2; round++ {
		for _, v := range vals {
			Register(v)
			in = append(in, Task{PE: "pe", Value: v})
		}
	}
	if len(vals) <= frameTypes {
		t.Fatalf("%d types do not overflow the inline table of %d", len(vals), frameTypes)
	}
	checkMixedRoundTrip(t, in)
}

// TestRegisterConcurrentWithEncode registers new flat types from several
// goroutines while others encode and decode; run under -race.
func TestRegisterConcurrentWithEncode(t *testing.T) {
	type c1 struct{ A string }
	type c2 struct{ B []int }
	type c3 struct{ C float64 }
	type c4 struct{ D [2]uint8 }
	fresh := []any{c1{"a"}, c2{[]int{1}}, c3{1.5}, c4{[2]uint8{1, 2}}}
	stop := make(chan struct{})
	var coders, registrars sync.WaitGroup
	for g := 0; g < 2; g++ {
		coders.Add(1)
		go func() {
			defer coders.Done()
			in := []Task{{PE: "pe", Value: flatEvent{User: "u", Seq: 1}}, {PE: "pe", Value: flatNarrow{Mid: 7}}}
			for {
				select {
				case <-stop:
					return
				default:
				}
				frame, err := EncodeBatch(in)
				if err != nil {
					t.Error(err)
					return
				}
				if out, err := DecodeBatch(frame); err != nil || !reflect.DeepEqual(out, in) {
					t.Errorf("round trip during registration: %v %+v", err, out)
					return
				}
			}
		}()
	}
	for _, v := range fresh {
		for dup := 0; dup < 2; dup++ { // the same type from two goroutines at once
			registrars.Add(1)
			go func(v any) {
				defer registrars.Done()
				Register(v)
			}(v)
		}
	}
	registrars.Wait()
	close(stop)
	coders.Wait()
	for _, v := range fresh {
		checkMixedRoundTrip(t, []Task{{PE: "pe", Value: v}})
		if frame, _ := Encode(Task{Value: v}); frame[8] != tagFlat {
			t.Errorf("%T registered concurrently but encodes with tag 0x%02x", v, frame[8])
		}
	}
}

// TestDecodeSessionEventAllocCeiling bounds what decoding the workloads'
// payload costs: per task, the boxed struct and its two copied strings, plus
// the frame's one []Task — at most 4 allocations.
func TestDecodeSessionEventAllocCeiling(t *testing.T) {
	frame, err := EncodeBatch(sessionEventBatch(16))
	if err != nil {
		t.Fatal(err)
	}
	var ts []Task
	allocs := testing.AllocsPerRun(200, func() {
		ts, err = DecodeBatch(frame)
	})
	if err != nil {
		t.Fatal(err)
	}
	if perTask := allocs / float64(len(ts)); perTask > 4 {
		t.Fatalf("DecodeBatch allocates %.2f times per SessionEvent task, ceiling is 4", perTask)
	}
}

// TestFrameCountRejectsOversizedHeader: a corrupt count must fail before
// DecodeBatch sizes its []Task by it.
func TestFrameCountRejectsOversizedHeader(t *testing.T) {
	const size = 1 << 20
	for _, tc := range []struct {
		what  string
		count uint64
	}{
		{"count above a quarter of the frame", size/4 + 1},
		{"count equal to the frame length", size},
		{"count of 2^62", 1 << 62},
	} {
		b := binary.AppendUvarint([]byte{0, 0, flatVersion}, tc.count)
		frame := string(append(b, make([]byte, size-len(b))...))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := DecodeBatch(frame)
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), "implausible frame count") {
			t.Errorf("%s: got %v", tc.what, err)
		}
		// size/4 Tasks would be ~23 MB; the error path builds one string.
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<10 {
			t.Errorf("%s: rejecting the frame allocated %d bytes", tc.what, grew)
		}
		if n := FrameCount(frame); n != 0 {
			t.Errorf("%s: FrameCount = %d, want 0", tc.what, n)
		}
	}
	ok, _ := EncodeBatch(sessionEventBatch(5))
	if n := FrameCount(ok); n != 5 {
		t.Errorf("FrameCount of a 5-task frame = %d", n)
	}
}

// TestDecodedPayloadsDoNotAliasFrame: every decoded payload string and byte
// slice must live outside the frame, so retaining it does not pin the frame.
func TestDecodedPayloadsDoNotAliasFrame(t *testing.T) {
	for _, tc := range []struct {
		what  string
		value any
		data  func(decoded any) []*byte
	}{
		{"scalar string", "user-1234", func(v any) []*byte {
			return []*byte{unsafe.StringData(v.(string))}
		}},
		{"scalar []byte", []byte("raw-bytes"), func(v any) []*byte {
			return []*byte{unsafe.SliceData(v.([]byte))}
		}},
		{"struct string fields", flatEvent{User: "user-1234", Action: "click"}, func(v any) []*byte {
			e := v.(flatEvent)
			return []*byte{unsafe.StringData(e.User), unsafe.StringData(e.Action)}
		}},
		{"nested strings and bytes", flatPoint{Tags: []string{"tag-a"}, Raw: []byte("raw"), In: flatInner{Label: "in"}}, func(v any) []*byte {
			p := v.(flatPoint)
			return []*byte{unsafe.StringData(p.Tags[0]), unsafe.SliceData(p.Raw), unsafe.StringData(p.In.Label)}
		}},
	} {
		frame, err := Encode(Task{PE: "pe", Value: tc.value})
		if err != nil {
			t.Fatal(err)
		}
		out, err := Decode(frame)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(out.Value, tc.value) {
			t.Errorf("%s: got %#v", tc.what, out.Value)
		}
		lo := uintptr(unsafe.Pointer(unsafe.StringData(frame)))
		for i, p := range tc.data(out.Value) {
			if at := uintptr(unsafe.Pointer(p)); at >= lo && at < lo+uintptr(len(frame)) {
				t.Errorf("%s: decoded data %d points into the frame", tc.what, i)
			}
		}
	}
}

func sessionEventBatch(n int) []Task {
	gen := synth.NewSessionGen(1, 1000, 1.1)
	ts := make([]Task, n)
	for i := range ts {
		ts[i] = Task{PE: "relay", Port: "in", Value: gen.Next(), Instance: -1, Src: uint64(i + 1), Seq: uint64(i)}
	}
	return ts
}
