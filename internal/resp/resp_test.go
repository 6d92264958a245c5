package resp

import (
	"bytes"
	"io"
	"strings"
	"testing"
	"testing/quick"
)

func roundTrip(t *testing.T, v Value) Value {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteValue(v); err != nil {
		t.Fatalf("WriteValue: %v", err)
	}
	if err := w.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	got, err := NewReader(&buf).ReadValue()
	if err != nil {
		t.Fatalf("ReadValue: %v", err)
	}
	return got
}

func TestRoundTripSimpleString(t *testing.T) {
	v := Simple("OK")
	if got := roundTrip(t, v); !got.Equal(v) {
		t.Errorf("got %+v want %+v", got, v)
	}
}

func TestRoundTripError(t *testing.T) {
	v := Err("ERR something broke")
	got := roundTrip(t, v)
	if got.Type != Error || got.Str != "ERR something broke" {
		t.Errorf("got %+v", got)
	}
}

func TestRoundTripInteger(t *testing.T) {
	for _, n := range []int64{0, 1, -1, 42, -9223372036854775808, 9223372036854775807} {
		v := Int(n)
		if got := roundTrip(t, v); got.Int != n {
			t.Errorf("int %d round-tripped to %d", n, got.Int)
		}
	}
}

func TestRoundTripBulkString(t *testing.T) {
	cases := []string{"", "hello", "with\r\nCRLF inside", strings.Repeat("x", 100000), "unicode £€ 日本"}
	for _, s := range cases {
		v := Str(s)
		if got := roundTrip(t, v); got.Str != s {
			t.Errorf("bulk %q round-tripped to %q", s, got.Str)
		}
	}
}

func TestRoundTripNil(t *testing.T) {
	got := roundTrip(t, Nil)
	if !got.IsNull() || got.Type != BulkString {
		t.Errorf("nil bulk round-tripped to %+v", got)
	}
	got = roundTrip(t, NilArray())
	if !got.IsNull() || got.Type != Array {
		t.Errorf("nil array round-tripped to %+v", got)
	}
}

func TestRoundTripNestedArray(t *testing.T) {
	v := Arr(
		Str("XADD"),
		Int(7),
		Arr(Str("inner"), Nil, Arr()),
		Simple("nested"),
	)
	if got := roundTrip(t, v); !got.Equal(v) {
		t.Errorf("nested array mismatch:\n got %+v\nwant %+v", got, v)
	}
}

func TestReadCommandArrayForm(t *testing.T) {
	var buf bytes.Buffer
	if err := NewWriter(&buf).WriteCommand("SET", "key", "value with spaces"); err != nil {
		t.Fatal(err)
	}
	argv, err := NewReader(&buf).ReadCommand()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"SET", "key", "value with spaces"}
	if len(argv) != len(want) {
		t.Fatalf("argv %v", argv)
	}
	for i := range want {
		if argv[i] != want[i] {
			t.Errorf("argv[%d]=%q want %q", i, argv[i], want[i])
		}
	}
}

func TestReadCommandInlineForm(t *testing.T) {
	r := NewReader(strings.NewReader("PING\r\nECHO hello\r\n"))
	argv, err := r.ReadCommand()
	if err != nil || len(argv) != 1 || argv[0] != "PING" {
		t.Fatalf("inline PING: argv=%v err=%v", argv, err)
	}
	argv, err = r.ReadCommand()
	if err != nil || len(argv) != 2 || argv[1] != "hello" {
		t.Fatalf("inline ECHO: argv=%v err=%v", argv, err)
	}
}

func TestReadCommandRejectsEmptyArray(t *testing.T) {
	r := NewReader(strings.NewReader("*0\r\n"))
	if _, err := r.ReadCommand(); err == nil {
		t.Fatal("expected error for empty command array")
	}
}

func TestReadValueRejectsGarbagePrefix(t *testing.T) {
	r := NewReader(strings.NewReader("?what\r\n"))
	if _, err := r.ReadValue(); err == nil {
		t.Fatal("expected protocol error")
	}
}

func TestReadValueRejectsOverlongBulk(t *testing.T) {
	r := NewReader(strings.NewReader("$99999999999\r\n"))
	if _, err := r.ReadValue(); err == nil {
		t.Fatal("expected length-cap error")
	}
}

func TestReadValueRejectsMissingCRLF(t *testing.T) {
	r := NewReader(strings.NewReader("$3\r\nabcXY"))
	if _, err := r.ReadValue(); err == nil {
		t.Fatal("expected terminator error")
	}
}

func TestReadValueTruncatedInput(t *testing.T) {
	for _, in := range []string{"*2\r\n:1\r\n", "$5\r\nab", ":12"} {
		r := NewReader(strings.NewReader(in))
		if _, err := r.ReadValue(); err == nil {
			t.Errorf("input %q: expected error", in)
		}
	}
}

func TestValueText(t *testing.T) {
	if Int(42).Text() != "42" {
		t.Error("integer Text")
	}
	if Str("abc").Text() != "abc" {
		t.Error("bulk Text")
	}
}

func TestEqualMismatches(t *testing.T) {
	if Str("a").Equal(Simple("a")) {
		t.Error("different types compare equal")
	}
	if Arr(Int(1)).Equal(Arr(Int(1), Int(2))) {
		t.Error("different lengths compare equal")
	}
	if Nil.Equal(Str("")) {
		t.Error("nil bulk equals empty bulk")
	}
}

func TestStrArray(t *testing.T) {
	v := StrArray("a", "b")
	if len(v.Array) != 2 || v.Array[0].Str != "a" || v.Array[1].Str != "b" {
		t.Errorf("StrArray: %+v", v)
	}
}

// Property: any command argv survives WriteCommand/ReadCommand, as long as it
// is non-empty and the words have no interior NUL (arbitrary bytes are fine
// because the array form length-prefixes payloads).
func TestQuickCommandRoundTrip(t *testing.T) {
	f := func(words []string) bool {
		if len(words) == 0 {
			words = []string{"PING"}
		}
		var buf bytes.Buffer
		if err := NewWriter(&buf).WriteCommand(words...); err != nil {
			return false
		}
		got, err := NewReader(&buf).ReadCommand()
		if err != nil || len(got) != len(words) {
			return false
		}
		for i := range words {
			if got[i] != words[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: every generated Value round-trips to a deep-equal Value.
func TestQuickValueRoundTrip(t *testing.T) {
	gen := func(depth int, s string, n int64, kind uint8) Value {
		switch kind % 6 {
		case 0:
			return Simple(strings.Map(sanitizeLine, s))
		case 1:
			return Err(strings.Map(sanitizeLine, s))
		case 2:
			return Int(n)
		case 3:
			return Str(s)
		case 4:
			return Nil
		default:
			if depth <= 0 {
				return Int(n)
			}
			return Arr(Str(s), Int(n))
		}
	}
	f := func(s string, n int64, kind uint8) bool {
		v := gen(1, s, n, kind)
		var buf bytes.Buffer
		w := NewWriter(&buf)
		if err := w.WriteValue(v); err != nil {
			return false
		}
		if err := w.Flush(); err != nil {
			return false
		}
		got, err := NewReader(&buf).ReadValue()
		return err == nil && got.Equal(v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// sanitizeLine strips CR/LF which are illegal inside simple strings/errors.
func sanitizeLine(r rune) rune {
	if r == '\r' || r == '\n' {
		return '_'
	}
	return r
}

func TestWriterStreamsMultipleValues(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for i := 0; i < 10; i++ {
		if err := w.WriteValue(Int(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&buf)
	for i := 0; i < 10; i++ {
		v, err := r.ReadValue()
		if err != nil {
			t.Fatal(err)
		}
		if v.Int != int64(i) {
			t.Fatalf("value %d: got %d", i, v.Int)
		}
	}
	if _, err := r.ReadValue(); err != io.EOF {
		t.Fatalf("expected EOF, got %v", err)
	}
}

func TestTypeString(t *testing.T) {
	if SimpleString.String() != "simple-string" || Array.String() != "array" {
		t.Error("Type.String naming")
	}
	if !strings.Contains(Type('?').String(), "unknown") {
		t.Error("unknown type naming")
	}
}

// TestParseAllocCeilings pins the parser's allocation budget: a command
// costs one allocation for argv plus one per argument, and a reply of
// integers costs only its array.
func TestParseAllocCeilings(t *testing.T) {
	var cmd bytes.Buffer
	w := NewWriter(&cmd)
	argv := []string{"FENCEAPPLY", "state:ns", "t:src:42", "INCR", "user-17", "1"}
	if err := w.WriteCommand(argv...); err != nil {
		t.Fatal(err)
	}
	reply := []byte("*2\r\n:1\r\n:5\r\n")
	for _, c := range []struct {
		name  string
		input []byte
		parse func(*Reader) error
		max   float64
	}{
		{"FENCEAPPLY command", cmd.Bytes(), func(r *Reader) error {
			got, err := r.ReadCommand()
			if err == nil && len(got) != len(argv) {
				t.Fatalf("argv %q", got)
			}
			return err
		}, float64(len(argv) + 1)},
		{"[1, 5] reply", reply, func(r *Reader) error {
			v, err := r.ReadValue()
			if err == nil && (len(v.Array) != 2 || v.Array[1].Int != 5) {
				t.Fatalf("reply %+v", v)
			}
			return err
		}, 1},
	} {
		src := bytes.NewReader(c.input)
		r := NewReader(src)
		allocs := testing.AllocsPerRun(200, func() {
			src.Reset(c.input)
			r.br.Reset(src)
			if err := c.parse(r); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > c.max {
			t.Errorf("%s: %.0f allocations, want at most %.0f", c.name, allocs, c.max)
		}
	}
}
