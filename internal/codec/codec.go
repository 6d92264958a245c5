// Package codec serializes workflow task envelopes for transport through
// Redis. It plays the role pickle plays for dispel4py's Redis mapping.
//
// The wire format is a flat, length-prefixed binary frame (version 1):
//
//	frame  = 0x00 0x00            magic (two NUL bytes)
//	         0x01                 format version
//	         uvarint(count)       tasks in the frame
//	         record*              one per task, in order
//	         gob-stream           trailer, present iff any record defers
//	                              its payload to gob (tag 0xFF below)
//
//	record = flags byte:
//	           0x01 unused        0x02 Finalize
//	           0x04 identity      Src/Seq present (fencing provenance)
//	           0x08 traced        TraceAt present (telemetry sampling)
//	           0x10 value         payload present (Value != nil)
//	         uvarint(len) PE-bytes
//	         uvarint(len) Port-bytes
//	         zigzag-uvarint Instance        (-1 = dynamic pool)
//	         [identity] fixed64-LE Src, uvarint Seq
//	         [traced]   fixed64-LE TraceAt
//	         [value]    tag byte + payload
//
//	payload, by tag:
//	  0x01..0x0A  a built-in scalar, inline: string, []byte, true, false,
//	              int, int64, uint64, float64, float32, int32
//	  0xFE        a registered flat type, inline:
//	                uvarint(ref)  index into the frame's type table
//	                [uvarint(len) name-bytes]  iff ref == table length: the
//	                              type's first use in this frame appends it
//	                value         see below
//	  0xFF        anything else: the next value of the gob trailer
//
//	value  = bool                 one byte, 0 or 1
//	         int, int8..int64     zigzag-uvarint
//	         uint, uint8..uint64, uintptr   uvarint
//	         float32 | float64    fixed32-LE | fixed64-LE bits
//	         string | []byte      uvarint(len) bytes
//	         []T                  uvarint(len) value*
//	         [n]T                 value{n}
//	         struct               its fields' values, in declaration order
//
// A type is flat when it is built, recursively, from only those shapes and
// every struct in it has at least one field, all exported. Register compiles
// such a type once into an encode/decode plan (plan.go); the per-frame type
// table means a frame names each type once however many tasks it packs, and
// a frame of flat payloads never touches gob. Types that are not flat —
// maps, pointers, interfaces, complex numbers, unexported or no fields,
// GobEncoder/BinaryMarshaler implementers, a struct reaching itself through
// a slice, slices of zero-width elements — and types never registered keep
// tag 0xFF: their values go, in record order, to one gob stream after the
// records, so a frame pays gob's type descriptors at most once.
//
// Encoding is allocation-free in steady state for scalar and flat payloads:
// AppendTask/AppendBatch write into a caller-supplied byte slice
// (GetBuffer/Release pool them). Decoding copies payload strings and byte
// slices out of the frame, so a retained value never pins the frame; nil
// and empty slices both decode as nil, as they do through gob. Only frames
// in this format decode: the gob framings of earlier versions are an error,
// which is safe because stream frames live only for the length of one run.
package codec

import (
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"math"
	"strings"
	"sync"
)

// Register makes a concrete payload type encodable inside interface values:
// it registers the type with gob and, if the type is flat (see the package
// comment), compiles the plan that carries it inline instead.
// Registration is idempotent: gob panics with a "gob: registering duplicate"
// message when the same type or name is registered twice, and Register
// swallows exactly that panic (workflow init functions run once per import
// path but several workflows share payload types). Any other panic — a nil
// value, an unnamed type — is re-raised.
func Register(value any) {
	registerGob(value)
	registerPlan(value)
}

func registerGob(value any) {
	defer func() {
		if r := recover(); r != nil {
			if s, ok := r.(string); ok && strings.HasPrefix(s, "gob: registering duplicate") {
				return
			}
			panic(r)
		}
	}()
	gob.Register(value)
}

// Task is the unit shipped through the Redis global queue: which PE to run,
// which input port the value arrives on, and the value itself. Generate
// tasks (for source PEs) carry an empty port and nil value.
type Task struct {
	// PE is the destination node name.
	PE string
	// Port is the destination input port; empty for source-generate tasks.
	Port string
	// Value is the payload.
	Value any
	// Instance is the destination instance for grouped (stateful) routing;
	// -1 means "any instance" (the dynamic pool).
	Instance int
	// Finalize asks a stateful instance to run its Final hook (hybrid
	// mapping's coordinated flush phase).
	Finalize bool
	// Src and Seq identify the task for exactly-once fencing under
	// at-least-once replay: Src names the task's provenance (a hash mixing
	// the parent task's identity with the emitting edge, or a seed/finalize
	// constant), Seq is the per-(provenance) sequence number. The pair is
	// deterministic — a replayed parent re-emits children with identical
	// identities — which is what lets the managed-state fence drop updates
	// whose sequence was already applied. Both zero means the task is
	// unstamped (fencing off); the wire format omits zero identities, so
	// unstamped tasks pay nothing on the wire.
	Src uint64
	Seq uint64
	// TraceAt, when non-zero, marks the task as sampled by the telemetry
	// tracer and carries the UnixNano timestamp of the emission that created
	// it. Children of a traced task are traced in turn, so a sampled task's
	// whole downstream path is reconstructable across workers (and, because
	// Src/Seq are deterministic, across kill-and-replay). The wire format
	// omits the zero value, so untraced tasks pay nothing on the wire.
	TraceAt int64
}

// Wire constants.
const (
	flatMagic   = 0x00 // first two bytes of a frame
	flatVersion = 0x01 // current format version
)

// Record flag bits.
const (
	flagFinalize = 0x02 // 0x01 is unused
	flagIdentity = 0x04 // Src/Seq present
	flagTraced   = 0x08 // TraceAt present
	flagValue    = 0x10 // payload present
)

// Inline payload tags.
const (
	tagString  = 0x01
	tagBytes   = 0x02
	tagTrue    = 0x03
	tagFalse   = 0x04
	tagInt     = 0x05
	tagInt64   = 0x06
	tagUint64  = 0x07
	tagFloat64 = 0x08
	tagFloat32 = 0x09
	tagInt32   = 0x0A
	tagFlat    = 0xFE // registered flat type, encoded inline by its plan
	tagGob     = 0xFF // payload deferred to the frame's trailing gob stream
)

// Buffer is a pooled scratch slice for frame encoding. Transports hold one
// per push, append frames into B, and Release it when the wire bytes have
// been handed to the client.
type Buffer struct {
	B []byte
}

// maxPooledBuffer caps what Release returns to the pool so one giant frame
// does not pin its buffer forever.
const maxPooledBuffer = 1 << 20

var bufPool = sync.Pool{New: func() any { return &Buffer{B: make([]byte, 0, 1024)} }}

// GetBuffer fetches a pooled encode buffer with length 0.
func GetBuffer() *Buffer {
	b := bufPool.Get().(*Buffer)
	b.B = b.B[:0]
	return b
}

// Release returns the buffer to the pool.
func (b *Buffer) Release() {
	if cap(b.B) <= maxPooledBuffer {
		bufPool.Put(b)
	}
}

// sliceWriter lets a gob encoder append directly to the frame under
// construction.
type sliceWriter struct{ b *[]byte }

func (w sliceWriter) Write(p []byte) (int, error) {
	*w.b = append(*w.b, p...)
	return len(p), nil
}

// frameTypes is the inline capacity of a frame's type table; a frame with
// more distinct flat types than this spills the table to the heap.
const frameTypes = 4

// AppendTask appends a one-task flat frame to dst and returns the extended
// slice. Scalar and flat payloads allocate nothing beyond dst's own growth.
func AppendTask(dst []byte, t Task) ([]byte, error) {
	dst = append(dst, flatMagic, flatMagic, flatVersion, 1)
	var table [1]*plan
	dst, _, needsGob := appendRecord(dst, &t, table[:0])
	if needsGob {
		return appendGobTrailer(dst, []Task{t}, []int{0})
	}
	return dst, nil
}

// AppendBatch appends one flat frame holding all of ts to dst and returns
// the extended slice. Payloads that need gob share a single encoder writing
// a trailer after the records, so the frame carries each type's descriptors
// at most once.
func AppendBatch(dst []byte, ts []Task) ([]byte, error) {
	if len(ts) == 0 {
		return dst, fmt.Errorf("codec: encode empty batch")
	}
	dst = append(dst, flatMagic, flatMagic, flatVersion)
	dst = binary.AppendUvarint(dst, uint64(len(ts)))
	var gobIdx []int
	var table [frameTypes]*plan
	types := table[:0]
	for i := range ts {
		var needsGob bool
		dst, types, needsGob = appendRecord(dst, &ts[i], types)
		if needsGob {
			gobIdx = append(gobIdx, i)
		}
	}
	if len(gobIdx) > 0 {
		return appendGobTrailer(dst, ts, gobIdx)
	}
	return dst, nil
}

// appendGobTrailer writes the shared gob stream for the tasks at gobIdx.
// It is a separate function so taking dst's address here does not force the
// inline-scalar path in the callers to heap-allocate their slice headers.
func appendGobTrailer(dst []byte, ts []Task, gobIdx []int) ([]byte, error) {
	enc := gob.NewEncoder(sliceWriter{&dst})
	for _, i := range gobIdx {
		if err := enc.Encode(&ts[i].Value); err != nil {
			return dst, fmt.Errorf("codec: encode payload for PE %q: %w", ts[i].PE, err)
		}
	}
	return dst, nil
}

// appendRecord writes one task record (without its gob payload, if any) and
// reports whether the payload was deferred to the frame's gob trailer.
// types is the frame's type table so far, returned extended when the record
// is the first to carry its flat type (passed by value so the caller's
// inline table stays on its stack).
func appendRecord(dst []byte, t *Task, types []*plan) ([]byte, []*plan, bool) {
	flags := byte(0)
	if t.Finalize {
		flags |= flagFinalize
	}
	if t.Src != 0 || t.Seq != 0 {
		flags |= flagIdentity
	}
	if t.TraceAt != 0 {
		flags |= flagTraced
	}
	if t.Value != nil {
		flags |= flagValue
	}
	dst = append(dst, flags)
	dst = binary.AppendUvarint(dst, uint64(len(t.PE)))
	dst = append(dst, t.PE...)
	dst = binary.AppendUvarint(dst, uint64(len(t.Port)))
	dst = append(dst, t.Port...)
	dst = appendZigzag(dst, int64(t.Instance))
	if flags&flagIdentity != 0 {
		dst = binary.LittleEndian.AppendUint64(dst, t.Src)
		dst = binary.AppendUvarint(dst, t.Seq)
	}
	if flags&flagTraced != 0 {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(t.TraceAt))
	}
	if flags&flagValue == 0 {
		return dst, types, false
	}
	switch v := t.Value.(type) {
	case string:
		dst = append(dst, tagString)
		dst = binary.AppendUvarint(dst, uint64(len(v)))
		dst = append(dst, v...)
	case []byte:
		dst = append(dst, tagBytes)
		dst = binary.AppendUvarint(dst, uint64(len(v)))
		dst = append(dst, v...)
	case bool:
		if v {
			dst = append(dst, tagTrue)
		} else {
			dst = append(dst, tagFalse)
		}
	case int:
		dst = append(dst, tagInt)
		dst = appendZigzag(dst, int64(v))
	case int64:
		dst = append(dst, tagInt64)
		dst = appendZigzag(dst, v)
	case uint64:
		dst = append(dst, tagUint64)
		dst = binary.AppendUvarint(dst, v)
	case float64:
		dst = append(dst, tagFloat64)
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	case float32:
		dst = append(dst, tagFloat32)
		dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(v))
	case int32:
		dst = append(dst, tagInt32)
		dst = appendZigzag(dst, int64(v))
	default:
		var flat bool
		if dst, types, flat = appendFlat(dst, &t.Value, types); !flat {
			return append(dst, tagGob), types, true
		}
	}
	return dst, types, false
}

// Encode serializes a task to a binary-safe string (a one-task flat frame).
func Encode(t Task) (string, error) {
	buf := GetBuffer()
	defer buf.Release()
	b, err := AppendTask(buf.B, t)
	buf.B = b[:0]
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// EncodeBatch serializes several tasks into one flat frame.
func EncodeBatch(ts []Task) (string, error) {
	buf := GetBuffer()
	defer buf.Release()
	b, err := AppendBatch(buf.B, ts)
	buf.B = b[:0]
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// Decode deserializes a one-task frame produced by Encode or AppendTask.
func Decode(s string) (Task, error) {
	ts, err := DecodeBatch(s)
	if err != nil {
		return Task{}, err
	}
	if len(ts) != 1 {
		return Task{}, fmt.Errorf("codec: decode task: frame holds %d tasks", len(ts))
	}
	return ts[0], nil
}

// FrameCount reports how many tasks the frame s declares, or 0 when its
// header is malformed (DecodeBatch then says why). Transports size their
// receive slices with it before decoding.
func FrameCount(s string) int {
	count, _, err := frameHeader(s)
	if err != nil {
		return 0
	}
	return count
}

// frameHeader validates the magic, version and task count of s and returns
// the count with the offset of the first record.
func frameHeader(s string) (count, off int, err error) {
	if len(s) < 4 || s[0] != flatMagic || s[1] != flatMagic {
		return 0, 0, fmt.Errorf("codec: not a task frame (%d bytes, no magic)", len(s))
	}
	if s[2] != flatVersion {
		return 0, 0, fmt.Errorf("codec: unknown wire format version %d", s[2])
	}
	n, off, err := readUvarint(s, 3)
	if err != nil {
		return 0, 0, fmt.Errorf("codec: decode frame count: %w", err)
	}
	// Every record costs at least 4 bytes, so a count beyond a quarter of the
	// frame length is corrupt; reject before allocating.
	if n == 0 || n > uint64(len(s)/4) {
		return 0, 0, fmt.Errorf("codec: implausible frame count %d for %d-byte frame", n, len(s))
	}
	return int(n), off, nil
}

// DecodeBatch deserializes a frame of any task count.
func DecodeBatch(s string) ([]Task, error) {
	ts := make([]Task, FrameCount(s))
	if _, err := DecodeEach(s, func(i int) *Task { return &ts[i] }); err != nil {
		return nil, err
	}
	return ts, nil
}

// DecodeEach decodes the records of frame s in order, record i into the Task
// at(i) returns, and reports the record count. at may be called more than
// once for the same record and must return the same Task each time; the
// count it will be asked for is FrameCount(s). It lets a transport decode
// straight into its own delivery structs instead of copying out of a []Task.
func DecodeEach(s string, at func(i int) *Task) (int, error) {
	count, off, err := frameHeader(s)
	if err != nil {
		return 0, err
	}
	var gobIdx []int
	var table [frameTypes]*plan
	types := table[:0]
	for i := 0; i < count; i++ {
		var needsGob bool
		off, types, needsGob, err = decodeRecord(s, off, at(i), types)
		if err != nil {
			return 0, fmt.Errorf("codec: decode task %d/%d: %w", i+1, count, err)
		}
		if needsGob {
			gobIdx = append(gobIdx, i)
		}
	}
	if len(gobIdx) > 0 {
		dec := gob.NewDecoder(strings.NewReader(s[off:]))
		for _, i := range gobIdx {
			t := at(i)
			if err := dec.Decode(&t.Value); err != nil {
				return 0, fmt.Errorf("codec: decode payload for PE %q: %w", t.PE, err)
			}
		}
	} else if off != len(s) {
		return 0, fmt.Errorf("codec: %d trailing bytes after frame", len(s)-off)
	}
	return count, nil
}

// decodeRecord parses one task record starting at off and reports whether
// its payload must be read from the frame's gob trailer. types is the
// frame's type table so far, returned extended when the record names a type
// (passed by value so the caller's inline table stays on its stack).
func decodeRecord(s string, off int, t *Task, types []*plan) (int, []*plan, bool, error) {
	if off >= len(s) {
		return off, types, false, fmt.Errorf("truncated record")
	}
	flags := s[off]
	off++
	var err error
	if t.PE, off, err = readString(s, off); err != nil {
		return off, types, false, fmt.Errorf("PE: %w", err)
	}
	if t.Port, off, err = readString(s, off); err != nil {
		return off, types, false, fmt.Errorf("port: %w", err)
	}
	var inst int64
	if inst, off, err = readZigzag(s, off); err != nil {
		return off, types, false, fmt.Errorf("instance: %w", err)
	}
	t.Instance = int(inst)
	t.Finalize = flags&flagFinalize != 0
	if flags&flagIdentity != 0 {
		if t.Src, off, err = readFixed64(s, off); err != nil {
			return off, types, false, fmt.Errorf("src: %w", err)
		}
		if t.Seq, off, err = readUvarint(s, off); err != nil {
			return off, types, false, fmt.Errorf("seq: %w", err)
		}
	}
	if flags&flagTraced != 0 {
		var at uint64
		if at, off, err = readFixed64(s, off); err != nil {
			return off, types, false, fmt.Errorf("traceAt: %w", err)
		}
		t.TraceAt = int64(at)
	}
	if flags&flagValue == 0 {
		return off, types, false, nil
	}
	if off >= len(s) {
		return off, types, false, fmt.Errorf("truncated payload tag")
	}
	tag := s[off]
	off++
	switch tag {
	case tagString:
		var v string
		if v, off, err = readString(s, off); err != nil {
			return off, types, false, fmt.Errorf("string payload: %w", err)
		}
		t.Value = strings.Clone(v)
	case tagBytes:
		var v string
		if v, off, err = readString(s, off); err != nil {
			return off, types, false, fmt.Errorf("bytes payload: %w", err)
		}
		t.Value = []byte(v)
	case tagTrue:
		t.Value = true
	case tagFalse:
		t.Value = false
	case tagInt:
		var v int64
		if v, off, err = readZigzag(s, off); err != nil {
			return off, types, false, fmt.Errorf("int payload: %w", err)
		}
		t.Value = int(v)
	case tagInt64:
		var v int64
		if v, off, err = readZigzag(s, off); err != nil {
			return off, types, false, fmt.Errorf("int64 payload: %w", err)
		}
		t.Value = v
	case tagUint64:
		var v uint64
		if v, off, err = readUvarint(s, off); err != nil {
			return off, types, false, fmt.Errorf("uint64 payload: %w", err)
		}
		t.Value = v
	case tagFloat64:
		var bits uint64
		if bits, off, err = readFixed64(s, off); err != nil {
			return off, types, false, fmt.Errorf("float64 payload: %w", err)
		}
		t.Value = math.Float64frombits(bits)
	case tagFloat32:
		var bits uint32
		if bits, off, err = readFixed32(s, off); err != nil {
			return off, types, false, fmt.Errorf("float32 payload: %w", err)
		}
		t.Value = math.Float32frombits(bits)
	case tagInt32:
		var v int64
		if v, off, err = readZigzag(s, off); err != nil {
			return off, types, false, fmt.Errorf("int32 payload: %w", err)
		}
		t.Value = int32(v)
	case tagFlat:
		if t.Value, off, types, err = readFlat(s, off, types); err != nil {
			return off, types, false, err
		}
	case tagGob:
		return off, types, true, nil
	default:
		return off, types, false, fmt.Errorf("unknown payload tag 0x%02x", tag)
	}
	return off, types, false, nil
}

// --- primitive readers/writers over strings (no []byte conversions) ---

func appendZigzag(dst []byte, v int64) []byte {
	return binary.AppendUvarint(dst, uint64(v<<1)^uint64(v>>63))
}

func readUvarint(s string, off int) (uint64, int, error) {
	var v uint64
	var shift uint
	for i := off; i < len(s); i++ {
		b := s[i]
		if shift >= 64 || (shift == 63 && b > 1) {
			return 0, i, fmt.Errorf("uvarint overflows 64 bits")
		}
		if b < 0x80 {
			return v | uint64(b)<<shift, i + 1, nil
		}
		v |= uint64(b&0x7f) << shift
		shift += 7
	}
	return 0, len(s), fmt.Errorf("truncated uvarint")
}

func readZigzag(s string, off int) (int64, int, error) {
	u, off, err := readUvarint(s, off)
	if err != nil {
		return 0, off, err
	}
	return int64(u>>1) ^ -int64(u&1), off, nil
}

func readString(s string, off int) (string, int, error) {
	n, off, err := readUvarint(s, off)
	if err != nil {
		return "", off, err
	}
	if n > uint64(len(s)-off) {
		return "", off, fmt.Errorf("length %d exceeds remaining %d bytes", n, len(s)-off)
	}
	return s[off : off+int(n)], off + int(n), nil
}

func readFixed64(s string, off int) (uint64, int, error) {
	if len(s)-off < 8 {
		return 0, off, fmt.Errorf("truncated fixed64")
	}
	v := uint64(s[off]) | uint64(s[off+1])<<8 | uint64(s[off+2])<<16 | uint64(s[off+3])<<24 |
		uint64(s[off+4])<<32 | uint64(s[off+5])<<40 | uint64(s[off+6])<<48 | uint64(s[off+7])<<56
	return v, off + 8, nil
}

func readFixed32(s string, off int) (uint32, int, error) {
	if len(s)-off < 4 {
		return 0, off, fmt.Errorf("truncated fixed32")
	}
	v := uint32(s[off]) | uint32(s[off+1])<<8 | uint32(s[off+2])<<16 | uint32(s[off+3])<<24
	return v, off + 4, nil
}
