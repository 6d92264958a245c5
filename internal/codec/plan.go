package codec

import (
	"encoding"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"unsafe"
)

// A plan is the compiled codec of one registered flat type: Register walks
// the type once and records, per value, its kind, its offset and its wire
// encoding, so the per-task path is a switch over a short op list reading
// and writing memory directly — no reflection, no gob.
type plan struct {
	// name identifies the type on the wire (gob's registered name: import
	// path-qualified for named types, the printed form otherwise).
	name  string
	typ   reflect.Type
	rtype unsafe.Pointer // the type word of an interface holding typ
	root  op
}

type opKind uint8

const (
	opBool    opKind = iota // one byte, 0 or 1
	opInt                   // zigzag uvarint
	opUint                  // uvarint
	opFloat32               // fixed32-LE
	opFloat64               // fixed64-LE
	opString                // uvarint(len) bytes
	opBytes                 // uvarint(len) bytes
	opSlice                 // uvarint(len) elem*
	opArray                 // elem* (the length is the type's)
	opStruct                // fields in declaration order
)

// op encodes and decodes one value of a flat type.
type op struct {
	kind opKind
	off  uintptr // offset inside the enclosing struct
	size uintptr // width of an int/uint; element stride of a slice/array
	n    int     // array length
	wire int     // fewest bytes one value occupies on the wire
	// path names the value from the payload's root ("User", "Galaxy.Name",
	// "Tokens[]") for decode errors.
	path   string
	typ    reflect.Type // opSlice: the slice type, to allocate elements
	elem   *op
	fields []op
}

// planTable is the immutable registry snapshot the hot path reads.
type planTable struct {
	byType map[unsafe.Pointer]*plan // keyed by interface type word
	byName map[string]*plan
}

var (
	planMu sync.Mutex                // serializes registerPlan's copy-on-write
	plans  atomic.Pointer[planTable] // nil until the first flat type registers
)

// eface is the runtime layout of an empty interface. No flat type is
// pointer-shaped, so data always points at the value rather than holding it.
type eface struct {
	typ, data unsafe.Pointer
}

type sliceHeader struct {
	data     unsafe.Pointer
	len, cap int
}

// wireName reproduces the name gob.Register assigns a non-pointer type.
func wireName(rt reflect.Type) string {
	if rt.Name() != "" && rt.PkgPath() != "" {
		return rt.PkgPath() + "." + rt.Name()
	}
	return rt.String()
}

// registerPlan compiles and publishes the plan for value's type if the type
// is flat; non-flat types stay on the gob trailer. A name already taken
// (re-registration, or the collision gob itself rejects) is left alone.
func registerPlan(value any) {
	rt := reflect.TypeOf(value)
	name := wireName(rt)
	planMu.Lock()
	defer planMu.Unlock()
	old := plans.Load()
	if old != nil && old.byName[name] != nil {
		return
	}
	root, flat := compileOp(rt, "", map[reflect.Type]bool{})
	if !flat {
		return
	}
	p := &plan{name: name, typ: rt, rtype: (*eface)(unsafe.Pointer(&value)).typ, root: root}
	next := &planTable{byType: map[unsafe.Pointer]*plan{p.rtype: p}, byName: map[string]*plan{name: p}}
	if old != nil {
		for k, v := range old.byType {
			next.byType[k] = v
		}
		for k, v := range old.byName {
			next.byName[k] = v
		}
	}
	plans.Store(next)
}

var gobHooks = []reflect.Type{
	reflect.TypeFor[gob.GobEncoder](), reflect.TypeFor[gob.GobDecoder](),
	reflect.TypeFor[encoding.BinaryMarshaler](), reflect.TypeFor[encoding.BinaryUnmarshaler](),
}

// compileOp builds the op for rt, or reports that rt is not flat: it (or
// something it contains) is a map, pointer, interface, channel, function or
// complex number, has an unexported field or none at all, takes over its own
// gob encoding, recurses through a slice, or is a slice whose elements
// occupy no wire bytes (a corrupt length could then spin the decoder).
func compileOp(rt reflect.Type, path string, open map[reflect.Type]bool) (op, bool) {
	for _, hook := range gobHooks {
		if reflect.PointerTo(rt).Implements(hook) {
			return op{}, false
		}
	}
	o := op{path: path, size: rt.Size(), wire: 1}
	switch rt.Kind() {
	case reflect.Bool:
		o.kind = opBool
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		o.kind = opInt
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		o.kind = opUint
	case reflect.Float32:
		o.kind, o.wire = opFloat32, 4
	case reflect.Float64:
		o.kind, o.wire = opFloat64, 8
	case reflect.String:
		o.kind = opString
	case reflect.Slice, reflect.Array:
		elem, flat := compileOp(rt.Elem(), path+"[]", open)
		if !flat {
			return op{}, false
		}
		o.elem, o.size = &elem, rt.Elem().Size()
		switch {
		case rt.Kind() == reflect.Array:
			o.kind, o.n, o.wire = opArray, rt.Len(), rt.Len()*elem.wire
		case elem.kind == opUint && elem.size == 1:
			o.kind = opBytes
		case elem.wire == 0:
			return op{}, false
		default:
			o.kind, o.typ = opSlice, rt
		}
	case reflect.Struct:
		if rt.NumField() == 0 || open[rt] {
			return op{}, false
		}
		open[rt] = true
		defer delete(open, rt)
		o.kind, o.wire = opStruct, 0
		o.fields = make([]op, rt.NumField())
		for i := range o.fields {
			f := rt.Field(i)
			if !f.IsExported() {
				return op{}, false
			}
			fpath := f.Name
			if path != "" {
				fpath = path + "." + f.Name
			}
			fo, flat := compileOp(f.Type, fpath, open)
			if !flat {
				return op{}, false
			}
			fo.off = f.Offset
			o.fields[i] = fo
			o.wire += fo.wire
		}
	default:
		return op{}, false
	}
	return o, true
}

// appendFlat writes v as a flat payload — tag, type ref, value — if v's type
// has a plan, and reports whether it did. The ref is the type's index in the
// frame's type table; a type's first use in a frame takes the next free
// index and is followed by the type's name. The table is searched before the
// registry because frames are near-homogeneous.
func appendFlat(dst []byte, v *any, frame []*plan) ([]byte, []*plan, bool) {
	e := (*eface)(unsafe.Pointer(v))
	for i, p := range frame {
		if p.rtype == e.typ {
			dst = binary.AppendUvarint(append(dst, tagFlat), uint64(i))
			return p.root.append(dst, e.data), frame, true
		}
	}
	var p *plan
	if t := plans.Load(); t != nil {
		p = t.byType[e.typ]
	}
	if p == nil {
		return dst, frame, false
	}
	dst = binary.AppendUvarint(append(dst, tagFlat), uint64(len(frame)))
	dst = binary.AppendUvarint(dst, uint64(len(p.name)))
	dst = append(dst, p.name...)
	return p.root.append(dst, e.data), append(frame, p), true
}

// readFlat is appendFlat's inverse from after the tag: it decodes the value
// into fresh memory and boxes that memory without a second copy.
func readFlat(s string, off int, frame []*plan) (any, int, []*plan, error) {
	ref, off, err := readUvarint(s, off)
	if err != nil {
		return nil, off, frame, fmt.Errorf("type ref: %w", err)
	}
	switch {
	case ref > uint64(len(frame)):
		return nil, off, frame, fmt.Errorf("type ref %d beyond the frame's %d-entry type table", ref, len(frame))
	case ref == uint64(len(frame)):
		var name string
		if name, off, err = readString(s, off); err != nil {
			return nil, off, frame, fmt.Errorf("type name: %w", err)
		}
		var p *plan
		if t := plans.Load(); t != nil {
			p = t.byName[name]
		}
		if p == nil {
			return nil, off, frame, fmt.Errorf("type %q is not a registered flat type", name)
		}
		frame = append(frame, p)
	}
	p := frame[ref]
	data := reflect.New(p.typ).UnsafePointer()
	if off, err = p.root.read(s, off, data); err != nil {
		return nil, off, frame, fmt.Errorf("%s payload: %w", p.name, err)
	}
	var v any
	*(*eface)(unsafe.Pointer(&v)) = eface{typ: p.rtype, data: data}
	return v, off, frame, nil
}

// append writes the value at p.
func (o *op) append(dst []byte, p unsafe.Pointer) []byte {
	switch o.kind {
	case opBool:
		if *(*bool)(p) {
			return append(dst, 1)
		}
		return append(dst, 0)
	case opInt:
		var v int64
		switch o.size {
		case 1:
			v = int64(*(*int8)(p))
		case 2:
			v = int64(*(*int16)(p))
		case 4:
			v = int64(*(*int32)(p))
		default:
			v = *(*int64)(p)
		}
		return appendZigzag(dst, v)
	case opUint:
		var v uint64
		switch o.size {
		case 1:
			v = uint64(*(*uint8)(p))
		case 2:
			v = uint64(*(*uint16)(p))
		case 4:
			v = uint64(*(*uint32)(p))
		default:
			v = *(*uint64)(p)
		}
		return binary.AppendUvarint(dst, v)
	case opFloat32:
		return binary.LittleEndian.AppendUint32(dst, math.Float32bits(*(*float32)(p)))
	case opFloat64:
		return binary.LittleEndian.AppendUint64(dst, math.Float64bits(*(*float64)(p)))
	case opString:
		v := *(*string)(p)
		dst = binary.AppendUvarint(dst, uint64(len(v)))
		return append(dst, v...)
	case opBytes:
		v := *(*[]byte)(p)
		dst = binary.AppendUvarint(dst, uint64(len(v)))
		return append(dst, v...)
	case opSlice:
		h := (*sliceHeader)(p)
		dst = binary.AppendUvarint(dst, uint64(h.len))
		for i := 0; i < h.len; i++ {
			dst = o.elem.append(dst, unsafe.Add(h.data, uintptr(i)*o.size))
		}
	case opArray:
		for i := 0; i < o.n; i++ {
			dst = o.elem.append(dst, unsafe.Add(p, uintptr(i)*o.size))
		}
	case opStruct:
		for i := range o.fields {
			f := &o.fields[i]
			dst = f.append(dst, unsafe.Add(p, f.off))
		}
	}
	return dst
}

// read decodes one value at off into the zeroed memory at p. Strings and
// byte slices are copied out of the frame; a zero-length slice stays nil,
// which is what gob decodes a nil or empty slice to.
func (o *op) read(s string, off int, p unsafe.Pointer) (int, error) {
	var err error
	switch o.kind {
	case opBool:
		if off >= len(s) || s[off] > 1 {
			return off, o.fail("truncated or non-boolean byte")
		}
		*(*bool)(p) = s[off] == 1
		return off + 1, nil
	case opInt:
		var v int64
		if v, off, err = readZigzag(s, off); err != nil {
			return off, o.fail("%w", err)
		}
		if shift := 64 - 8*o.size; v<<shift>>shift != v {
			return off, o.fail("value %d overflows int%d", v, 8*o.size)
		}
		switch o.size {
		case 1:
			*(*int8)(p) = int8(v)
		case 2:
			*(*int16)(p) = int16(v)
		case 4:
			*(*int32)(p) = int32(v)
		default:
			*(*int64)(p) = v
		}
	case opUint:
		var v uint64
		if v, off, err = readUvarint(s, off); err != nil {
			return off, o.fail("%w", err)
		}
		if shift := 64 - 8*o.size; v<<shift>>shift != v {
			return off, o.fail("value %d overflows uint%d", v, 8*o.size)
		}
		switch o.size {
		case 1:
			*(*uint8)(p) = uint8(v)
		case 2:
			*(*uint16)(p) = uint16(v)
		case 4:
			*(*uint32)(p) = uint32(v)
		default:
			*(*uint64)(p) = v
		}
	case opFloat32:
		var bits uint32
		if bits, off, err = readFixed32(s, off); err != nil {
			return off, o.fail("%w", err)
		}
		*(*float32)(p) = math.Float32frombits(bits)
	case opFloat64:
		var bits uint64
		if bits, off, err = readFixed64(s, off); err != nil {
			return off, o.fail("%w", err)
		}
		*(*float64)(p) = math.Float64frombits(bits)
	case opString:
		var v string
		if v, off, err = readString(s, off); err != nil {
			return off, o.fail("%w", err)
		}
		*(*string)(p) = strings.Clone(v)
	case opBytes:
		var v string
		if v, off, err = readString(s, off); err != nil {
			return off, o.fail("%w", err)
		}
		if len(v) > 0 {
			*(*[]byte)(p) = []byte(v)
		}
	case opSlice:
		var n uint64
		if n, off, err = readUvarint(s, off); err != nil {
			return off, o.fail("%w", err)
		}
		if n > uint64((len(s)-off)/o.elem.wire) {
			return off, o.fail("length %d exceeds what the remaining %d bytes can hold", n, len(s)-off)
		}
		if n == 0 {
			return off, nil
		}
		data := reflect.MakeSlice(o.typ, int(n), int(n)).UnsafePointer()
		*(*sliceHeader)(p) = sliceHeader{data: data, len: int(n), cap: int(n)}
		for i := 0; i < int(n); i++ {
			if off, err = o.elem.read(s, off, unsafe.Add(data, uintptr(i)*o.size)); err != nil {
				return off, err
			}
		}
	case opArray:
		for i := 0; i < o.n; i++ {
			if off, err = o.elem.read(s, off, unsafe.Add(p, uintptr(i)*o.size)); err != nil {
				return off, err
			}
		}
	case opStruct:
		for i := range o.fields {
			f := &o.fields[i]
			if off, err = f.read(s, off, unsafe.Add(p, f.off)); err != nil {
				return off, err
			}
		}
	}
	return off, nil
}

// fail builds a decode error naming the value; a payload that is not a
// struct has no field names.
func (o *op) fail(format string, args ...any) error {
	path := o.path
	if path == "" {
		path = "(value)"
	}
	return fmt.Errorf("field "+path+": "+format, args...)
}
