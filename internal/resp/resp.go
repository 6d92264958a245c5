// Package resp implements the RESP2 wire protocol used by Redis clients and
// servers. It provides a value model plus buffered Reader/Writer types that
// parse and serialize protocol frames. Only the subset of the protocol needed
// by the dispel4py-style Redis mappings is implemented, but that subset is
// complete enough to talk to generic Redis tooling: simple strings, errors,
// integers, bulk strings (including nil) and (nested) arrays, as well as the
// inline command form some clients use for PING.
package resp

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"strconv"
	"unsafe"
)

// Type identifies the kind of a RESP value.
type Type byte

// RESP value kinds.
const (
	SimpleString Type = '+'
	Error        Type = '-'
	Integer      Type = ':'
	BulkString   Type = '$'
	Array        Type = '*'
)

// String returns a human-readable name for the type.
func (t Type) String() string {
	switch t {
	case SimpleString:
		return "simple-string"
	case Error:
		return "error"
	case Integer:
		return "integer"
	case BulkString:
		return "bulk-string"
	case Array:
		return "array"
	default:
		return fmt.Sprintf("unknown(%c)", byte(t))
	}
}

// Value is a single RESP protocol value. Nil bulk strings and nil arrays are
// represented with Null set to true.
type Value struct {
	Type  Type
	Str   string  // SimpleString, Error, BulkString payload
	Int   int64   // Integer payload
	Array []Value // Array payload
	Null  bool    // nil bulk string / nil array
}

// Common reusable values.
var (
	OK   = Value{Type: SimpleString, Str: "OK"}
	Pong = Value{Type: SimpleString, Str: "PONG"}
	Nil  = Value{Type: BulkString, Null: true}
)

// Str returns a bulk string value.
func Str(s string) Value { return Value{Type: BulkString, Str: s} }

// Simple returns a simple string value.
func Simple(s string) Value { return Value{Type: SimpleString, Str: s} }

// Int returns an integer value.
func Int(n int64) Value { return Value{Type: Integer, Int: n} }

// Err returns an error value with the conventional upper-case prefix already
// included by the caller (for example "ERR unknown command").
func Err(msg string) Value { return Value{Type: Error, Str: msg} }

// Errf formats an error value.
func Errf(format string, args ...any) Value {
	return Err(fmt.Sprintf(format, args...))
}

// Arr returns an array value.
func Arr(vals ...Value) Value { return Value{Type: Array, Array: vals} }

// NilArray is the nil array reply (e.g. XREADGROUP BLOCK timeout).
func NilArray() Value { return Value{Type: Array, Null: true} }

// StrArray builds an array of bulk strings.
func StrArray(ss ...string) Value {
	vals := make([]Value, len(ss))
	for i, s := range ss {
		vals[i] = Str(s)
	}
	return Arr(vals...)
}

// IsNull reports whether the value is a nil bulk string or nil array.
func (v Value) IsNull() bool { return v.Null }

// Text returns the string payload of a value, converting integers when
// necessary. It is what a Redis client means by "the reply, as a string".
func (v Value) Text() string {
	switch v.Type {
	case Integer:
		return strconv.FormatInt(v.Int, 10)
	default:
		return v.Str
	}
}

// Equal reports deep equality of two values.
func (v Value) Equal(o Value) bool {
	if v.Type != o.Type || v.Null != o.Null {
		return false
	}
	switch v.Type {
	case Integer:
		return v.Int == o.Int
	case Array:
		if len(v.Array) != len(o.Array) {
			return false
		}
		for i := range v.Array {
			if !v.Array[i].Equal(o.Array[i]) {
				return false
			}
		}
		return true
	default:
		return v.Str == o.Str
	}
}

// ErrProtocol is returned when the peer sends malformed RESP data.
var ErrProtocol = errors.New("resp: protocol error")

// MaxBulkLen caps bulk string payloads to guard against hostile or corrupt
// length prefixes. 64 MiB is far above anything the workflow engine sends.
const MaxBulkLen = 64 << 20

// MaxArrayLen caps array element counts for the same reason.
const MaxArrayLen = 1 << 20

// Reader decodes RESP values from a stream.
type Reader struct {
	br *bufio.Reader
}

// NewReader wraps r in a RESP decoder.
func NewReader(r io.Reader) *Reader {
	return &Reader{br: bufio.NewReaderSize(r, 16*1024)}
}

// Buffered reports how many bytes of input the reader already holds: a
// non-zero count means the next value (or part of it) arrived with the
// previous one and reading it starts without a syscall.
func (r *Reader) Buffered() int { return r.br.Buffered() }

// ReadValue reads one complete RESP value. Integers and headers parse in
// place; the only allocations are one per string payload and one per array.
func (r *Reader) ReadValue() (Value, error) {
	prefix, err := r.br.ReadByte()
	if err != nil {
		return Value{}, err
	}
	switch Type(prefix) {
	case SimpleString, Error:
		line, err := r.readLine()
		if err != nil {
			return Value{}, err
		}
		return Value{Type: Type(prefix), Str: string(line)}, nil
	case Integer:
		line, err := r.readLine()
		if err != nil {
			return Value{}, err
		}
		n, ok := atoi(line)
		if !ok {
			return Value{}, fmt.Errorf("%w: bad integer %q", ErrProtocol, line)
		}
		return Value{Type: Integer, Int: n}, nil
	case BulkString:
		return r.readBulk()
	case Array:
		return r.readArray()
	default:
		return Value{}, fmt.Errorf("%w: unexpected type byte %q", ErrProtocol, prefix)
	}
}

// ReadCommand reads one client command: either a RESP array of bulk strings
// or an inline command line ("PING\r\n"). It returns the argv. An array
// command parses straight into argv: one allocation for argv and one per
// non-empty argument, each its own string so that an argument the server
// keeps does not pin the rest of the command.
func (r *Reader) ReadCommand() ([]string, error) {
	prefix, err := r.br.ReadByte()
	if err != nil {
		return nil, err
	}
	if Type(prefix) == Array {
		n, err := r.readLength("array", MaxArrayLen)
		if err != nil {
			return nil, err
		}
		if n <= 0 {
			return nil, fmt.Errorf("%w: empty command array", ErrProtocol)
		}
		argv := make([]string, n)
		for i := range argv {
			t, err := r.br.ReadByte()
			if err != nil {
				return nil, err
			}
			if Type(t) != BulkString {
				return nil, fmt.Errorf("%w: command element %d is %s, want bulk string", ErrProtocol, i, Type(t))
			}
			v, err := r.readBulk()
			if err != nil {
				return nil, err
			}
			if v.Null {
				return nil, fmt.Errorf("%w: command element %d is a nil bulk string", ErrProtocol, i)
			}
			argv[i] = v.Str
		}
		return argv, nil
	}
	// Inline command: the prefix byte is part of the first word.
	line, err := r.readLine()
	if err != nil {
		return nil, err
	}
	full := append([]byte{prefix}, line...)
	fields := bytes.Fields(full)
	if len(fields) == 0 {
		return nil, fmt.Errorf("%w: empty inline command", ErrProtocol)
	}
	argv := make([]string, len(fields))
	for i, f := range fields {
		argv[i] = string(f)
	}
	return argv, nil
}

// readLength reads a bulk or array header: -1 (nil) or a count in
// [0, limit].
func (r *Reader) readLength(kind string, limit int64) (int64, error) {
	line, err := r.readLine()
	if err != nil {
		return 0, err
	}
	n, ok := atoi(line)
	if !ok {
		return 0, fmt.Errorf("%w: bad %s length %q", ErrProtocol, kind, line)
	}
	if n < -1 || n > limit {
		return 0, fmt.Errorf("%w: %s length %d out of range", ErrProtocol, kind, n)
	}
	return n, nil
}

func (r *Reader) readBulk() (Value, error) {
	n, err := r.readLength("bulk", MaxBulkLen)
	if err != nil {
		return Value{}, err
	}
	if n == -1 {
		return Value{Type: BulkString, Null: true}, nil
	}
	// The payload's buffer becomes its string without a copy: one
	// allocation, and nothing else ever references the buffer.
	buf := make([]byte, n+2)
	if _, err := io.ReadFull(r.br, buf); err != nil {
		return Value{}, err
	}
	if buf[n] != '\r' || buf[n+1] != '\n' {
		return Value{}, fmt.Errorf("%w: bulk string missing CRLF terminator", ErrProtocol)
	}
	return Value{Type: BulkString, Str: unsafe.String(unsafe.SliceData(buf), n)}, nil
}

func (r *Reader) readArray() (Value, error) {
	n, err := r.readLength("array", MaxArrayLen)
	if err != nil {
		return Value{}, err
	}
	if n == -1 {
		return Value{Type: Array, Null: true}, nil
	}
	vals := make([]Value, n)
	for i := range vals {
		if vals[i], err = r.ReadValue(); err != nil {
			return Value{}, err
		}
	}
	return Value{Type: Array, Array: vals}, nil
}

// readLine reads up to CRLF and returns the line without the terminator. The
// slice aliases the reader's buffer and is valid until the next read.
func (r *Reader) readLine() ([]byte, error) {
	line, err := r.br.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		// A line longer than the buffer: collect it in a copy.
		long := append([]byte(nil), line...)
		for err == bufio.ErrBufferFull {
			line, err = r.br.ReadSlice('\n')
			long = append(long, line...)
		}
		line = long
	}
	if err != nil {
		return nil, err
	}
	if len(line) < 2 || line[len(line)-2] != '\r' {
		return nil, fmt.Errorf("%w: line missing CRLF", ErrProtocol)
	}
	return line[:len(line)-2], nil
}

// atoi parses a decimal line as strconv.ParseInt(s, 10, 64) would, without
// converting it to a string first.
func atoi(b []byte) (int64, bool) {
	if len(b) > 18 || len(b) == 0 {
		// Long enough to overflow (or empty): let strconv decide.
		n, err := strconv.ParseInt(string(b), 10, 64)
		return n, err == nil
	}
	neg := b[0] == '-'
	if neg || b[0] == '+' {
		b = b[1:]
		if len(b) == 0 {
			return 0, false
		}
	}
	var n int64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int64(c-'0')
	}
	if neg {
		n = -n
	}
	return n, true
}

// Writer encodes RESP values onto a stream.
type Writer struct {
	bw *bufio.Writer
}

// NewWriter wraps w in a RESP encoder.
func NewWriter(w io.Writer) *Writer {
	return &Writer{bw: bufio.NewWriterSize(w, 16*1024)}
}

// WriteValue serializes one value. Call Flush to push buffered bytes.
func (w *Writer) WriteValue(v Value) error {
	switch v.Type {
	case SimpleString:
		return w.line('+', v.Str)
	case Error:
		return w.line('-', v.Str)
	case Integer:
		return w.line(':', strconv.FormatInt(v.Int, 10))
	case BulkString:
		if v.Null {
			return w.line('$', "-1")
		}
		if err := w.line('$', strconv.Itoa(len(v.Str))); err != nil {
			return err
		}
		if _, err := w.bw.WriteString(v.Str); err != nil {
			return err
		}
		_, err := w.bw.WriteString("\r\n")
		return err
	case Array:
		if v.Null {
			return w.line('*', "-1")
		}
		if err := w.line('*', strconv.Itoa(len(v.Array))); err != nil {
			return err
		}
		for _, elem := range v.Array {
			if err := w.WriteValue(elem); err != nil {
				return err
			}
		}
		return nil
	default:
		return fmt.Errorf("resp: cannot encode type %q", byte(v.Type))
	}
}

// WriteCommand serializes argv as an array of bulk strings and flushes.
func (w *Writer) WriteCommand(argv ...string) error {
	if err := w.WriteCommandBuffered(argv...); err != nil {
		return err
	}
	return w.Flush()
}

// WriteCommandBuffered serializes argv without flushing, so several commands
// can share one network write — the primitive behind client pipelining.
func (w *Writer) WriteCommandBuffered(argv ...string) error {
	if err := w.line('*', strconv.Itoa(len(argv))); err != nil {
		return err
	}
	for _, a := range argv {
		if err := w.WriteValue(Str(a)); err != nil {
			return err
		}
	}
	return nil
}

// Flush pushes buffered output to the underlying writer.
func (w *Writer) Flush() error { return w.bw.Flush() }

func (w *Writer) line(prefix byte, body string) error {
	if err := w.bw.WriteByte(prefix); err != nil {
		return err
	}
	if _, err := w.bw.WriteString(body); err != nil {
		return err
	}
	_, err := w.bw.WriteString("\r\n")
	return err
}
