package attr

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Reader reads a binary encoding field by field out of a buffer it never
// copies. It is the one place a length or count read from outside is
// bounded: no length it accepts overruns the bytes left, and no count it
// returns exceeds the elements those bytes could hold, so no count sizes an
// allocation past the bytes that carry it. The first failure sticks: every
// later read returns a zero value, and Err and Done report the failure. The
// zero Reader reads an empty buffer.
type Reader struct {
	buf []byte
	err error
}

// NewReader returns a Reader over b.
func NewReader(b []byte) Reader { return Reader{buf: b} }

// Err returns the first failure, or nil.
func (r *Reader) Err() error { return r.err }

// Rest returns the bytes not read yet (nil after a failure).
func (r *Reader) Rest() []byte { return r.buf }

// Done returns the first failure, or a failure if any byte is left unread.
func (r *Reader) Done() error {
	if r.err == nil && len(r.buf) != 0 {
		r.Fail(fmt.Sprintf("%d trailing bytes", len(r.buf)))
	}
	return r.err
}

// Fail records a corrupt-encoding failure, wrapping ErrCorrupt, unless the
// reader has failed already.
func (r *Reader) Fail(what string) {
	if r.err == nil {
		r.stop(fmt.Errorf("%w: %s", ErrCorrupt, what))
	}
}

// The failures of the fixed-size reads, made once: refusing input costs no
// allocation until a caller names its own failure.
var (
	errShort   = fmt.Errorf("%w: short buffer", ErrCorrupt)
	errUvarint = fmt.Errorf("%w: bad uvarint", ErrCorrupt)
	errVarint  = fmt.Errorf("%w: bad varint", ErrCorrupt)
)

// stop records err unless the reader has failed already, and empties the
// buffer: a reader that failed has no bytes left, so every later read fails
// on its own without a check of its own.
func (r *Reader) stop(err error) {
	if r.err == nil {
		r.err = err
	}
	r.buf = nil
}

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if len(r.buf) == 0 {
		r.stop(errShort)
		return 0
	}
	b := r.buf[0]
	r.buf = r.buf[1:]
	return b
}

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	v, n := binary.Uvarint(r.buf)
	if n <= 0 {
		r.stop(errUvarint)
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

// Varint reads a signed varint.
func (r *Reader) Varint() int64 {
	v, n := binary.Varint(r.buf)
	if n <= 0 {
		r.stop(errVarint)
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

// Bytes reads one length-prefixed field of at most 16 MiB and returns it as
// a view into the buffer, for the caller to copy or decode out of.
func (r *Reader) Bytes() []byte {
	n := r.Uvarint()
	if r.err != nil {
		return nil
	}
	if n > maxStringLen || n > uint64(len(r.buf)) {
		r.Fail(fmt.Sprintf("field of %d bytes, %d left", n, len(r.buf)))
		return nil
	}
	b := r.buf[:n:n]
	r.buf = r.buf[n:]
	return b
}

// String reads one length-prefixed field as a string.
func (r *Reader) String() string { return string(r.Bytes()) }

// Count reads the element count of a list whose every element takes at least
// minElem bytes. It fails unless the count is at most limit and at most the
// bytes left divided by minElem.
func (r *Reader) Count(limit, minElem int) int {
	n := r.Uvarint()
	if r.err != nil {
		return 0
	}
	if n > uint64(limit) || n > uint64(len(r.buf)/minElem) {
		r.Fail(fmt.Sprintf("count %d over limit %d or %d bytes left", n, limit, len(r.buf)))
		return 0
	}
	return int(n)
}

// float reads a little-endian float64.
func (r *Reader) float() float64 {
	if len(r.buf) < 8 {
		r.stop(errShort)
		return 0
	}
	f := math.Float64frombits(binary.LittleEndian.Uint64(r.buf))
	r.buf = r.buf[8:]
	return f
}

// Values reads a value list AppendValues wrote.
func (r *Reader) Values() []Value {
	vals := make([]Value, r.Count(MaxValues, 1))
	for i := 0; i < len(vals) && r.err == nil; i++ {
		vals[i] = r.value(true)
	}
	if r.err != nil {
		return nil
	}
	return vals
}

// SkipValues walks a value list as Values would read it, allocating nothing
// unless it fails.
func (r *Reader) SkipValues() {
	for n := r.Count(MaxValues, 1); n > 0 && r.err == nil; n-- {
		r.value(false)
	}
}

// Set reads an attribute set AppendSet wrote. The set grows with the
// entries read rather than being sized by the count: entries repeating one
// name take two bytes each and fill one slot.
func (r *Reader) Set() Set {
	n := r.Count(maxListLen, 1)
	s := make(Set)
	for i := 0; i < n && r.err == nil; i++ {
		name := r.String()
		s[name] = r.value(true)
	}
	if r.err != nil {
		return nil
	}
	return s
}

// value reads one value or, unless keep, only walks it: skipping accepts
// exactly the input reading accepts and consumes the same bytes, because it
// is the same walk.
func (r *Reader) value(keep bool) Value {
	v := Value{kind: Kind(r.Byte())}
	switch v.kind {
	case KindInvalid:
	case KindInt, KindBool:
		v.num = r.Varint()
		if v.kind == KindBool && v.num != 0 {
			v.num = 1
		}
	case KindFloat:
		v.flt = r.float()
	case KindString, KindColor:
		if b := r.Bytes(); keep {
			v.str = string(b)
		}
	case KindStringList:
		n := r.Count(maxListLen, 1)
		if keep {
			v.list = make([]string, n)
		}
		for i := 0; i < n && r.err == nil; i++ {
			if b := r.Bytes(); keep {
				v.list[i] = string(b)
			}
		}
	case KindPointList:
		n := r.Count(maxListLen, 1)
		if keep {
			v.points = make([]Point, n)
		}
		for i := 0; i < n && r.err == nil; i++ {
			x, y := r.Varint(), r.Varint()
			if keep {
				v.points[i] = Point{X: int32(x), Y: int32(y)}
			}
		}
	default:
		r.Fail(fmt.Sprintf("unknown kind %d", v.kind))
	}
	if r.err != nil {
		return Value{}
	}
	return v
}
