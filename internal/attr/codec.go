package attr

import (
	"encoding/binary"
	"errors"
	"math"
)

// Encoding limits. Frames above these sizes are rejected rather than
// allocated, so a corrupt length prefix cannot exhaust memory.
const (
	maxStringLen = 1 << 24 // 16 MiB per string
	maxListLen   = 1 << 20 // 1M elements per list
)

// MaxValues caps the length of a value list (an event's arguments): a longer
// count is corrupt input, not an allocation request.
const MaxValues = 4096

// ErrCorrupt is returned when decoding meets malformed input.
var ErrCorrupt = errors.New("attr: corrupt encoding")

// AppendValue appends the binary encoding of v to buf and returns the
// extended slice. The encoding is: 1 byte kind, then a kind-specific payload
// using unsigned varints for lengths and fixed little-endian for numbers.
func AppendValue(buf []byte, v Value) []byte {
	buf = append(buf, byte(v.kind))
	switch v.kind {
	case KindInvalid:
	case KindInt, KindBool:
		buf = binary.AppendVarint(buf, v.num)
	case KindFloat:
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v.flt))
	case KindString, KindColor:
		buf = appendString(buf, v.str)
	case KindStringList:
		buf = binary.AppendUvarint(buf, uint64(len(v.list)))
		for _, s := range v.list {
			buf = appendString(buf, s)
		}
	case KindPointList:
		buf = binary.AppendUvarint(buf, uint64(len(v.points)))
		for _, p := range v.points {
			buf = binary.AppendVarint(buf, int64(p.X))
			buf = binary.AppendVarint(buf, int64(p.Y))
		}
	}
	return buf
}

// DecodeValue decodes one value from buf, returning the value and the
// remaining bytes.
func DecodeValue(buf []byte) (Value, []byte, error) {
	r := NewReader(buf)
	v := r.value(true)
	return v, r.Rest(), r.Err()
}

// SkipValue walks one encoded value without decoding it, returning the bytes
// after it. It accepts exactly the input DecodeValue accepts, consumes the
// same bytes, and allocates nothing unless it rejects.
func SkipValue(buf []byte) ([]byte, error) {
	r := NewReader(buf)
	r.value(false)
	return r.Rest(), r.Err()
}

// AppendValues appends a value list: its length, then each value.
func AppendValues(buf []byte, vals []Value) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(vals)))
	for _, v := range vals {
		buf = AppendValue(buf, v)
	}
	return buf
}

// DecodeValues decodes a value list AppendValues wrote, returning the values
// and the remaining bytes.
func DecodeValues(buf []byte) ([]Value, []byte, error) {
	r := NewReader(buf)
	vals := r.Values()
	return vals, r.Rest(), r.Err()
}

// SkipValues is SkipValue for a value list: it accepts exactly what
// DecodeValues accepts, consumes the same bytes, and allocates nothing unless
// it rejects.
func SkipValues(buf []byte) ([]byte, error) {
	r := NewReader(buf)
	r.SkipValues()
	return r.Rest(), r.Err()
}

// AppendSet appends the binary encoding of an attribute set. Entries are
// written in sorted name order so the encoding is deterministic.
func AppendSet(buf []byte, s Set) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	for _, name := range s.Names() {
		buf = appendString(buf, name)
		buf = AppendValue(buf, s[name])
	}
	return buf
}

// DecodeSet decodes an attribute set from buf, returning the set and the
// remaining bytes.
func DecodeSet(buf []byte) (Set, []byte, error) {
	r := NewReader(buf)
	s := r.Set()
	return s, r.Rest(), r.Err()
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}
