package attr

import (
	"encoding/binary"
	"errors"
	"fmt"
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
	if len(buf) == 0 {
		return Value{}, nil, fmt.Errorf("%w: empty buffer", ErrCorrupt)
	}
	kind := Kind(buf[0])
	buf = buf[1:]
	switch kind {
	case KindInvalid:
		return Value{}, buf, nil
	case KindInt, KindBool:
		n, rest, err := decodeVarint(buf)
		if err != nil {
			return Value{}, nil, err
		}
		if kind == KindBool && n != 0 {
			n = 1
		}
		return Value{kind: kind, num: n}, rest, nil
	case KindFloat:
		if len(buf) < 8 {
			return Value{}, nil, fmt.Errorf("%w: short float", ErrCorrupt)
		}
		f := math.Float64frombits(binary.LittleEndian.Uint64(buf))
		return Value{kind: KindFloat, flt: f}, buf[8:], nil
	case KindString, KindColor:
		s, rest, err := decodeString(buf)
		if err != nil {
			return Value{}, nil, err
		}
		return Value{kind: kind, str: s}, rest, nil
	case KindStringList:
		n, rest, err := decodeCount(buf, maxListLen)
		if err != nil {
			return Value{}, nil, err
		}
		list := make([]string, n)
		for i := range list {
			list[i], rest, err = decodeString(rest)
			if err != nil {
				return Value{}, nil, err
			}
		}
		return Value{kind: KindStringList, list: list}, rest, nil
	case KindPointList:
		n, rest, err := decodeCount(buf, maxListLen)
		if err != nil {
			return Value{}, nil, err
		}
		points := make([]Point, n)
		for i := range points {
			var x, y int64
			x, rest, err = decodeVarint(rest)
			if err != nil {
				return Value{}, nil, err
			}
			y, rest, err = decodeVarint(rest)
			if err != nil {
				return Value{}, nil, err
			}
			points[i] = Point{X: int32(x), Y: int32(y)}
		}
		return Value{kind: KindPointList, points: points}, rest, nil
	default:
		return Value{}, nil, fmt.Errorf("%w: unknown kind %d", ErrCorrupt, kind)
	}
}

// SkipValue walks one encoded value without decoding it, returning the bytes
// after it. It accepts exactly the input DecodeValue accepts, consumes the
// same bytes, and allocates nothing unless it rejects.
func SkipValue(buf []byte) ([]byte, error) {
	if len(buf) == 0 {
		return nil, fmt.Errorf("%w: empty buffer", ErrCorrupt)
	}
	kind := Kind(buf[0])
	buf = buf[1:]
	var n int
	var err error
	switch kind {
	case KindInvalid:
	case KindInt, KindBool:
		_, buf, err = decodeVarint(buf)
	case KindFloat:
		if len(buf) < 8 {
			return nil, fmt.Errorf("%w: short float", ErrCorrupt)
		}
		buf = buf[8:]
	case KindString, KindColor:
		_, buf, err = cutString(buf)
	case KindStringList:
		n, buf, err = decodeCount(buf, maxListLen)
		for ; n > 0 && err == nil; n-- {
			_, buf, err = cutString(buf)
		}
	case KindPointList:
		n, buf, err = decodeCount(buf, maxListLen)
		for ; n > 0 && err == nil; n-- {
			if _, buf, err = decodeVarint(buf); err == nil {
				_, buf, err = decodeVarint(buf)
			}
		}
	default:
		return nil, fmt.Errorf("%w: unknown kind %d", ErrCorrupt, kind)
	}
	if err != nil {
		return nil, err
	}
	return buf, nil
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
	n, rest, err := decodeCount(buf, MaxValues)
	if err != nil {
		return nil, nil, err
	}
	vals := make([]Value, n)
	for i := range vals {
		if vals[i], rest, err = DecodeValue(rest); err != nil {
			return nil, nil, err
		}
	}
	return vals, rest, nil
}

// SkipValues is SkipValue for a value list: it accepts exactly what
// DecodeValues accepts, consumes the same bytes, and allocates nothing unless
// it rejects.
func SkipValues(buf []byte) ([]byte, error) {
	n, rest, err := decodeCount(buf, MaxValues)
	for ; n > 0 && err == nil; n-- {
		rest, err = SkipValue(rest)
	}
	if err != nil {
		return nil, err
	}
	return rest, nil
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
	n, rest, err := decodeCount(buf, maxListLen)
	if err != nil {
		return nil, nil, err
	}
	s := make(Set, n)
	for i := 0; i < n; i++ {
		var name string
		name, rest, err = decodeString(rest)
		if err != nil {
			return nil, nil, err
		}
		var v Value
		v, rest, err = DecodeValue(rest)
		if err != nil {
			return nil, nil, err
		}
		s[name] = v
	}
	return s, rest, nil
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func decodeString(buf []byte) (string, []byte, error) {
	s, rest, err := cutString(buf)
	return string(s), rest, err
}

// cutString splits one length-prefixed string off buf without copying it.
func cutString(buf []byte) ([]byte, []byte, error) {
	n, rest, err := decodeCount(buf, maxStringLen)
	if err != nil {
		return nil, nil, err
	}
	if len(rest) < n {
		return nil, nil, fmt.Errorf("%w: short string (%d < %d)", ErrCorrupt, len(rest), n)
	}
	return rest[:n], rest[n:], nil
}

func decodeVarint(buf []byte) (int64, []byte, error) {
	v, n := binary.Varint(buf)
	if n <= 0 {
		return 0, nil, fmt.Errorf("%w: bad varint", ErrCorrupt)
	}
	return v, buf[n:], nil
}

func decodeCount(buf []byte, limit int) (int, []byte, error) {
	v, n := binary.Uvarint(buf)
	if n <= 0 {
		return 0, nil, fmt.Errorf("%w: bad uvarint", ErrCorrupt)
	}
	if v > uint64(limit) {
		return 0, nil, fmt.Errorf("%w: count %d exceeds limit %d", ErrCorrupt, v, limit)
	}
	return int(v), buf[n:], nil
}
