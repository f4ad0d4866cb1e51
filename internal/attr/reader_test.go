package attr

import (
	"encoding/binary"
	"errors"
	"runtime"
	"testing"
)

// allocated returns the bytes f allocates on the calling goroutine.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// A count of 1<<20 with no elements behind it is corrupt input, and refusing
// it costs next to nothing: no list or map is sized by the count. Nor is a
// set whose 1<<16 entries all repeat one name: it holds one entry.
func TestCountBombsAllocateNothing(t *testing.T) {
	count := binary.AppendUvarint(nil, 1<<20)
	repeated := binary.AppendUvarint(nil, 1<<16)
	for i := 0; i < 1<<16; i++ {
		repeated = append(repeated, 0, byte(KindInvalid)) // name "", an invalid value
	}
	for _, tc := range []struct {
		name    string
		input   []byte
		decode  func([]byte) error
		corrupt bool
	}{
		{"DecodeSet", count, decodeSet, true},
		{"DecodeValue(StringList)", append([]byte{byte(KindStringList)}, count...), decodeValue, true},
		{"DecodeValue(PointList)", append([]byte{byte(KindPointList)}, count...), decodeValue, true},
		{"DecodeSet of one name repeated", repeated, decodeSet, false},
	} {
		var err error
		if n := allocated(func() { err = tc.decode(tc.input) }); n >= 64<<10 {
			t.Errorf("%s allocated %d bytes for a %d-byte input", tc.name, n, len(tc.input))
		}
		if tc.corrupt != errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: %v, want a corrupt-encoding error: %v", tc.name, err, tc.corrupt)
		}
	}
}

func decodeSet(b []byte) error   { _, _, err := DecodeSet(b); return err }
func decodeValue(b []byte) error { _, _, err := DecodeValue(b); return err }

// Count refuses a count over its limit or over what the bytes left could
// hold at minElem bytes each, and accepts one at both bounds.
func TestCountBoundsByLimitAndBytesLeft(t *testing.T) {
	for _, tc := range []struct {
		n, limit, minElem, left int
		ok                      bool
	}{
		{n: 4, limit: 4, minElem: 1, left: 4, ok: true},
		{n: 5, limit: 4, minElem: 1, left: 100},
		{n: 4, limit: 100, minElem: 1, left: 3},
		{n: 4, limit: 100, minElem: 5, left: 20, ok: true},
		{n: 4, limit: 100, minElem: 5, left: 19},
		{n: 0, limit: 0, minElem: 5, left: 0, ok: true},
	} {
		r := NewReader(append(binary.AppendUvarint(nil, uint64(tc.n)), make([]byte, tc.left)...))
		got := r.Count(tc.limit, tc.minElem)
		if ok := r.Err() == nil; ok != tc.ok || ok && got != tc.n {
			t.Errorf("Count(%d, %d) of %d with %d bytes left = %d, %v", tc.limit, tc.minElem, tc.n, tc.left, got, r.Err())
		}
	}
}

// The first failure sticks: later reads return zero values and leave it be,
// and Done reports it; on success Done refuses unread bytes.
func TestReaderFailureSticks(t *testing.T) {
	r := NewReader([]byte{5, 'a'})
	if s := r.String(); s != "" || !errors.Is(r.Err(), ErrCorrupt) {
		t.Fatalf("short string read as %q, %v", s, r.Err())
	}
	first := r.Err()
	if r.Uvarint() != 0 || r.Byte() != 0 || r.Count(10, 1) != 0 || r.Bytes() != nil {
		t.Fatal("a failed reader read something")
	}
	r.Fail("later")
	if r.Err() != first || r.Done() != first || r.Rest() != nil {
		t.Fatalf("the failure changed to %v", r.Err())
	}
	r = NewReader([]byte{1, 'a', 0})
	if r.String() != "a" || !errors.Is(r.Done(), ErrCorrupt) {
		t.Fatalf("a trailing byte passed Done: %v", r.Err())
	}
}
