package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"testing"

	"cosoft/internal/attr"
	"cosoft/internal/couple"
)

// allocated returns the bytes f allocates on the calling goroutine.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// frameOf frames body as a message of type t with seq 1.
func frameOf(t Type, body []byte) []byte {
	head := binary.LittleEndian.AppendUint16(nil, uint16(t))
	head = append(head, 1, 0) // seq, refSeq
	frame := binary.LittleEndian.AppendUint32(nil, uint32(len(head)+len(body)))
	return append(append(frame, head...), body...)
}

// copyToBody is the start of a CopyTo body from /a to i-1's /b whose tree
// state is the encoding tree; a whole body has one more byte, Destructive.
func copyToBody(tree []byte) []byte {
	b := appendString(nil, "/a")
	b = appendObjectRef(b, couple.ObjectRef{Instance: "i-1", Path: "/b"})
	return append(b, tree...)
}

// setBombTree is a tree state whose root claims 1<<20 attributes and holds
// none.
func setBombTree() []byte { return binary.AppendUvarint([]byte{0, 0}, 1<<20) }

// chainTree is the smallest encoding of a tree nesting levels levels, one
// empty node each.
func chainTree(levels int) []byte {
	var b []byte
	for i := 1; i < levels; i++ {
		b = append(b, 0, 0, 0, 1) // class, name, no attributes, one child
	}
	return append(b, 0, 0, 0, 0)
}

// treeDepthPast is one level more than widget's maxTreeDepth.
const treeDepthPast = 257

// A frame whose counts or nesting claim more than its bytes carry is
// refused as corrupt, and refusing it costs about what the frame does.
func TestHostileFramesCostTheirBytes(t *testing.T) {
	for _, tc := range []struct {
		name  string
		frame []byte
	}{
		{"CopyTo claiming 1<<20 attributes", frameOf(TCopyTo, copyToBody(setBombTree()))},
		{"SetLocks claiming 65535 paths", frameOf(TSetLocks, binary.AppendUvarint(nil, 65535))},
		{"CopyTo nesting 2000 levels", frameOf(TCopyTo, append(copyToBody(chainTree(2000)), 0))},
	} {
		c := NewConn(&loopConn{sinkConn: sinkConn{buf: tc.frame}})
		var err error
		if n := allocated(func() { _, err = c.Read() }); n >= 64<<10 {
			t.Errorf("%s: reading the %d-byte frame allocated %d bytes", tc.name, len(tc.frame), n)
		}
		if !errors.Is(err, attr.ErrCorrupt) {
			t.Errorf("%s: %v, want a corrupt-encoding error", tc.name, err)
		}
	}
	if n := len(frameOf(TCopyTo, copyToBody(setBombTree()))); n != 23 {
		t.Errorf("the CopyTo count bomb is %d bytes, want 23", n)
	}
	// A length prefix announcing MaxFrame with nothing behind it.
	c := NewConn(&loopConn{sinkConn: sinkConn{buf: binary.LittleEndian.AppendUint32(nil, MaxFrame)}})
	var err error
	if n := allocated(func() { _, err = c.Read() }); n >= 64<<10 || err == nil {
		t.Errorf("a bare %d-byte length prefix: allocated %d bytes, %v", MaxFrame, n, err)
	}
}

// A frame above the retained buffer's cap still reads whole.
func TestLargeFrameReadsWhole(t *testing.T) {
	payload := bytes.Repeat([]byte{7}, 3*maxConnScratch)
	cmd := Command{Name: "big", Payload: payload}
	c := NewConn(&loopConn{sinkConn: sinkConn{buf: framesOf(Envelope{Seq: 1, Msg: cmd})}})
	env, err := c.Read()
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := env.Msg.(Command); !ok || !bytes.Equal(got.Payload, payload) {
		t.Fatalf("read %#v", env.Msg)
	}
}
