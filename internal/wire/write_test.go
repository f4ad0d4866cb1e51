package wire

import (
	"encoding/binary"
	"errors"
	"testing"

	"cosoft/internal/attr"
	"cosoft/internal/couple"
	"cosoft/internal/obs"
)

// writeLog is a net.Conn stand-in that keeps the bytes of each Write call
// apart, and fails every Write once broken is set.
type writeLog struct {
	sinkConn
	writes [][]byte
	broken bool
}

var errCut = errors.New("connection reset by peer")

func (w *writeLog) Write(p []byte) (int, error) {
	w.writes = append(w.writes, append([]byte(nil), p...))
	if w.broken {
		return 0, errCut
	}
	return len(p), nil
}

// wholeFrames counts the frames in b, or reports -1 when b does not end
// exactly at a frame boundary.
func wholeFrames(b []byte) int {
	n := 0
	for len(b) > 0 {
		if len(b) < 4 {
			return -1
		}
		size := 4 + int(binary.LittleEndian.Uint32(b))
		if size > len(b) {
			return -1
		}
		b = b[size:]
		n++
	}
	return n
}

// writeCall is one way onto the wire and the number of frames a call of it
// puts there.
type writeCall struct {
	name   string
	frames int
	call   func(*Conn) error
}

// writeCalls lists every write call of a Conn, WriteAcks and WriteOutgoing
// in both their forms.
func writeCalls(se *SharedExec) []writeCall {
	acks := make([]BatchAckEntry, MaxBatch+1)
	for i := range acks {
		acks[i] = BatchAckEntry{EventID: uint64(i + 1)}
	}
	shared := Outgoing{Env: Envelope{Seq: 3, Trace: obs.TraceContext{Trace: 7, Span: 8}}, Shared: se, Target: "/m"}
	plain := Outgoing{Env: Envelope{Seq: 4, Msg: SetLocks{Paths: []string{"/m"}, Locked: true}}}
	return []writeCall{
		{"Write", 1, func(c *Conn) error { return c.Write(Envelope{Seq: 1, Msg: Ping{Nonce: 1}}) }},
		{"WriteAcks one", 1, func(c *Conn) error { return c.WriteAcks(acks[:1]) }},
		{"WriteAcks run", 2, func(c *Conn) error { return c.WriteAcks(acks) }},
		{"WriteOutgoing plain", 1, func(c *Conn) error { return c.WriteOutgoing(plain) }},
		{"WriteOutgoing shared", 1, func(c *Conn) error { return c.WriteOutgoing(shared) }},
		{"WriteBatch", 1, func(c *Conn) error { return c.WriteBatch([]Outgoing{shared, plain, shared}) }},
	}
}

// TestEachWriteCallIsOneTransportWrite pins the write contract: every write
// call reaches the transport as exactly one Write holding whole frames, so a
// transport that drops or duplicates whole Writes (faultnet) never splits a
// frame.
func TestEachWriteCallIsOneTransportWrite(t *testing.T) {
	se := NewSharedExec(9, "changed", []attr.Value{attr.String("v")}, couple.ObjectRef{Instance: "a", Path: "/o"})
	defer se.Release()
	for _, wc := range writeCalls(se) {
		w := &writeLog{}
		if err := wc.call(NewConn(w)); err != nil {
			t.Fatalf("%s: %v", wc.name, err)
		}
		if len(w.writes) != 1 {
			t.Errorf("%s reached the transport in %d Writes, want 1", wc.name, len(w.writes))
			continue
		}
		if got := wholeFrames(w.writes[0]); got != wc.frames {
			t.Errorf("%s wrote %d whole frames, want %d (-1: a frame cut short)", wc.name, got, wc.frames)
		}
	}
}

// TestWriteErrorSticks: once a transport Write fails, every later write
// call returns that first error and the transport sees no further Write; a
// frame refused before it would reach the transport still says why.
func TestWriteErrorSticks(t *testing.T) {
	se := NewSharedExec(9, "changed", nil, couple.ObjectRef{})
	defer se.Release()
	w := &writeLog{broken: true}
	c := NewConn(w)
	first := c.Write(Envelope{Msg: Ping{Nonce: 1}})
	if !errors.Is(first, errCut) {
		t.Fatalf("first write failed with %v, want the transport's error", first)
	}
	for _, wc := range writeCalls(se) {
		if err := wc.call(c); err != first {
			t.Errorf("%s after a failed write returned %v, want the first error %v", wc.name, err, first)
		}
	}
	if len(w.writes) != 1 {
		t.Errorf("the transport saw %d Writes, want only the failed one", len(w.writes))
	}
	big := Command{Name: "big", Payload: make([]byte, MaxFrame)}
	if err := c.Write(Envelope{Msg: big}); err != ErrFrameTooLarge {
		t.Errorf("an oversized frame after a failed write returned %v, want ErrFrameTooLarge", err)
	}
}
