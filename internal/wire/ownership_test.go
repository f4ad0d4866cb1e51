package wire

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"cosoft/internal/attr"
	"cosoft/internal/couple"
	"cosoft/internal/obs"
	"cosoft/internal/race"
)

// loopConn is a net.Conn whose reads return what was written to it, so one
// Conn can read back its own frames. Every byte it hands to a reader is
// overwritten at the source straight away.
type loopConn struct {
	sinkConn
	off int
}

func (l *loopConn) Read(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.off == len(l.buf) {
		return 0, io.EOF
	}
	n := copy(p, l.buf[l.off:])
	for i := l.off; i < l.off+n; i++ {
		l.buf[i] = 0xA5
	}
	l.off += n
	return n, nil
}

// reset forgets everything written so far.
func (l *loopConn) reset() {
	l.mu.Lock()
	l.buf, l.off = l.buf[:0], 0
	l.mu.Unlock()
}

// survivesNextRead is the buffer-ownership check: env is written and read
// back, the frame buffer it was decoded from is scribbled over, a second,
// longer and different frame is read through the same Conn, and the first
// decoded envelope must still encode to the bytes env encodes to.
func survivesNextRead(env Envelope) error {
	want := AppendEnvelope(nil, env)
	c := NewConn(&loopConn{})
	c.EnableTrace()
	other := Envelope{Seq: 99, Msg: Exec{EventID: 1, TargetPath: strings.Repeat("Z", len(want)+16),
		Name: "other", Args: []attr.Value{attr.String(strings.Repeat("z", 64))},
		Origin: couple.ObjectRef{Instance: "other", Path: "/other"}}}
	for _, e := range []Envelope{env, other} {
		if err := c.Write(e); err != nil {
			return err
		}
	}
	got, err := c.Read()
	if err != nil {
		return err
	}
	frame := c.rbuf[:cap(c.rbuf)]
	for i := range frame {
		frame[i] = 0x5A
	}
	if _, err := c.Read(); err != nil {
		return err
	}
	if have := AppendEnvelope(nil, got); !bytes.Equal(have, want) {
		return fmt.Errorf("%s changed under the next read:\n have %x\n want %x", env.Msg.MsgType(), have, want)
	}
	return nil
}

// inBatch packs m twice into one Batch frame, the second record traced.
func inBatch(m Message) Envelope {
	return Envelope{Msg: Batch{Envelopes: []Envelope{
		{Seq: 5, Msg: m},
		{RefSeq: 6, Trace: obs.TraceContext{Trace: 7, Span: 8}, Msg: m},
	}}}
}

// nests reports whether m may not travel inside a Batch.
func nests(m Message) bool {
	return m.MsgType() == TBatch || m.MsgType() == TBatchAck
}

// TestDecodedEnvelopeOwnsItsBytes holds every message type to the package's
// ownership rule — a decoded Envelope never aliases the frame buffer — read
// as a frame of its own and as a record of a Batch.
func TestDecodedEnvelopeOwnsItsBytes(t *testing.T) {
	for _, m := range allMessages() {
		if err := survivesNextRead(Envelope{Seq: 3, Trace: obs.TraceContext{Trace: 1, Span: 2}, Msg: m}); err != nil {
			t.Error(err)
		}
		if nests(m) {
			continue
		}
		if err := survivesNextRead(inBatch(m)); err != nil {
			t.Errorf("in a Batch: %v", err)
		}
	}
}

// Property: the same for random messages with random contents.
func TestPropDecodedEnvelopeOwnsItsBytes(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := randomMessage(r)
		if err := survivesNextRead(Envelope{Seq: r.Uint64(), RefSeq: r.Uint64(), Msg: m}); err != nil {
			t.Log(err)
			return false
		}
		if err := survivesNextRead(inBatch(m)); err != nil {
			t.Log(err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestInternTableBounded feeds one connection ten thousand distinct
// identifiers, and some too long to keep: the table never exceeds its bound,
// and keeps nothing over the length cap.
func TestInternTableBounded(t *testing.T) {
	lc := &loopConn{}
	c := NewConn(lc)
	long := strings.Repeat("p", maxInternLen+1)
	for i := 0; i < 10000; i++ {
		lc.reset()
		if err := c.Write(Envelope{Msg: Declare{Path: fmt.Sprintf("/obj/%d", i), Class: long}}); err != nil {
			t.Fatal(err)
		}
		env, err := c.Read()
		if err != nil {
			t.Fatal(err)
		}
		if d := env.Msg.(Declare); d.Path != fmt.Sprintf("/obj/%d", i) || d.Class != long {
			t.Fatalf("frame %d decoded as %+v", i, d)
		}
		if n := len(c.idents.m); n > maxInternEntries {
			t.Fatalf("intern table holds %d entries after %d identifiers, bound %d", n, i+1, maxInternEntries)
		}
	}
	if _, kept := c.idents.m[long]; kept {
		t.Errorf("identifier of %d bytes was interned, cap %d", len(long), maxInternLen)
	}
}

// TestInternTablePerConn checks that an identifier is copied once per
// connection and then shared by the envelopes that repeat it, and that two
// connections share nothing.
func TestInternTablePerConn(t *testing.T) {
	read := func(c *Conn, lc *loopConn) Exec {
		t.Helper()
		lc.reset()
		if err := c.Write(Envelope{Msg: Exec{EventID: 1, TargetPath: "/hub", Name: "changed",
			Origin: couple.ObjectRef{Instance: "app-1", Path: "/hub"}}}); err != nil {
			t.Fatal(err)
		}
		env, err := c.Read()
		if err != nil {
			t.Fatal(err)
		}
		return env.Msg.(Exec)
	}
	lcA, lcB := &loopConn{}, &loopConn{}
	a, b := NewConn(lcA), NewConn(lcB)
	first, second := read(a, lcA), read(a, lcA)
	if unsafe.StringData(first.TargetPath) != unsafe.StringData(second.TargetPath) ||
		unsafe.StringData(first.Name) != unsafe.StringData(second.Name) ||
		unsafe.StringData(string(first.Origin.Instance)) != unsafe.StringData(string(second.Origin.Instance)) {
		t.Error("a repeated identifier was copied again instead of shared")
	}
	if b.idents.m != nil {
		t.Error("a connection that read nothing has an intern table")
	}
	other := read(b, lcB)
	if unsafe.StringData(first.TargetPath) == unsafe.StringData(other.TargetPath) {
		t.Error("two connections share an interned identifier")
	}
	if got := len(a.idents.m); got != 3 { // "/hub", "changed", "app-1"
		t.Errorf("connection interned %d identifiers, want 3: %v", got, a.idents.m)
	}
}

// TestReadPathAllocBudget gates the steady-state allocations of the frames
// the event path reads and writes. A Batch[SetLocks, Exec] costs the values a
// caller keeps — the boxed Batch and its record slice, the boxed SetLocks and
// its path slice, the boxed Exec, its argument slice and the payload string —
// and nothing for the frame body, the record bodies or the identifiers.
func TestReadPathAllocBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts include the race detector's own; `make allocs` runs this without -race")
	}
	const runs = 200
	origin := couple.ObjectRef{Instance: "app-1", Path: "/hub"}
	locks := Envelope{Msg: SetLocks{Paths: []string{"/hub"}, Locked: true}}
	exec := Envelope{Msg: Exec{EventID: 1 << 20, TargetPath: "/hub", Name: "changed",
		Args: []attr.Value{attr.String(strings.Repeat("v", 64))}, Origin: origin}}
	for _, tc := range []struct {
		name  string
		frame Envelope
		want  float64
	}{
		{"Batch[SetLocks,Exec]", Envelope{Msg: Batch{Envelopes: []Envelope{locks, exec}}}, 7},
		{"SetLocks", locks, 2},
	} {
		lc := &loopConn{}
		c := NewConn(lc)
		for i := 0; i < runs+2; i++ { // AllocsPerRun warms up with one extra call; one more fills the tables
			if err := c.Write(tc.frame); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := c.Read(); err != nil {
			t.Fatal(err)
		}
		got := testing.AllocsPerRun(runs, func() {
			if _, err := c.Read(); err != nil {
				t.Fatal(err)
			}
		})
		if got > tc.want {
			t.Errorf("Conn.Read of %s allocates %.1f times per frame, budget %.0f", tc.name, got, tc.want)
		}
	}

	lc := &loopConn{}
	c := NewConn(lc)
	ack := Envelope{Msg: ExecAck{EventID: 1 << 20}}
	if got := testing.AllocsPerRun(runs, func() {
		lc.reset()
		if err := c.Write(ack); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("Conn.Write of ExecAck allocates %.1f times per frame, want 0", got)
	}
}
