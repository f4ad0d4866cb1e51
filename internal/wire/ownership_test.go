package wire

import (
	"bytes"
	"encoding/binary"
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

// survivesNextRead is the buffer-ownership check: env is written four times
// and its records read back, twice with Read and twice with Next (a repeated
// notice comes out of the Conn's memo; a Batch's later frames are decoded
// into the run array the first one's records were handed out of), the frame
// buffer and the run array are scribbled over, a fifth, longer and different
// frame is read through the same Conn with Next, and every record read — an
// Exec's or Event's arguments held by value in a Record included — must
// still encode to the bytes its original encodes to.
func survivesNextRead(env Envelope) error {
	recs := records(env)
	want := make([][]byte, len(recs))
	for i, rec := range recs {
		want[i] = AppendEnvelope(nil, rec)
	}
	c := NewConn(&loopConn{})
	other := Envelope{Seq: 99, Msg: Exec{EventID: 1, TargetPath: strings.Repeat("Z", len(AppendEnvelope(nil, env))+16),
		Name: "other", Args: []attr.Value{attr.String(strings.Repeat("z", 64))},
		Origin: couple.ObjectRef{Instance: "other", Path: "/other"}}}
	for _, e := range []Envelope{env, env, env, env, other} {
		if err := c.Write(e); err != nil {
			return err
		}
	}
	got := make([]Envelope, 2*len(recs))
	for i := range got {
		var err error
		if got[i], err = c.Read(); err != nil {
			return err
		}
	}
	next := make([]Record, 2*len(recs))
	for i := range next {
		if err := c.Next(&next[i]); err != nil {
			return err
		}
	}
	frame := c.rbuf[:cap(c.rbuf)]
	for i := range frame {
		frame[i] = 0x5A
	}
	run := c.run[:cap(c.run)]
	for i := range run {
		run[i] = scribbledRecord()
	}
	var last Record
	if err := c.Next(&last); err != nil {
		return err
	}
	for i := range next {
		got = append(got, next[i].Box())
	}
	for i, g := range got {
		if have := AppendEnvelope(nil, g); !bytes.Equal(have, want[i%len(recs)]) {
			return fmt.Errorf("%s (record %d) changed under the next read:\n have %x\n want %x", env.Msg.MsgType(), i+1, have, want[i%len(recs)])
		}
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
// as a frame of its own and as a record of a Batch, each twice in a row so
// that a notice's second read is a repeat.
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

// TestNoticeMemoBounded feeds one connection ten thousand distinct notices,
// and some too long to keep: the memo never exceeds its bound, keeps nothing
// over the length cap, and every notice still decodes to itself.
func TestNoticeMemoBounded(t *testing.T) {
	lc := &loopConn{}
	c := NewConn(lc)
	long := strings.Repeat("p", maxNoticeLen)
	for i := 0; i < 10000; i++ {
		lc.reset()
		want := SetLocks{Paths: []string{fmt.Sprintf("/obj/%d", i)}, Locked: i%2 == 0}
		if i%3 == 0 {
			want.Paths = append(want.Paths, long)
		}
		if err := c.Write(Envelope{Msg: want}); err != nil {
			t.Fatal(err)
		}
		env, err := c.Read()
		if err != nil {
			t.Fatal(err)
		}
		if !messagesEqual(env.Msg, want) {
			t.Fatalf("notice %d decoded as %+v, want %+v", i, env.Msg, want)
		}
		if n := len(c.notices.entries); n > maxNoticeEntries {
			t.Fatalf("notice memo holds %d entries after %d notices, bound %d", n, i+1, maxNoticeEntries)
		}
		for _, e := range c.notices.entries {
			if len(e.body) > maxNoticeLen {
				t.Fatalf("a notice body of %d bytes was memoized, cap %d", len(e.body), maxNoticeLen)
			}
		}
	}
}

// TestNoticeMemoPerConn checks that a repeated notice is decoded once per
// connection and then shared, path slice included, that a notice of the same
// paths with the other Locked value is not, and that two connections share
// nothing.
func TestNoticeMemoPerConn(t *testing.T) {
	read := func(c *Conn, lc *loopConn, m Message) Message {
		t.Helper()
		lc.reset()
		if err := c.Write(Envelope{Msg: m}); err != nil {
			t.Fatal(err)
		}
		env, err := c.Read()
		if err != nil {
			t.Fatal(err)
		}
		return env.Msg
	}
	lock := SetLocks{Paths: []string{"/hub", "/hub/field"}, Locked: true}
	unlock := SetLocks{Paths: lock.Paths, Locked: false}
	lcA, lcB := &loopConn{}, &loopConn{}
	a, b := NewConn(lcA), NewConn(lcB)
	first := read(a, lcA, lock).(SetLocks)
	opposite := read(a, lcA, unlock).(SetLocks)
	second := read(a, lcA, lock).(SetLocks)
	if &first.Paths[0] != &second.Paths[0] {
		t.Error("a repeated notice was decoded again instead of shared")
	}
	if !second.Locked || opposite.Locked || &opposite.Paths[0] == &first.Paths[0] {
		t.Errorf("the lock and unlock notice of the same paths were confused: %+v, %+v", second, opposite)
	}
	if b.notices.entries != nil {
		t.Error("a connection that read nothing has a notice memo")
	}
	if other := read(b, lcB, lock).(SetLocks); &other.Paths[0] == &first.Paths[0] {
		t.Error("two connections share a memoized notice")
	}
	ok1, ok2 := read(a, lcA, EventResult{OK: true}), read(a, lcA, EventResult{OK: true})
	denied := read(a, lcA, EventResult{Reason: "group locked"}).(EventResult)
	if ok1 != ok2 || denied.OK || denied.Reason != "group locked" {
		t.Errorf("verdicts decoded as %+v, %+v, %+v", ok1, ok2, denied)
	}
	if got := len(a.notices.entries); got != 4 { // lock, unlock and two verdicts
		t.Errorf("connection memoized %d notices, want 4", got)
	}
}

// Property: however notices repeat — lone or packed with an Exec into a
// Batch, the same paths locked and unlocked, different path lists, granted
// and denied verdicts — reading a run of them on one Conn yields exactly what
// reading each frame on a Conn of its own yields. The runs are long enough
// that the memo fills and starts over.
func TestPropNoticeMemoMatchesFreshConn(t *testing.T) {
	pool := []string{"/hub", "/a", "/b/c", "/d"}
	reasons := []string{"", "group locked", "permission denied: /a"}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		notice := func() Envelope {
			if r.Intn(3) == 0 {
				reason := reasons[r.Intn(len(reasons))]
				return Envelope{RefSeq: uint64(r.Intn(4)), Msg: EventResult{OK: reason == "" && r.Intn(4) > 0, Reason: reason}}
			}
			var paths []string
			for _, p := range pool {
				if r.Intn(2) == 0 {
					paths = append(paths, p)
				}
			}
			return Envelope{Msg: SetLocks{Paths: paths, Locked: r.Intn(2) == 0}}
		}
		envs := make([]Envelope, 20+r.Intn(60))
		for i := range envs {
			env := notice()
			if r.Intn(3) == 0 {
				recs := []Envelope{env, {Msg: Exec{EventID: uint64(i), TargetPath: "/hub", Name: "changed"}}}
				if r.Intn(2) == 0 {
					recs = append(recs, notice())
				}
				env = Envelope{Msg: Batch{Envelopes: recs}}
			}
			envs[i] = env
		}
		stream := framesOf(envs...)
		c := NewConn(&loopConn{sinkConn: sinkConn{buf: append([]byte(nil), stream...)}})
		for i := range envs {
			got, err := readFrame(c)
			if err != nil {
				t.Logf("seed %d, frame %d: %v", seed, i, err)
				return false
			}
			n := 4 + int(binary.LittleEndian.Uint32(stream))
			fresh, err := readFresh(stream[:n])
			stream = stream[n:]
			if err != nil || len(got) != len(fresh) {
				t.Logf("seed %d, frame %d: %d records after earlier frames, %d on a fresh Conn (%v)", seed, i, len(got), len(fresh), err)
				return false
			}
			for j := range got {
				if !envelopesEqual(got[j], fresh[j]) {
					t.Logf("seed %d, frame %d, record %d: read %+v after earlier frames, %+v on a fresh Conn", seed, i, j, got[j].Msg, fresh[j].Msg)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestReadPathAllocBudget gates the steady-state allocations of the frames
// the event path reads and writes. A Batch[SetLocks, Exec], read across its
// two calls, costs the values a caller keeps of what is new in it — with Read
// the boxed Exec, its argument slice and the payload string, with Next only
// the slice and the string — and nothing for the frame body, the run array,
// the record bodies, the identifiers or the repeated lock notice; a lone lock
// notice or verdict costs Read nothing at all. Next reads the server's share
// of an event the same way: a lone Event costs its argument slice and payload
// string, a lone ExecAck nothing. Acknowledging applied Execs (WriteAcks,
// lone or as a run) costs nothing either.
func TestReadPathAllocBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts include the race detector's own; `make allocs` runs this without -race")
	}
	const runs = 200
	origin := couple.ObjectRef{Instance: "app-1", Path: "/hub"}
	payload := []attr.Value{attr.String(strings.Repeat("v", 64))}
	locks := Envelope{Msg: SetLocks{Paths: []string{"/hub"}, Locked: true}}
	exec := Envelope{Msg: Exec{EventID: 1 << 20, TargetPath: "/hub", Name: "changed", Args: payload, Origin: origin}}
	packed := Envelope{Msg: Batch{Envelopes: []Envelope{locks, exec}}}
	for _, tc := range []struct {
		name  string
		frame Envelope
		next  bool // read with Next instead of Read
		want  float64
	}{
		{"Read of Batch[SetLocks,Exec]", packed, false, 3},
		{"Read of SetLocks", locks, false, 0},
		{"Read of EventResult", Envelope{RefSeq: 9, Msg: EventResult{OK: true}}, false, 0},
		{"Next of Batch[SetLocks,Exec]", packed, true, 2},
		{"Next of ExecAck", Envelope{Msg: ExecAck{EventID: 1 << 20}}, true, 0},
		{"Next of Event", Envelope{Seq: 1 << 20, Msg: Event{Path: "/hub", Name: "changed", Args: payload}}, true, 2},
	} {
		lc := &loopConn{}
		c := NewConn(lc)
		for i := 0; i < runs+2; i++ { // AllocsPerRun warms up with one extra call; one more fills the tables
			if err := c.Write(tc.frame); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := readFrame(c); err != nil {
			t.Fatal(err)
		}
		var rec Record
		got := testing.AllocsPerRun(runs, func() {
			for more := true; more; more = c.Pending() {
				var err error
				if tc.next {
					err = c.Next(&rec)
				} else {
					_, err = c.Read()
				}
				if err != nil {
					t.Fatal(err)
				}
			}
		})
		t.Logf("Conn.%s: %.1f allocations per frame", tc.name, got)
		if got > tc.want {
			t.Errorf("Conn.%s allocates %.1f times per frame, budget %.0f", tc.name, got, tc.want)
		}
	}

	acks := []BatchAckEntry{{EventID: 1 << 20, Trace: obs.TraceContext{Trace: 1 << 40, Span: 1 << 41}}, {EventID: 1<<20 + 1}}
	lc := &loopConn{}
	c := NewConn(lc)
	for _, run := range [][]BatchAckEntry{acks[:1], acks} {
		if got := testing.AllocsPerRun(runs, func() {
			lc.reset()
			if err := c.WriteAcks(run); err != nil {
				t.Fatal(err)
			}
		}); got != 0 {
			t.Errorf("WriteAcks of %d acks allocates %.1f times, want 0", len(run), got)
		}
	}
}
