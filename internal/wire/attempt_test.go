package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"net"
	"testing"
	"testing/quick"

	"cosoft/internal/attr"
	"cosoft/internal/couple"
	"cosoft/internal/race"
)

// idCall is one write call whose every record carries id — as its Seq, or
// as the EventID of an ack — so the order of calls can be read back off the
// wire.
func idCall(kind int, id uint64, se *SharedExec) func(*Conn) error {
	shared := Outgoing{Env: Envelope{Seq: id}, Shared: se, Target: "/m"}
	plain := Outgoing{Env: Envelope{Seq: id, Msg: SetLocks{Paths: []string{"/m"}, Locked: true}}}
	switch kind {
	case 0:
		return func(c *Conn) error { return c.Write(Envelope{Seq: id, Msg: Ping{Nonce: id}}) }
	case 1:
		return func(c *Conn) error { return c.WriteAcks([]BatchAckEntry{{EventID: id}, {EventID: id}}) }
	case 2:
		return func(c *Conn) error { return c.WriteOutgoing(shared) }
	default:
		return func(c *Conn) error { return c.WriteBatch([]Outgoing{shared, plain}) }
	}
}

// recordIDs reads every record in stream and returns the id each carries.
func recordIDs(stream []byte) ([]uint64, error) {
	c := NewConn(&bytesConn{r: bytes.NewReader(stream)})
	var ids []uint64
	for {
		env, err := c.Read()
		if errors.Is(err, io.EOF) {
			return ids, nil
		}
		if err != nil {
			return ids, err
		}
		switch m := env.Msg.(type) {
		case ExecAck:
			ids = append(ids, m.EventID)
		case BatchAck:
			for _, a := range m.Acks {
				ids = append(ids, a.EventID)
			}
		default:
			ids = append(ids, env.Seq)
		}
	}
}

// bytesConn reads a fixed stream.
type bytesConn struct {
	sinkConn
	r *bytes.Reader
}

func (b *bytesConn) Read(p []byte) (int, error) { return b.r.Read(p) }

// TestPropAttemptsKeepTheStream: whatever prefix of each attempt the
// transport takes, a run of write calls — each attempted or blocking at
// random, with a Flush now and then — puts on the wire exactly the bytes
// blocking calls alone put there, so every frame arrives whole and in call
// order across attempt, tail and blocking write. A transport that breaks
// part-way, with or without a tail pending, leaves a prefix of that stream,
// and the first error it returns sticks: every later call returns it and the
// transport hears nothing more.
func TestPropAttemptsKeepTheStream(t *testing.T) {
	se := NewSharedExec(9, "changed", []attr.Value{attr.String("v")}, couple.ObjectRef{Instance: "a", Path: "/o"})
	defer se.Release()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		calls := 1 + r.Intn(24)
		breakAt := calls + 1 // past the end: the transport never breaks
		if r.Intn(3) == 0 {
			breakAt = r.Intn(calls + 1)
		}
		tl := &tryLog{take: func(n int) int { return r.Intn(n + 1) }}
		c := NewConn(tl)
		ref := &sinkConn{}
		blocking := NewConn(ref)
		var first error
		reached := 0 // transport calls when the first error came back
		check := func(step string, err error) bool {
			switch {
			case first == nil && err != nil:
				first, reached = err, len(tl.tries)+len(tl.writes)
			case first != nil && err != first:
				t.Logf("seed %d: %s returned %v after the first error %v", seed, step, err, first)
				return false
			}
			return true
		}
		for i := 0; i < calls; i++ {
			if i == breakAt {
				tl.broken = true
			}
			call := idCall(r.Intn(4), uint64(i+1), se)
			if err := call(blocking); err != nil {
				t.Fatalf("blocking reference call %d: %v", i, err)
			}
			attempt := r.Intn(2) == 0
			if attempt && !c.BeginAttempt() {
				t.Fatal("a transport with TryWrite cannot attempt")
			}
			err := call(c)
			if attempt && c.EndAttempt() && first != nil {
				t.Logf("seed %d: a tail is pending after the error %v", seed, first)
				return false
			}
			if !check("call", err) {
				return false
			}
			if r.Intn(4) == 0 && !check("Flush", c.Flush()) {
				return false
			}
		}
		if calls == breakAt {
			tl.broken = true
		}
		if !check("last Flush", c.Flush()) {
			return false
		}
		want := ref.bytes()
		if first == nil {
			if !bytes.Equal(tl.stream, want) {
				t.Logf("seed %d: the attempted stream differs from the blocking one", seed)
				return false
			}
		} else {
			if !errors.Is(first, errCut) {
				t.Logf("seed %d: first error %v, want the transport's", seed, first)
				return false
			}
			if got := len(tl.tries) + len(tl.writes); got != reached {
				t.Logf("seed %d: the transport heard %d calls after the first error", seed, got-reached)
				return false
			}
			if !bytes.HasPrefix(want, tl.stream) {
				t.Logf("seed %d: a broken transport's stream is not a prefix of the blocking one", seed)
				return false
			}
		}
		// Frame order: the records decode whole, their ids in call order.
		whole := tl.stream
		if first != nil {
			whole = wholePrefix(whole)
		}
		ids, err := recordIDs(whole)
		if err != nil {
			t.Logf("seed %d: stream does not decode: %v", seed, err)
			return false
		}
		for i := 1; i < len(ids); i++ {
			if ids[i] < ids[i-1] {
				t.Logf("seed %d: record ids out of call order: %v", seed, ids)
				return false
			}
		}
		return first != nil || len(ids) > 0 && ids[len(ids)-1] == uint64(calls)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// wholePrefix returns the longest prefix of b that ends at a frame boundary.
func wholePrefix(b []byte) []byte {
	n := 0
	for len(b)-n >= 4 {
		size := 4 + int(binary.LittleEndian.Uint32(b[n:]))
		if size > len(b)-n {
			break
		}
		n += size
	}
	return b[:n]
}

// takeAll is a transport whose attempts take everything.
type takeAll struct{ *sinkConn }

func (takeAll) TryWrite(p []byte) (int, error) { return len(p), nil }

// TestAttemptAllocBudget gates a lock holder's write path: an attempted
// WriteOutgoing or WriteBatch of shared Execs allocates nothing, through a
// transport's TryWrite or a socket's file descriptor alike.
func TestAttemptAllocBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts include the race detector's own; `make allocs` runs this without -race")
	}
	se := NewSharedExec(1<<20, "changed", []attr.Value{attr.String("sixty-four bytes of payload")}, couple.ObjectRef{Instance: "app-1", Path: "/hub"})
	defer se.Release()
	one := Outgoing{Env: Envelope{Seq: 1}, Shared: se, Target: "/hub"}
	run := []Outgoing{{Env: Envelope{Msg: SetLocks{Paths: []string{"/hub"}, Locked: true}}}, one}
	dialed, accepted := tcpPair(t)
	go func() {
		buf := make([]byte, 64<<10)
		for {
			if _, err := accepted.Read(buf); err != nil {
				return
			}
		}
	}()
	for _, tc := range []struct {
		name string
		conn net.Conn
	}{
		{"TryWrite", takeAll{}},
		{"socket", dialed},
	} {
		c := NewConn(tc.conn)
		if got := testing.AllocsPerRun(200, func() {
			c.BeginAttempt()
			if err := c.WriteOutgoing(one); err != nil {
				t.Fatal(err)
			}
			if err := c.WriteBatch(run); err != nil {
				t.Fatal(err)
			}
			if c.EndAttempt() {
				t.Fatal("a tail is pending on a transport that takes everything")
			}
		}); got != 0 {
			t.Errorf("%s: an attempted WriteOutgoing and WriteBatch allocate %.2f times, want 0", tc.name, got)
		}
	}
}

// tcpPair returns the two ends of a loopback TCP connection, closed when the
// test ends.
func tcpPair(t *testing.T) (dialed, accepted *net.TCPConn) {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	d, err := net.Dial("tcp", lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	a, err := lis.Accept()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	return d.(*net.TCPConn), a.(*net.TCPConn)
}

// TestSocketAttemptsGoShortAndKeepTheStream: attempts on a loopback socket
// whose reader does not read go short with a nil error once its buffers
// fill — a full socket's EAGAIN is push-back, not a failure — and once the
// reader drains, the stream decodes to exactly the frames that were written,
// the tail a blocking Flush wrote included.
func TestSocketAttemptsGoShortAndKeepTheStream(t *testing.T) {
	dialed, accepted := tcpPair(t)
	// Small buffers fill after a few dozen frames instead of megabytes.
	if err := dialed.SetWriteBuffer(4 << 10); err != nil {
		t.Fatal(err)
	}
	if err := accepted.SetReadBuffer(4 << 10); err != nil {
		t.Fatal(err)
	}
	c := NewConn(dialed)
	payload := bytes.Repeat([]byte("p"), 1<<10)
	const most = 1 << 14 // 16 MiB of frames: far past any loopback buffer
	sent := uint64(0)
	for short := false; !short; {
		if sent == most {
			t.Fatalf("%d attempted frames never filled the socket", sent)
		}
		sent++
		if !c.BeginAttempt() {
			t.Fatal("a socket cannot attempt")
		}
		if err := c.Write(Envelope{Seq: sent, Msg: Command{Name: "fill", Payload: payload}}); err != nil {
			t.Fatalf("attempt %d: %v", sent, err)
		}
		short = c.EndAttempt()
	}
	t.Logf("the socket pushed back at frame %d", sent)
	got := make(chan []uint64, 1)
	go func() {
		r := NewConn(accepted)
		var seqs []uint64
		for {
			env, err := r.Read()
			if err != nil {
				got <- seqs
				return
			}
			if cmd, ok := env.Msg.(Command); !ok || !bytes.Equal(cmd.Payload, payload) {
				t.Errorf("frame %d decoded to %+v", env.Seq, env.Msg)
			}
			seqs = append(seqs, env.Seq)
		}
	}()
	if err := c.Flush(); err != nil {
		t.Fatalf("flushing the tail: %v", err)
	}
	dialed.Close()
	seqs := <-got
	if uint64(len(seqs)) != sent {
		t.Fatalf("read %d frames, wrote %d", len(seqs), sent)
	}
	for i, seq := range seqs {
		if seq != uint64(i+1) {
			t.Fatalf("frame %d carries seq %d", i+1, seq)
		}
	}
}
