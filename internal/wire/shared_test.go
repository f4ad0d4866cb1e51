package wire

import (
	"bytes"
	"io"
	"math/rand"
	"net"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"cosoft/internal/attr"
	"cosoft/internal/couple"
	"cosoft/internal/obs"
	"cosoft/internal/race"
)

// sinkConn is a net.Conn that records every byte written to it, so a test
// can compare the raw frames two encode paths produce. Reads always report
// EOF; the snooped direction is write-only.
type sinkConn struct {
	mu  sync.Mutex
	buf []byte
}

func (s *sinkConn) Write(p []byte) (int, error) {
	s.mu.Lock()
	s.buf = append(s.buf, p...)
	s.mu.Unlock()
	return len(p), nil
}

func (s *sinkConn) bytes() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]byte(nil), s.buf...)
}

func (s *sinkConn) Read(p []byte) (int, error)         { return 0, io.EOF }
func (s *sinkConn) Close() error                       { return nil }
func (s *sinkConn) LocalAddr() net.Addr                { return nil }
func (s *sinkConn) RemoteAddr() net.Addr               { return nil }
func (s *sinkConn) SetDeadline(t time.Time) error      { return nil }
func (s *sinkConn) SetReadDeadline(t time.Time) error  { return nil }
func (s *sinkConn) SetWriteDeadline(t time.Time) error { return nil }

// randomSharedExec builds a random broadcast: a SharedExec plus the member
// target paths it fans out to.
func randomSharedExec(r *rand.Rand) (*SharedExec, []string) {
	str := func() string {
		b := make([]byte, r.Intn(16))
		for i := range b {
			b[i] = byte(r.Intn(256))
		}
		return string(b)
	}
	args := make([]attr.Value, r.Intn(4))
	for i := range args {
		switch r.Intn(3) {
		case 0:
			args[i] = attr.Int(r.Int63() - r.Int63())
		case 1:
			args[i] = attr.String(str())
		default:
			args[i] = attr.Bool(r.Intn(2) == 0)
		}
	}
	if len(args) == 0 {
		args = nil
	}
	origin := couple.ObjectRef{Instance: couple.InstanceID(str()), Path: str()}
	se := NewSharedExec(r.Uint64(), str(), args, origin)
	paths := make([]string, 1+r.Intn(5))
	for i := range paths {
		paths[i] = str()
	}
	return se, paths
}

// randomEnvTrace picks a trace context: zero half the time, random IDs
// otherwise, exercising both the unflagged and the context-carrying
// encodings.
func randomEnvTrace(r *rand.Rand) obs.TraceContext {
	if r.Intn(2) == 0 {
		return obs.TraceContext{}
	}
	return obs.TraceContext{Trace: obs.TraceID(r.Uint64() | 1), Span: obs.SpanID(r.Uint64())}
}

// Property: for every random broadcast, the encode-once path — WriteOutgoing
// copying the shared suffix in behind the member's head — puts byte-for-byte
// the same frames on the wire as the legacy per-member Conn.Write of the
// materialized Exec, snooped at the raw byte level below the Conn.
func TestPropSharedWriteByteIdentical(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		legacySink, sharedSink := &sinkConn{}, &sinkConn{}
		legacy, shared := NewConn(legacySink), NewConn(sharedSink)
		se, paths := randomSharedExec(r)
		for _, p := range paths {
			env := Envelope{Seq: r.Uint64() % 1000, Trace: randomEnvTrace(r), Msg: se.Exec(p)}
			if err := legacy.Write(env); err != nil {
				t.Logf("legacy write: %v", err)
				return false
			}
			// The shared record carries correlation numbers and trace only;
			// Msg stays nil as on the server's hot path.
			if err := shared.WriteOutgoing(Outgoing{
				Env:    Envelope{Seq: env.Seq, Trace: env.Trace},
				Shared: se, Target: p,
			}); err != nil {
				t.Logf("shared write: %v", err)
				return false
			}
		}
		se.Release()
		return bytes.Equal(legacySink.bytes(), sharedSink.bytes())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
	if n := LiveSharedBodies(); n != 0 {
		t.Fatalf("LiveSharedBodies = %d after all releases, want 0", n)
	}
}

// Property: the packed form — WriteBatch over a run mixing shared-body
// Exec records with plain envelopes — is byte-identical to the legacy
// Conn.Write of the materialized Batch message.
func TestPropSharedBatchByteIdentical(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		legacySink, sharedSink := &sinkConn{}, &sinkConn{}
		legacy, shared := NewConn(legacySink), NewConn(sharedSink)
		se, paths := randomSharedExec(r)
		var recs []Outgoing
		for _, p := range paths {
			recs = append(recs, Outgoing{
				Env:    Envelope{Seq: r.Uint64() % 1000, Trace: randomEnvTrace(r)},
				Shared: se, Target: p,
			})
			if r.Intn(3) == 0 {
				// Interleave a plain (re-encoded per flush) record, as a real
				// outbox backlog would around lock notifications.
				recs = append(recs, Outgoing{Env: Envelope{
					Seq:   r.Uint64() % 1000,
					Trace: randomEnvTrace(r),
					Msg:   SetLocks{Paths: []string{p}, Locked: r.Intn(2) == 0},
				}})
			}
		}
		envs := make([]Envelope, len(recs))
		for i := range recs {
			envs[i] = recs[i].Envelope() // materializes the shared records' Execs
		}
		if err := legacy.Write(Envelope{Msg: Batch{Envelopes: envs}}); err != nil {
			t.Logf("legacy batch write: %v", err)
			return false
		}
		if err := shared.WriteBatch(recs); err != nil {
			t.Logf("shared batch write: %v", err)
			return false
		}
		se.Release()
		return bytes.Equal(legacySink.bytes(), sharedSink.bytes())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
	if n := LiveSharedBodies(); n != 0 {
		t.Fatalf("LiveSharedBodies = %d after all releases, want 0", n)
	}
}

// An Outgoing whose shared suffix would push the frame past MaxFrame must be
// rejected before any bytes reach the wire, both singly and batched — the
// outbox's split-and-retry depends on that.
func TestSharedWriteOversizeRejectedBeforeWire(t *testing.T) {
	sink := &sinkConn{}
	c := NewConn(sink)
	big := string(make([]byte, MaxFrame))
	se := NewSharedExec(1, "e", []attr.Value{attr.String(big)}, couple.ObjectRef{})
	defer se.Release()
	o := Outgoing{Shared: se, Target: "/x"}
	if err := c.WriteOutgoing(o); err != ErrFrameTooLarge {
		t.Fatalf("WriteOutgoing oversize: err = %v, want ErrFrameTooLarge", err)
	}
	if err := c.WriteBatch([]Outgoing{o, o}); err != ErrFrameTooLarge {
		t.Fatalf("WriteBatch oversize: err = %v, want ErrFrameTooLarge", err)
	}
	if got := sink.bytes(); len(got) != 0 {
		t.Fatalf("%d bytes reached the wire despite rejection", len(got))
	}
}

// TestSharedExecAllocBudget gates a broadcast's encode-once Exec in steady
// state: NewSharedExec, an outbox's Ref and both Releases reuse a pooled
// SharedExec, body buffer and all, and allocate nothing.
func TestSharedExecAllocBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts include the race detector's own; `make allocs` runs this without -race")
	}
	args := []attr.Value{attr.String(strings.Repeat("v", 64))}
	origin := couple.ObjectRef{Instance: "app-1", Path: "/hub"}
	if got := testing.AllocsPerRun(200, func() {
		se := NewSharedExec(1<<20, "changed", args, origin)
		se.Ref()
		se.Release()
		se.Release()
	}); got != 0 {
		t.Errorf("a broadcast's shared Exec allocates %.2f times, want 0", got)
	}
}

// Shared bodies must enforce the refcount discipline: releasing the last
// reference recycles the buffer, over-releasing panics.
func TestSharedExecRefcountPanics(t *testing.T) {
	se := NewSharedExec(1, "e", nil, couple.ObjectRef{})
	se.Ref()
	se.Release()
	se.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("over-release did not panic")
		}
	}()
	se.Release()
}
