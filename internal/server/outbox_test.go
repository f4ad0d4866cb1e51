package server

import (
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"cosoft/internal/couple"
	"cosoft/internal/obs"
	"cosoft/internal/testbed"
	"cosoft/internal/wire"
)

// outboxPair builds an outbox writing into one end of an in-process pipe and
// returns the peer-side conn to read frames from. The cleanup closes the pipe
// before it waits for the outbox writer, which a failed test may have left
// blocked writing frames nobody reads.
func outboxPair(t *testing.T, limit, batchLimit int) (*outbox, *wire.Conn) {
	t.Helper()
	rawA, rawB := net.Pipe()
	var o *outbox
	t.Cleanup(func() {
		rawA.Close()
		rawB.Close()
		if o != nil {
			o.close()
		}
	})
	c, peer := wire.NewConn(rawA), wire.NewConn(rawB)
	reg := obs.NewRegistry()
	o = newOutbox(c, reg.Gauge("depth"), limit, batchLimit, reg.Histogram("batch"), nil)
	return o, peer
}

// readFrame reads the records of the next frame the outbox wrote: one Read,
// then one more for as long as the peer's Conn has records of that frame
// pending.
func readFrame(t *testing.T, peer *wire.Conn) []wire.Envelope {
	t.Helper()
	var frame []wire.Envelope
	for more := true; more; more = peer.Pending() {
		env, err := peer.Read()
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		frame = append(frame, env)
	}
	return frame
}

// waitDrained waits until the outbox writer has taken every queued envelope
// into its in-flight slice and is (presumably) blocked writing it.
func waitDrained(t *testing.T, o *outbox, inflight int) {
	t.Helper()
	testbed.Wait(t, fmt.Sprintf("the writer to take the backlog (inflight=%d)", inflight), func() bool {
		o.mu.Lock()
		defer o.mu.Unlock()
		return o.inflight == inflight && len(o.queue) == 0
	})
}

// TestOutboxBlockedWriterDrainsBacklogAsOneFlush is the regression test for
// the per-envelope wakeup bug: envelopes that queue while the writer is
// blocked on a slow connection must be handed over as one slice on the next
// wakeup, which means one packed frame, not N.
func TestOutboxBlockedWriterDrainsBacklogAsOneFlush(t *testing.T) {
	const queued = 5
	o, peer := outboxPair(t, 0, 8)

	// First envelope: the writer takes it and blocks in Write (net.Pipe has
	// no buffer), leaving the queue empty.
	o.send(wire.Envelope{Msg: wire.Exec{EventID: 100}})
	waitDrained(t, o, 1)
	// These pile up behind the blocked writer.
	for i := uint64(1); i <= queued; i++ {
		o.send(wire.Envelope{Msg: wire.Exec{EventID: 100 + i}})
	}

	// Unblock: the first frame is the single Exec the writer was holding.
	first := readFrame(t, peer)
	if m, ok := first[0].Msg.(wire.Exec); len(first) != 1 || !ok || m.EventID != 100 {
		t.Fatalf("first frame = %+v, want the blocked single Exec", first)
	}
	// The entire backlog follows as one Batch frame, in queue order.
	batch := readFrame(t, peer)
	if len(batch) != queued {
		t.Fatalf("second frame carries %d records, want one Batch of the whole backlog (%d)", len(batch), queued)
	}
	for i, inner := range batch {
		m, ok := inner.Msg.(wire.Exec)
		if !ok || m.EventID != 100+uint64(i)+1 {
			t.Fatalf("batch[%d] = %T %+v, want Exec in queue order", i, inner.Msg, inner.Msg)
		}
	}
	waitDrained(t, o, 0)
}

// TestOutboxBatchLimitSplitsLongRuns: a backlog longer than the configured
// limit is split into consecutive Batch frames of at most limit records.
func TestOutboxBatchLimitSplitsLongRuns(t *testing.T) {
	const limit, queued = 3, 7
	o, peer := outboxPair(t, 0, limit)

	o.send(wire.Envelope{Msg: wire.Exec{EventID: 300}})
	waitDrained(t, o, 1)
	for i := uint64(1); i <= queued; i++ {
		o.send(wire.Envelope{Msg: wire.Exec{EventID: 300 + i}})
	}
	if first := readFrame(t, peer); len(first) != 1 {
		t.Fatalf("first frame = %+v, want the blocked single Exec", first)
	} else if _, ok := first[0].Msg.(wire.Exec); !ok {
		t.Fatalf("first frame = %T, want the blocked single Exec", first[0].Msg)
	}
	// Full runs go out as Batch frames of limit records; a run of one is not
	// worth an envelope and goes out plain.
	next := uint64(301)
	for _, size := range []int{limit, limit, 1} {
		frame := readFrame(t, peer)
		if len(frame) != size {
			t.Fatalf("frame of %d records, want %d", len(frame), size)
		}
		for _, rec := range frame {
			if m, ok := rec.Msg.(wire.Exec); !ok || m.EventID != next {
				t.Fatalf("record = %T %+v, want Exec %d", rec.Msg, rec.Msg, next)
			}
			next++
		}
	}
	waitDrained(t, o, 0)
}

// TestOutboxOversizedBatchFallsBackToSingles is the regression test for the
// frame-size teardown bug: a run whose packed Batch body would exceed
// wire.MaxFrame must still reach the peer — split down to singles if need
// be — instead of being treated as a broken connection.
func TestOutboxOversizedBatchFallsBackToSingles(t *testing.T) {
	o, peer := outboxPair(t, 0, 8)

	// Each envelope fits comfortably in a frame of its own; packed together
	// their one Batch body would overflow MaxFrame.
	big := strings.Repeat("x", wire.MaxFrame/2+1<<20)
	o.send(wire.Envelope{Msg: wire.Exec{EventID: 400}})
	waitDrained(t, o, 1)
	o.send(wire.Envelope{Msg: wire.Err{Text: big}})
	o.send(wire.Envelope{Msg: wire.Err{Text: big}})

	if env, err := peer.Read(); err != nil {
		t.Fatalf("read: %v", err)
	} else if _, ok := env.Msg.(wire.Exec); !ok {
		t.Fatalf("first frame = %T, want the blocked single Exec", env.Msg)
	}
	for i := 0; i < 2; i++ {
		env, err := peer.Read()
		if err != nil {
			t.Fatalf("read big frame %d: %v", i, err)
		}
		m, ok := env.Msg.(wire.Err)
		if !ok || len(m.Text) != len(big) {
			t.Fatalf("big frame %d = %T, want the full single Err", i, env.Msg)
		}
	}
	waitDrained(t, o, 0)

	// The connection survived the oversized run: later traffic still flows.
	o.send(wire.Envelope{Msg: wire.Exec{EventID: 401}})
	env, err := peer.Read()
	if err != nil {
		t.Fatalf("read after fallback: %v", err)
	}
	if m, ok := env.Msg.(wire.Exec); !ok || m.EventID != 401 {
		t.Fatalf("frame after fallback = %T %+v", env.Msg, env.Msg)
	}
}

// TestOutboxFlushClearsOverSinceMidFlush: eviction accounting must track the
// true backlog while a long flush is still draining. Once in-flight plus
// queued falls back to the limit the over-limit stopwatch clears, even
// though the writer is still blocked on a later chunk of the same flush.
func TestOutboxFlushClearsOverSinceMidFlush(t *testing.T) {
	// Packing off, so every record of the follow-up flush is a chunk of
	// its own.
	o, peer := outboxPair(t, 2, 1)

	o.send(wire.Envelope{Msg: wire.Exec{EventID: 500}})
	waitDrained(t, o, 1)
	for i := uint64(1); i <= 3; i++ {
		o.send(wire.Envelope{Msg: wire.Exec{EventID: 500 + i}})
	}
	if o.overLimitSince().IsZero() {
		t.Fatal("backlog over the limit but overSince not set")
	}

	// Drain the blocked single plus the first chunk of the follow-up flush:
	// the remaining backlog (two in flight) is then back at the limit, so
	// the stopwatch must clear while that flush is still blocked on its
	// next chunk.
	for i := 0; i < 2; i++ {
		if _, err := peer.Read(); err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
	}
	testbed.Wait(t, "overSince cleared while the flush is still draining", func() bool { return o.overLimitSince().IsZero() })
	for i := 0; i < 2; i++ {
		if _, err := peer.Read(); err != nil {
			t.Fatalf("tail read %d: %v", i, err)
		}
	}
	waitDrained(t, o, 0)
}

// TestOutboxDrainLeavesNoReferences: the two backing arrays an outbox swaps
// between its queue and its writer must come back from every flush empty —
// no slot still referencing a message or a shared body — and with every
// shared body released.
func TestOutboxDrainLeavesNoReferences(t *testing.T) {
	const rounds, perRound = 6, 5
	o, peer := outboxPair(t, 0, 8)
	received := make(chan int)
	go func() {
		defer close(received)
		for {
			if _, err := peer.Read(); err != nil {
				return
			}
			received <- 1
		}
	}()
	for round := 0; round < rounds; round++ {
		se := wire.NewSharedExec(uint64(round+1), "changed", nil, couple.ObjectRef{Instance: "a", Path: "/n"})
		o.send(wire.Envelope{Msg: wire.SetLocks{Paths: []string{"/m"}, Locked: true}})
		for i := 1; i < perRound; i++ {
			o.sendShared(wire.Envelope{}, "/m", se)
		}
		se.Release()
		for got := 0; got < perRound; {
			select {
			case n := <-received:
				got += n
			case <-time.After(5 * time.Second):
				t.Fatalf("round %d: peer received %d of %d records", round, got, perRound)
			}
		}
		waitDrained(t, o, 0)
		o.mu.Lock()
		for name, arr := range map[string][]wire.Outgoing{"queue": o.queue, "spare": o.spare} {
			for i, rec := range arr[:cap(arr)] {
				if rec.Shared != nil || rec.Env.Msg != nil || rec.Target != "" {
					t.Errorf("round %d: %s slot %d still references %+v after the drain", round, name, i, rec)
				}
			}
		}
		o.mu.Unlock()
		waitNoLiveBodies(t)
	}
	o.mu.Lock()
	if o.queue == nil && o.spare == nil {
		t.Error("no backing array survived the drains: the outbox is not recycling")
	}
	o.mu.Unlock()
}
