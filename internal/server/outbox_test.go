package server

import (
	"net"
	"strings"
	"testing"
	"time"

	"cosoft/internal/couple"
	"cosoft/internal/obs"
	"cosoft/internal/wire"
)

// outboxPair builds an outbox writing into one end of an in-process pipe and
// returns the peer-side conn to read frames from. When peerBatch is set, the
// peer opts into the batch extension and speaks one frame first so the
// outbox's conn latches the capability before anything is queued (mirroring
// the real handshake, where the client's Hello precedes all fan-out).
func outboxPair(t *testing.T, peerBatch bool, limit, batchLimit int) (*outbox, *wire.Conn) {
	t.Helper()
	rawA, rawB := net.Pipe()
	t.Cleanup(func() { rawA.Close(); rawB.Close() })
	c, peer := wire.NewConn(rawA), wire.NewConn(rawB)
	if peerBatch {
		peer.EnableBatch()
		go func() { peer.Write(wire.Envelope{Seq: 1, Msg: wire.OK{}}) }()
		if _, err := c.Read(); err != nil {
			t.Fatalf("capability frame: %v", err)
		}
		if !c.BatchAware() {
			t.Fatal("conn did not latch the peer's batch capability")
		}
	}
	reg := obs.NewRegistry()
	o := newOutbox(c, reg.Gauge("depth"), limit, batchLimit, reg.Histogram("batch"), nil)
	return o, peer
}

// waitDrained polls until the outbox writer has taken every queued envelope
// into its in-flight slice and is (presumably) blocked writing it.
func waitDrained(t *testing.T, o *outbox, inflight int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		o.mu.Lock()
		ok := o.inflight == inflight && len(o.queue) == 0
		o.mu.Unlock()
		if ok {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("writer never took the backlog (want inflight=%d)", inflight)
}

// TestOutboxBlockedWriterDrainsBacklogAsOneFlush is the regression test for
// the per-envelope wakeup bug: envelopes that queue while the writer is
// blocked on a slow connection must be handed over as one slice on the next
// wakeup, which for a batch-aware peer means one packed frame, not N.
func TestOutboxBlockedWriterDrainsBacklogAsOneFlush(t *testing.T) {
	const queued = 5
	o, peer := outboxPair(t, true, 0, 8)
	defer o.close()

	// First envelope: the writer takes it and blocks in Write (net.Pipe has
	// no buffer), leaving the queue empty.
	o.send(wire.Envelope{Msg: wire.Exec{EventID: 100}})
	waitDrained(t, o, 1)
	// These pile up behind the blocked writer.
	for i := uint64(1); i <= queued; i++ {
		o.send(wire.Envelope{Msg: wire.Exec{EventID: 100 + i}})
	}

	// Unblock: the first frame is the single Exec the writer was holding.
	env, err := peer.Read()
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if m, ok := env.Msg.(wire.Exec); !ok || m.EventID != 100 {
		t.Fatalf("first frame = %T %+v, want the blocked single Exec", env.Msg, env.Msg)
	}
	// The entire backlog follows as one Batch frame, in queue order.
	env, err = peer.Read()
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	batch, ok := env.Msg.(wire.Batch)
	if !ok {
		t.Fatalf("second frame = %T, want one Batch for the whole backlog", env.Msg)
	}
	if len(batch.Envelopes) != queued {
		t.Fatalf("batch carries %d envelopes, want %d", len(batch.Envelopes), queued)
	}
	for i, inner := range batch.Envelopes {
		m, ok := inner.Msg.(wire.Exec)
		if !ok || m.EventID != 100+uint64(i)+1 {
			t.Fatalf("batch[%d] = %T %+v, want Exec in queue order", i, inner.Msg, inner.Msg)
		}
	}
	waitDrained(t, o, 0)
}

// TestOutboxLegacyPeerGetsSingles: with packing configured but the peer not
// batch-aware, the same blocked-writer backlog still drains in one wakeup but
// reaches the wire as individual frames in queue order.
func TestOutboxLegacyPeerGetsSingles(t *testing.T) {
	const queued = 4
	o, peer := outboxPair(t, false, 0, 8)
	defer o.close()

	for i := uint64(0); i < queued; i++ {
		o.send(wire.Envelope{Msg: wire.Exec{EventID: 200 + i}})
	}
	for i := uint64(0); i < queued; i++ {
		env, err := peer.Read()
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		m, ok := env.Msg.(wire.Exec)
		if !ok {
			t.Fatalf("frame %d = %T, want a single Exec for a legacy peer", i, env.Msg)
		}
		if m.EventID != 200+i {
			t.Fatalf("frame %d EventID = %d, want %d (queue order)", i, m.EventID, 200+i)
		}
	}
	waitDrained(t, o, 0)
}

// TestOutboxBatchLimitSplitsLongRuns: a backlog longer than the configured
// limit is split into consecutive Batch frames of at most limit records.
func TestOutboxBatchLimitSplitsLongRuns(t *testing.T) {
	const limit, queued = 3, 7
	o, peer := outboxPair(t, true, 0, limit)
	defer o.close()

	o.send(wire.Envelope{Msg: wire.Exec{EventID: 300}})
	waitDrained(t, o, 1)
	for i := uint64(1); i <= queued; i++ {
		o.send(wire.Envelope{Msg: wire.Exec{EventID: 300 + i}})
	}
	if env, err := peer.Read(); err != nil {
		t.Fatalf("read: %v", err)
	} else if _, ok := env.Msg.(wire.Exec); !ok {
		t.Fatalf("first frame = %T, want the blocked single Exec", env.Msg)
	}
	next := uint64(301)
	for sizes := []int{limit, limit, 1}; len(sizes) > 0; sizes = sizes[1:] {
		env, err := peer.Read()
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		batch, isBatch := env.Msg.(wire.Batch)
		if sizes[0] == 1 {
			// A run of one is not worth an envelope: it goes out plain.
			m, ok := env.Msg.(wire.Exec)
			if !ok || m.EventID != next {
				t.Fatalf("tail frame = %T %+v, want single Exec %d", env.Msg, env.Msg, next)
			}
			next++
			continue
		}
		if !isBatch || len(batch.Envelopes) != sizes[0] {
			t.Fatalf("frame = %T (%d records), want Batch of %d", env.Msg, len(batch.Envelopes), sizes[0])
		}
		for _, inner := range batch.Envelopes {
			if m := inner.Msg.(wire.Exec); m.EventID != next {
				t.Fatalf("EventID = %d, want %d", m.EventID, next)
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
	o, peer := outboxPair(t, true, 0, 8)
	defer o.close()

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
	o, peer := outboxPair(t, false, 2, 8)
	defer o.close()

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
	deadline := time.Now().Add(5 * time.Second)
	for !o.overLimitSince().IsZero() {
		if time.Now().After(deadline) {
			t.Fatal("overSince not cleared while the flush was still draining")
		}
		time.Sleep(time.Millisecond)
	}
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
	o, peer := outboxPair(t, true, 0, 8)
	defer o.close()
	received := make(chan int)
	go func() {
		defer close(received)
		for {
			env, err := peer.Read()
			if err != nil {
				return
			}
			n := 1
			if b, ok := env.Msg.(wire.Batch); ok {
				n = len(b.Envelopes)
			}
			received <- n
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
