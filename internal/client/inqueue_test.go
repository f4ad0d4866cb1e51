package client

import (
	"reflect"
	"testing"

	"cosoft/internal/wire"
)

// TestInqueueDrainLeavesNoReferences: once everything pushed has been popped,
// no slot of the backing array still references a message, and the next push
// reuses the array from its start. The records are pushed in frames of two,
// and only the second pop of each says it ended its frame.
func TestInqueueDrainLeavesNoReferences(t *testing.T) {
	q := newInqueue()
	const n = 40
	firstCap := 0
	rec := func(i uint64) wire.Record {
		return wire.Record{Envelope: wire.Envelope{Seq: i, Msg: wire.Pong{Nonce: i}}, Type: wire.TExec,
			Exec: wire.Exec{EventID: i, Name: "changed"}}
	}
	for round := 0; round < 3; round++ {
		for i := uint64(0); i < n; i += 2 {
			if !q.push(rec(i), rec(i+1)) {
				t.Fatal("push on an open queue refused")
			}
		}
		for i := uint64(0); i < n; i++ {
			rec, end, ok := q.pop()
			if !ok || rec.Seq != i || rec.Exec.EventID != i || end != (i%2 == 1) {
				t.Fatalf("pop %d = %+v, end %v, ok %v", i, rec, end, ok)
			}
		}
		if q.head != 0 || len(q.q) != 0 {
			t.Fatalf("drained queue sits at head=%d len=%d, want 0/0", q.head, len(q.q))
		}
		for i, rec := range q.q[:cap(q.q)] {
			if !reflect.ValueOf(rec).IsZero() {
				t.Fatalf("slot %d still holds %+v after the drain", i, rec)
			}
		}
		if round == 0 {
			firstCap = cap(q.q)
		} else if cap(q.q) != firstCap {
			t.Errorf("round %d left a %d-slot array, the first a %d-slot one: not reused", round, cap(q.q), firstCap)
		}
	}
}

// TestInqueueSteadyBacklogStaysBounded: a consumer that keeps up without ever
// emptying the queue must not make it grow — the consumed prefix is reclaimed
// — and order is preserved across the reclaim.
func TestInqueueSteadyBacklogStaysBounded(t *testing.T) {
	q := newInqueue()
	const backlog = 3
	next := uint64(0)
	for i := uint64(0); i < backlog; i++ {
		q.push(seqRecord(i))
	}
	for i := uint64(backlog); i < 10000; i++ {
		q.push(seqRecord(i))
		rec, _, _ := q.pop()
		if rec.Seq != next {
			t.Fatalf("popped seq %d, want %d", rec.Seq, next)
		}
		next++
	}
	if c := cap(q.q); c > 4*(backlog+1) {
		t.Errorf("a backlog of %d grew the queue to %d slots", backlog, c)
	}
}

// TestInqueuePushesAFrameAsOneUnit: the records of one frame pushed together
// are popped in order behind what was queued before them, and each frame's
// last record, and only it, ends its frame — so the dispatch loop flushes an
// ack run at every frame's end and never part-way through a packed frame.
func TestInqueuePushesAFrameAsOneUnit(t *testing.T) {
	q := newInqueue()
	next := uint64(0)
	for round := uint64(0); round < 50; round++ {
		q.push(seqRecord(3 * round))
		q.push(seqRecord(3*round+1), seqRecord(3*round+2))
		for i := 0; i < 3; i++ {
			rec, end, ok := q.pop()
			if !ok || rec.Seq != next || end != (i != 1) {
				t.Fatalf("round %d pop %d = seq %d, end %v, ok %v; want seq %d", round, i, rec.Seq, end, ok, next)
			}
			next++
		}
	}
}

// TestInqueueShedsBurstCapacity: the array a burst grew is dropped once the
// queue runs empty, not kept for the life of the client.
func TestInqueueShedsBurstCapacity(t *testing.T) {
	q := newInqueue()
	for i := 0; i < 4*maxIdleInqueue; i++ {
		q.push(seqRecord(uint64(i)))
	}
	for i := 0; i < 4*maxIdleInqueue; i++ {
		q.pop()
	}
	if c := cap(q.q); c > maxIdleInqueue {
		t.Errorf("empty queue keeps %d slots after a burst, cap %d", c, maxIdleInqueue)
	}
}

// seqRecord is a record told apart by its sequence number alone.
func seqRecord(seq uint64) wire.Record {
	return wire.Record{Envelope: wire.Envelope{Seq: seq}}
}
