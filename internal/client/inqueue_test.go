package client

import (
	"testing"

	"cosoft/internal/wire"
)

// TestInqueueDrainLeavesNoReferences: once everything pushed has been popped,
// no slot of the backing array still references a message, and the next push
// reuses the array from its start.
func TestInqueueDrainLeavesNoReferences(t *testing.T) {
	q := newInqueue()
	const n = 40
	firstCap := 0
	for round := 0; round < 3; round++ {
		for i := uint64(0); i < n; i++ {
			if !q.push(wire.Envelope{Seq: i, Msg: wire.ExecAck{EventID: i}}) {
				t.Fatal("push on an open queue refused")
			}
		}
		for i := uint64(0); i < n; i++ {
			env, ok := q.pop()
			if !ok || env.Seq != i {
				t.Fatalf("pop %d = %+v, %v", i, env, ok)
			}
		}
		if q.head != 0 || len(q.q) != 0 {
			t.Fatalf("drained queue sits at head=%d len=%d, want 0/0", q.head, len(q.q))
		}
		for i, env := range q.q[:cap(q.q)] {
			if env != (wire.Envelope{}) {
				t.Fatalf("slot %d still holds %+v after the drain", i, env)
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
		q.push(wire.Envelope{Seq: i})
	}
	for i := uint64(backlog); i < 10000; i++ {
		q.push(wire.Envelope{Seq: i})
		env, _ := q.pop()
		if env.Seq != next {
			t.Fatalf("popped seq %d, want %d", env.Seq, next)
		}
		next++
	}
	if c := cap(q.q); c > 4*(backlog+1) {
		t.Errorf("a backlog of %d grew the queue to %d slots", backlog, c)
	}
}

// TestInqueueShedsBurstCapacity: the array a burst grew is dropped once the
// queue runs empty, not kept for the life of the client.
func TestInqueueShedsBurstCapacity(t *testing.T) {
	q := newInqueue()
	for i := 0; i < 4*maxIdleInqueue; i++ {
		q.push(wire.Envelope{Seq: uint64(i)})
	}
	for i := 0; i < 4*maxIdleInqueue; i++ {
		q.pop()
	}
	if c := cap(q.q); c > maxIdleInqueue {
		t.Errorf("empty queue keeps %d slots after a burst, cap %d", c, maxIdleInqueue)
	}
}
