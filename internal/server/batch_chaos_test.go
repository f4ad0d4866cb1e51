package server_test

import (
	"sync"
	"testing"
	"time"

	"cosoft/internal/client"
	"cosoft/internal/clock"
	"cosoft/internal/netsim"
	"cosoft/internal/server"
	"cosoft/internal/testbed"
	"cosoft/internal/widget"
)

// Batch-mode chaos scenarios: the packed fan-out path under injected
// faults. Every other chaos scenario (hang, partition, eviction, reconnect,
// mid-event disconnect) also runs against a batching server with batch-aware
// clients: that is the test bed's default.

// TestChaosBatchedDupDelayPreservesEventOrder drives a sequence of events
// through a batching server over a link that duplicates every frame and
// delays writes: the member must observe the events in origin order (each
// possibly more than once, since duplicated Execs re-apply), and the group
// must converge unlocked after every round.
func TestChaosBatchedDupDelayPreservesEventOrder(t *testing.T) {
	sched := netsim.Schedule{Seed: 23, DupProb: 1, Delay: time.Millisecond, Jitter: 2 * time.Millisecond}
	srv, bed := newBed(t, server.Options{BatchLimit: 8})
	spec := `textfield note value=""`
	a := bed.Dial(testbed.Member{AppType: "editor", User: "alice", Spec: spec, Fault: sched})

	var mu sync.Mutex
	var applied []string
	bopts := client.Options{
		OnRemoteEvent: func(e *widget.Event) {
			mu.Lock()
			applied = append(applied, e.Args[0].AsString())
			mu.Unlock()
		},
	}
	b := bed.Dial(testbed.Member{AppType: "editor", User: "bob", Spec: spec, Fault: sched, Options: bopts})

	mustOK(t, a.Declare("/note"))
	mustOK(t, b.Declare("/note"))
	mustOK(t, a.Couple("/note", b.Ref("/note")))
	testbed.Wait(t, "coupling mirrored", func() bool { return a.Coupled("/note") && b.Coupled("/note") })

	want := []string{"v1", "v2", "v3", "v4", "v5", "v6", "v7", "v8"}
	for _, v := range want {
		// Wait out the previous round first: dispatching into a still-locked
		// group would be rejected, which is contention, not corruption.
		testbed.Wait(t, "group idle before "+v, func() bool { return srv.Stats().PendingEvents == 0 })
		testbed.Wait(t, "group unlocked before "+v, func() bool { return !disabled(t, a, "/note") })
		dispatch(t, a, "/note", v)
	}
	testbed.Wait(t, "final value at B", func() bool {
		return attrOf(t, b, "/note", widget.AttrValue).AsString() == want[len(want)-1]
	})
	testbed.Wait(t, "all events resolved", func() bool { return srv.Stats().PendingEvents == 0 })
	testbed.Wait(t, "group unlocked", func() bool { return !disabled(t, b, "/note") })

	// Collapse adjacent duplicates (a duplicated frame re-applies the same
	// event); what remains must be exactly the origin's sequence.
	mu.Lock()
	var seq []string
	for _, v := range applied {
		if len(seq) == 0 || seq[len(seq)-1] != v {
			seq = append(seq, v)
		}
	}
	mu.Unlock()
	if len(seq) != len(want) {
		t.Fatalf("B observed sequence %v, want %v", seq, want)
	}
	for i := range want {
		if seq[i] != want[i] {
			t.Fatalf("B observed sequence %v, want %v (diverges at %d)", seq, want, i)
		}
	}
}

// TestChaosBatchStragglerDoesNotPoisonCoalescedAcks runs the deadline
// scenario against the coalescer: bob holds two members of the group (his
// two Execs arrive packed and he acks them in one BatchAck), while carol
// hangs and is dropped by the event deadline. The straggler's timeout must
// not disturb the coalesced acknowledgements of her batch-mates: the event
// resolves, the group unlocks, and a follow-up event converges everywhere.
func TestChaosBatchStragglerDoesNotPoisonCoalescedAcks(t *testing.T) {
	clk := clock.NewManual()
	srv, bed := newBed(t, server.Options{BatchLimit: 8, Clock: clk})
	a := bed.Dial(testbed.Member{AppType: "editor", User: "alice", Spec: `textfield note value=""`})
	bspec := `textfield x value=""
textfield y value=""`
	b := bed.Dial(testbed.Member{AppType: "editor", User: "bob", Spec: bspec})
	bFault := bed.Fault(b)
	c := bed.Dial(testbed.Member{AppType: "editor", User: "carol", Spec: `textfield note value=""`})
	cFault := bed.Fault(c)

	mustOK(t, a.Declare("/note"))
	mustOK(t, b.Declare("/x"))
	mustOK(t, b.Declare("/y"))
	mustOK(t, c.Declare("/note"))
	mustOK(t, a.Couple("/note", b.Ref("/x")))
	mustOK(t, a.Couple("/note", b.Ref("/y")))
	mustOK(t, a.Couple("/note", c.Ref("/note")))
	testbed.Wait(t, "group mirrored", func() bool {
		return a.Coupled("/note") && b.Coupled("/x") && b.Coupled("/y") && c.Coupled("/note")
	})

	// Wedge both members and park a filler broadcast in front of them, so
	// their outbox writers are already blocked mid-write when the event
	// fans out; then restore only bob. His SetLocks and two Execs flush as
	// one packed frame, and he answers the adjacent Execs with a single
	// coalesced BatchAck. Carol stays hung past the deadline.
	bFault.Hang()
	cFault.Hang()
	mustOK(t, a.SendCommand("filler", nil))
	dispatch(t, a, "/note", "v1")
	testbed.Wait(t, "fan-out queued", func() bool { return srv.Stats().ExecsSent >= 3 })
	bFault.Restore()

	testbed.Wait(t, "bob applies both members", func() bool {
		return attrOf(t, b, "/x", widget.AttrValue).AsString() == "v1" &&
			attrOf(t, b, "/y", widget.AttrValue).AsString() == "v1"
	})
	testbed.Wait(t, "bob's acks arrive coalesced", func() bool {
		return srv.Stats().AcksCoalesced >= 2
	})
	testbed.AdvanceUntil(t, clk, sweepStep, "deadline drops the straggler", func() bool {
		st := srv.Stats()
		return st.EventTimeouts >= 1 && st.PendingEvents == 0
	})
	testbed.Wait(t, "group unlocked", func() bool {
		return !disabled(t, b, "/x") && !disabled(t, b, "/y")
	})

	// The group lock is free: the next event converges everywhere, including
	// at the recovered straggler.
	cFault.Restore()
	dispatch(t, a, "/note", "v2")
	testbed.Wait(t, "follow-up event converges", func() bool {
		return attrOf(t, b, "/x", widget.AttrValue).AsString() == "v2" &&
			attrOf(t, b, "/y", widget.AttrValue).AsString() == "v2" &&
			attrOf(t, c, "/note", widget.AttrValue).AsString() == "v2"
	})
	testbed.Wait(t, "everything resolved", func() bool { return srv.Stats().PendingEvents == 0 })
}
