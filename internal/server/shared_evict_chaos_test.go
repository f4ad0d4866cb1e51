package server_test

import (
	"testing"
	"time"

	"cosoft/internal/faultnet"
	"cosoft/internal/server"
	"cosoft/internal/testbed"
	"cosoft/internal/wire"
)

// TestChaosEvictionMidBroadcastReleasesSharedBody hangs a coupled member,
// broadcasts an event whose shared-body Exec wedges in the member's outbox,
// then floods the backlog until the sweeper evicts the member. The eviction
// must drop the queued shared-body references exactly once: a leak keeps
// wire.LiveSharedBodies above zero forever, a double release panics the
// writer — and -race audits the release ordering against the state loop.
func TestChaosEvictionMidBroadcastReleasesSharedBody(t *testing.T) {
	srv, bed := newBed(t, server.Options{
		OutboxLimit:   8,
		OutboxGrace:   60 * time.Millisecond,
		EventDeadline: 200 * time.Millisecond,
	})
	spec := `textfield note value=""`
	a := bed.Dial(testbed.Member{AppType: "editor", User: "alice", Spec: spec})
	b := bed.Dial(testbed.Member{AppType: "editor", User: "bob", Spec: spec, Fault: &faultnet.Schedule{}})
	fc := bed.Fault(b)

	mustOK(t, a.Declare("/note"))
	mustOK(t, b.Declare("/note"))
	mustOK(t, a.Couple("/note", b.Ref("/note")))
	testbed.Wait(t, "coupling mirrored", func() bool { return a.Coupled("/note") && b.Coupled("/note") })

	fc.Hang() // bob's receive window closes for good

	// The broadcast's Exec is encoded once and queued to bob's wedged
	// outbox, where its shared-body reference is now stuck.
	dispatch(t, a, "/note", "v1")
	// Commands broadcast without group locking, so the flood drives bob's
	// backlog over the limit while the shared body is still queued.
	for i := 0; i < 30; i++ {
		mustOK(t, a.SendCommand("noop", nil))
	}
	testbed.Wait(t, "slow member evicted mid-broadcast", func() bool {
		st := srv.Stats()
		return st.Evictions >= 1 && st.Instances == 1 && st.PendingEvents == 0
	})
	testbed.Wait(t, "shared body released exactly once", func() bool {
		return wire.LiveSharedBodies() == 0
	})
}
