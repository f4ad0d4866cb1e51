package server

import (
	"fmt"
	"testing"

	"cosoft/internal/attr"
	"cosoft/internal/couple"
	"cosoft/internal/obs"
	"cosoft/internal/testbed"
	"cosoft/internal/widget"
	"cosoft/internal/wire"
)

// waitNoLiveBodies polls until every shared broadcast body in the process
// has been released — the quiescence invariant of the encode-once path.
func waitNoLiveBodies(t *testing.T) {
	t.Helper()
	testbed.Wait(t, "every shared body released (LiveSharedBodies = 0 at quiescence)", func() bool {
		return wire.LiveSharedBodies() == 0
	})
}

// TestOutboxDeathReleasesSharedBodiesExactlyOnce is the regression test for
// the eviction decref bug class: when a connection dies (the eviction path
// kills it out from under the writer) while shared-body records are both
// in flight and still queued, every reference must be dropped exactly once.
// A double release panics in SharedExec.Release, a leak trips the liveBodies
// oracle — and -race checks the release ordering.
func TestOutboxDeathReleasesSharedBodiesExactlyOnce(t *testing.T) {
	o, peer := outboxPair(t, 8)
	se := wire.NewSharedExec(7, "set", nil, couple.ObjectRef{Instance: "a", Path: "/n"})

	// The writer takes the first record and blocks writing it (net.Pipe has
	// no buffer and nobody reads) — a broadcast caught mid-flush.
	o.sendShared(wire.Envelope{}, "/m0", se)
	waitDrained(t, o, 1)
	// The rest of the fan-out piles up behind the blocked writer.
	for i := 1; i <= 4; i++ {
		o.sendShared(wire.Envelope{}, fmt.Sprintf("/m%d", i), se)
	}
	se.Release() // creator is done enqueueing

	// Kill the connection out from under the writer, exactly as dropClient
	// does on eviction: the blocked write errors, flush releases the record
	// it held, and the writer loop releases the still-queued backlog.
	peer.Close()
	o.close()

	waitNoLiveBodies(t)

	// Sends after death must not take references the dead writer would
	// never release.
	o.sendShared(wire.Envelope{}, "/late", se)
	waitNoLiveBodies(t)
}

// relayRig is a server of opts on a bed of raw peers, with a and b declaring
// /a and coupled, and u declaring an uncoupled /u.
func relayRig(t *testing.T, opts Options) (srv *Server, a, b, u *testbed.Peer) {
	t.Helper()
	srv = New(opts)
	bed := testbed.New(t, srv, testbed.Options{})
	peer := func(user, path string) *testbed.Peer {
		p := bed.Raw(wire.Register{AppType: "app", User: user, Host: "h"})
		p.MustOK(wire.Declare{Path: path, Class: "textfield"})
		return p
	}
	a, b, u = peer("a", "/a"), peer("b", "/a"), peer("u", "/u")
	a.MustOK(wire.Couple{From: ref(a, "/a"), To: ref(b, "/a")})
	return srv, a, b, u
}

// An Event's relay body is released by every outcome that does not broadcast
// it: a denied event (its group is locked by an event still waiting for its
// ack) and an event on an uncoupled object.
func TestDeniedAndUncoupledEventsReleaseRelay(t *testing.T) {
	_, a, b, u := relayRig(t, Options{})
	dispatch(a, "/a", "one")
	exec := testbed.Next[wire.Exec](b) // and not acknowledged yet
	if res := testbed.Next[wire.EventResult](a); !res.OK {
		t.Fatalf("first event refused: %s", res.Reason)
	}
	dispatch(a, "/a", "two")
	if res := testbed.Next[wire.EventResult](a); res.OK {
		t.Fatal("an event on a locked group was accepted")
	}
	waitNoLiveBodies(t)
	b.Send(wire.ExecAck{EventID: exec.EventID})
	nextUnlock(t, b)

	dispatch(u, "/u", "alone")
	if res := testbed.Next[wire.EventResult](u); !res.OK {
		t.Fatalf("uncoupled event refused: %s", res.Reason)
	}
	waitNoLiveBodies(t)
}

// An Event read through Read has its relay body released once its Args are
// decoded, and one the server boxes for the flight recorder (and whose
// broadcast the recorder materializes, member by member) still goes out and
// is released as usual.
func TestReadAndRecordedEventsReleaseRelay(t *testing.T) {
	x, y := wire.Pipe()
	defer x.Close()
	defer y.Close()
	sent := wire.Event{Path: "/a", Name: widget.EventChanged, Args: []attr.Value{attr.String("read")}}
	go x.Write(wire.Envelope{Msg: sent}) //nolint:errcheck
	env, err := y.Read()
	if err != nil {
		t.Fatal(err)
	}
	if got := env.Msg.(wire.Event); len(got.Args) != 1 || !got.Args[0].Equal(sent.Args[0]) {
		t.Fatalf("Read returned %#v", got)
	}
	if n := wire.LiveSharedBodies(); n != 0 {
		t.Fatalf("LiveSharedBodies = %d after Read, want 0", n)
	}

	flight := obs.NewFlightRecorder(0)
	_, a, b, _ := relayRig(t, Options{Flight: flight})
	dispatch(a, "/a", "recorded")
	exec := testbed.Next[wire.Exec](b)
	b.Send(wire.ExecAck{EventID: exec.EventID})
	nextUnlock(t, b)
	waitNoLiveBodies(t)
	recorded := func(conn couple.InstanceID, dir, typ, note string) bool {
		for _, e := range flight.Snapshot()[string(conn)] {
			if e.Dir == dir && e.Type == typ && e.Note == note {
				return true
			}
		}
		return false
	}
	if !recorded(a.ID, "recv", "Event", "/a "+widget.EventChanged) || !recorded(b.ID, "send", "Exec", "/a "+widget.EventChanged) {
		t.Fatalf("flight recorder missed the event: %v", flight.Snapshot())
	}
}
