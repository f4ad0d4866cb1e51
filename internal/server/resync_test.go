package server_test

// The way back in for a member the server dropped: it resumes as a fresh
// registration, re-couples and pulls its state from a surviving peer, and
// the pull holds its group's floor until the state has landed, so the server
// denies every event of the group meanwhile.

import (
	"errors"
	"strings"
	"testing"
	"time"

	"cosoft/internal/attr"
	"cosoft/internal/client"
	"cosoft/internal/clock"
	"cosoft/internal/couple"
	"cosoft/internal/server"
	"cosoft/internal/testbed"
	"cosoft/internal/widget"
	"cosoft/internal/wire"
)

// textState is a textfield /x holding v, as a raw peer serves it.
func textState(v string) widget.TreeState {
	return widget.TreeState{Class: "textfield", Name: "x", Attrs: attr.Set{widget.AttrValue: attr.String(v)}}
}

// rawMember registers a raw peer with a declared textfield /x.
func rawMember(bed *testbed.Bed, user string) (*testbed.Peer, couple.ObjectRef) {
	p := bed.Raw(wire.Register{AppType: "app", User: user})
	p.MustOK(wire.Declare{Path: "/x", Class: "textfield"})
	return p, couple.ObjectRef{Instance: p.ID, Path: "/x"}
}

// resyncErr waits for the error a member's OnResync reported on ch.
func resyncErr(t *testing.T, ch <-chan error) (err error) {
	t.Helper()
	testbed.Wait(t, "the member resynced", func() bool {
		select {
		case err = <-ch:
			return true
		default:
			return false
		}
	})
	return err
}

// TestDroppedResyncGatesDispatch: B falls silent and the liveness sweep drops
// it; meanwhile its peer P edits; then B resumes as dropped, re-couples and
// pulls P's state, and P holds the request. While the pull is out the server
// denies B's event ("group locked": the pull holds the floor), and B undoes
// its feedback, since the pull would overwrite it. Once P serves its state B
// holds P's value, and B's next event is accepted and reaches P.
func TestDroppedResyncGatesDispatch(t *testing.T) {
	clk := clock.NewManual()
	srv, bed := newBed(t, server.Options{Clock: clk})
	resynced := make(chan error, 1)
	b := bed.Dial(testbed.Member{AppType: "app", User: "bob", Spec: `textfield x value=""`,
		Reconnect: &client.ReconnectOptions{OnResync: func(err error) { resynced <- err }}})
	p, px := rawMember(bed, "peer")
	mustOK(t, b.Declare("/x"))
	mustOK(t, b.Couple("/x", px))
	edit := func(v string) error {
		return b.DispatchChecked(&widget.Event{Path: "/x", Name: widget.EventChanged, Args: []attr.Value{attr.String(v)}})
	}
	mustOK(t, edit("v1"))
	p.Send(wire.ExecAck{EventID: testbed.Next[wire.Exec](p).EventID})

	bed.Fault(b).Blackhole()
	testbed.AdvanceUntil(t, clk, sweepStep, "B declared dead", func() bool { return srv.Stats().LivenessTimeouts > 0 })
	req := testbed.Next[wire.StateRequest](p) // B's pull, which P holds

	err := edit("mine")
	if !errors.Is(err, client.ErrRejected) || !strings.Contains(err.Error(), "group locked") {
		t.Fatalf("B's event while its pull is out: %v, want the server to deny it: group locked", err)
	}
	if got := attrOf(t, b, "/x", widget.AttrValue).AsString(); got != "v1" {
		t.Errorf("B shows %q after its refused event, want v1 untouched", got)
	}

	p.Send(wire.StateReply{RequestID: req.RequestID, OK: true, State: textState("p-edit")})
	if err := resyncErr(t, resynced); err != nil {
		t.Fatalf("B's resync: %v", err)
	}
	testbed.Wait(t, "P's state at B", func() bool { return attrOf(t, b, "/x", widget.AttrValue).AsString() == "p-edit" })
	mustOK(t, edit("after"))
	if got := testbed.Next[wire.Exec](p); got.Args[0].AsString() != "after" {
		t.Errorf("P was sent %v, want B's accepted event", got.Args)
	} else {
		p.Send(wire.ExecAck{EventID: got.EventID})
	}
}

// TestPeerEventWaitsOutAPull: a peer's event never overwrites a dropped
// member's pull. B's pull from P is out (P holds the request) when Q, the
// group's third member, edits: the server denies Q's event, since the pull
// holds the floor. Once P's state has landed at B, Q's event is granted and
// reaches B after the state it would otherwise have raced.
func TestPeerEventWaitsOutAPull(t *testing.T) {
	clk := clock.NewManual()
	srv, bed := newBed(t, server.Options{Clock: clk})
	resynced := make(chan error, 1)
	b := bed.Dial(testbed.Member{AppType: "app", User: "bob", Spec: `textfield x value=""`,
		Reconnect: &client.ReconnectOptions{OnResync: func(err error) { resynced <- err }}})
	p, px := rawMember(bed, "p")
	q, qx := rawMember(bed, "q")
	mustOK(t, b.Declare("/x"))
	mustOK(t, b.Couple("/x", px))
	p.MustOK(wire.Couple{From: px, To: qx})
	testbed.Wait(t, "B mirrors the group", func() bool { return len(b.CO("/x")) == 2 })

	bed.Fault(b).Blackhole()
	testbed.AdvanceUntil(t, clk, sweepStep, "B declared dead", func() bool { return srv.Stats().LivenessTimeouts > 0 })
	req := testbed.Next[wire.StateRequest](p) // B's pull, which P holds
	event := wire.Event{Path: "/x", Name: widget.EventChanged, Args: []attr.Value{attr.String("q-edit")}}
	if res, _ := q.Call(event).Msg.(wire.EventResult); res.OK || res.Reason != "group locked" {
		t.Fatalf("Q's event while B's pull is out: %+v, want it denied: group locked", res)
	}
	p.Send(wire.StateReply{RequestID: req.RequestID, OK: true, State: textState("p-edit")})
	if err := resyncErr(t, resynced); err != nil {
		t.Fatalf("B's resync: %v", err)
	}
	if res, _ := q.Call(event).Msg.(wire.EventResult); !res.OK {
		t.Fatalf("Q's event after B's pull landed: %+v, want it granted", res)
	}
	p.Send(wire.ExecAck{EventID: testbed.Next[wire.Exec](p).EventID})
	testbed.Wait(t, "Q's edit at B", func() bool { return attrOf(t, b, "/x", widget.AttrValue).AsString() == "q-edit" })
}

// TestDroppedPullTriesTheNextPeer: a dropped member pulls each coupled
// object's state from its peers in order and stops at the first that serves
// it, so a peer that cannot serve does not fail the resync.
func TestDroppedPullTriesTheNextPeer(t *testing.T) {
	_, bed := newBed(t, server.Options{})
	resynced := make(chan error, 1)
	b := bed.Dial(testbed.Member{AppType: "app", User: "bob", Spec: `textfield x value=""`,
		Reconnect: &client.ReconnectOptions{OnResync: func(err error) { resynced <- err }}})
	p1, x1 := rawMember(bed, "p1")
	p2, x2 := rawMember(bed, "p2")
	mustOK(t, b.Declare("/x"))
	mustOK(t, b.Couple("/x", x1))
	mustOK(t, b.Couple("/x", x2))
	if co := b.CO("/x"); len(co) != 2 || co[0] != x1 {
		t.Fatalf("B's group is %v, want p1's object first", co)
	}

	bed.Fault(b).Close()
	req := testbed.Next[wire.StateRequest](p1)
	p1.Send(wire.StateReply{RequestID: req.RequestID, Reason: "cannot serve"})
	p2.ServeState(textState("from p2"))
	if err := resyncErr(t, resynced); err != nil {
		t.Fatalf("B's resync: %v, want the pull served by p2", err)
	}
	testbed.Wait(t, "p2's state at B", func() bool { return attrOf(t, b, "/x", widget.AttrValue).AsString() == "from p2" })
}

// TestCopyRacesAnEvent: a copy onto B holds the group's floor from its backup
// read until B acknowledges the state, so A's event in between is denied;
// once the copy has landed A's event is granted, and its Exec reaches B
// behind the ApplyState, so every member applies the two in one order.
func TestCopyRacesAnEvent(t *testing.T) {
	_, bed := newBed(t, server.Options{})
	a, ax := rawMember(bed, "a")
	b, bx := rawMember(bed, "b")
	c, _ := rawMember(bed, "c")
	a.MustOK(wire.Couple{From: ax, To: bx})
	c.Send(wire.CopyTo{FromPath: "/x", To: bx, State: textState("copied")})
	req := testbed.Next[wire.StateRequest](b) // the copy's backup read, which B holds
	event := wire.Event{Path: "/x", Name: widget.EventChanged, Args: []attr.Value{attr.String("v")}}
	if res, _ := a.Call(event).Msg.(wire.EventResult); res.OK || res.Reason != "group locked" {
		t.Fatalf("A's event while the copy is out: %+v, want it denied: group locked", res)
	}
	b.Send(wire.StateReply{RequestID: req.RequestID, OK: true, State: textState("before")})
	if got := b.ApplyState().State.Attrs[widget.AttrValue].AsString(); got != "copied" {
		t.Fatalf("B was sent %q, want the copy", got)
	}
	testbed.Next[wire.OK](c)
	if res, _ := a.Call(event).Msg.(wire.EventResult); !res.OK {
		t.Fatalf("A's event after the copy landed: %+v, want it granted", res)
	}
	exec := testbed.Next[wire.Exec](b)
	b.Send(wire.ExecAck{EventID: exec.EventID})
}

// TestUndoRacesAnEvent: an undo holds the floor of its object's group from
// its read of the current state until the object's owner acknowledges the
// restored one, so B's event in between is denied, and once the undo has
// landed B's event is granted, its Exec behind the ApplyState at A.
func TestUndoRacesAnEvent(t *testing.T) {
	_, bed := newBed(t, server.Options{})
	a, ax := rawMember(bed, "a")
	b, bx := rawMember(bed, "b")
	a.MustOK(wire.Couple{From: ax, To: bx})
	b.Send(wire.CopyTo{FromPath: "/x", To: ax, State: textState("copied")}) // A's history
	a.ServeState(textState("before"))
	a.ApplyState()
	testbed.Next[wire.OK](b)

	a.Send(wire.Undo{Path: "/x"})
	req := testbed.Next[wire.StateRequest](a) // the undo's read, which A holds
	event := wire.Event{Path: "/x", Name: widget.EventChanged, Args: []attr.Value{attr.String("v")}}
	if res, _ := b.Call(event).Msg.(wire.EventResult); res.OK || res.Reason != "group locked" {
		t.Fatalf("B's event while the undo is out: %+v, want it denied: group locked", res)
	}
	a.Send(wire.StateReply{RequestID: req.RequestID, OK: true, State: textState("copied")})
	if got := a.ApplyState().State.Attrs[widget.AttrValue].AsString(); got != "before" {
		t.Fatalf("A was sent %q, want the state the copy overwrote", got)
	}
	testbed.Next[wire.OK](a)
	if res, _ := b.Call(event).Msg.(wire.EventResult); !res.OK {
		t.Fatalf("B's event after the undo landed: %+v, want it granted", res)
	}
	a.Send(wire.ExecAck{EventID: testbed.Next[wire.Exec](a).EventID})
}

// TestCopyWaitsOutAnEvent: a client's CopyTo right after its own event is
// refused the floor while the event waits on P's ack, and tries again on the
// reconnect backoff, so it lands once the event has resolved instead of
// failing "group locked".
func TestCopyWaitsOutAnEvent(t *testing.T) {
	clk := clock.NewManual()
	srv, bed := newBed(t, server.Options{Clock: clk})
	a := bed.Dial(testbed.Member{AppType: "app", User: "alice", Spec: `textfield x value=""`})
	p, px := rawMember(bed, "p")
	mustOK(t, a.Declare("/x"))
	mustOK(t, a.Couple("/x", px))
	mustOK(t, a.DispatchChecked(&widget.Event{Path: "/x", Name: widget.EventChanged, Args: []attr.Value{attr.String("v")}}))
	held := testbed.Next[wire.Exec](p) // P holds its ack, and so the floor

	copied := make(chan error, 1)
	go func() { copied <- a.CopyTo("/x", px, false) }()
	testbed.Wait(t, "A's copy refused the floor", func() bool { return srv.Stats().LockFailures > 0 })
	p.Send(wire.ExecAck{EventID: held.EventID})
	testbed.Wait(t, "A's event resolved", func() bool { return srv.Stats().PendingEvents == 0 })
	testbed.AdvanceUntil(t, clk, 10*time.Millisecond, "A's copy tried again", func() bool { return srv.Stats().PendingEvents > 0 })
	p.ServeState(textState("v"))
	if got := p.ApplyState().State.Attrs[widget.AttrValue].AsString(); got != "v" {
		t.Errorf("P was sent %q, want A's state", got)
	}
	if err := <-copied; err != nil {
		t.Fatalf("A's copy: %v, want it to land once the event resolved", err)
	}
}

// TestPullRetriesABusyFloor: a dropped member's pull that the group's floor
// refuses — a peer's event still waits on Q's ack — is tried again on the
// reconnect backoff and lands once the event has resolved, so the peer's
// event is in the state pulled, never overwritten by it.
func TestPullRetriesABusyFloor(t *testing.T) {
	clk := clock.NewManual()
	srv, bed := newBed(t, server.Options{Clock: clk})
	resynced := make(chan error, 1)
	b := bed.Dial(testbed.Member{AppType: "app", User: "bob", Spec: `textfield x value=""`,
		Reconnect: &client.ReconnectOptions{OnResync: func(err error) { resynced <- err }}})
	p, px := rawMember(bed, "p")
	q, qx := rawMember(bed, "q")
	mustOK(t, b.Declare("/x"))
	mustOK(t, b.Couple("/x", px))
	p.MustOK(wire.Couple{From: px, To: qx})
	testbed.Wait(t, "B mirrors the group", func() bool { return len(b.CO("/x")) == 2 })

	p.Send(wire.Event{Path: "/x", Name: widget.EventChanged, Args: []attr.Value{attr.String("p-edit")}})
	held := testbed.Next[wire.Exec](q) // Q holds its ack, and so the floor
	if res := testbed.Next[wire.EventResult](p); !res.OK {
		t.Fatalf("P's event: %+v, want it granted", res)
	}
	failures := srv.Stats().LockFailures
	bed.Fault(b).Close()
	testbed.Wait(t, "B's pull refused the floor", func() bool { return srv.Stats().LockFailures > failures })
	q.Send(wire.ExecAck{EventID: held.EventID})
	testbed.Wait(t, "P's event resolved", func() bool { return srv.Stats().PendingEvents == 0 })
	testbed.AdvanceUntil(t, clk, 10*time.Millisecond, "B's pull tried again", func() bool { return srv.Stats().PendingEvents > 0 })
	p.ServeState(textState("p-edit"))
	if err := resyncErr(t, resynced); err != nil {
		t.Fatalf("B's resync: %v, want the retried pull to land", err)
	}
	if got := attrOf(t, b, "/x", widget.AttrValue).AsString(); got != "p-edit" {
		t.Errorf("B holds %q after its pull, want P's %q", got, "p-edit")
	}
}
