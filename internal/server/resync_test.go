package server_test

// The way back in for a member the server dropped: it resumes as a fresh
// registration, re-couples and pulls its state from a surviving peer, and
// takes no local event on an object until that object's pull has landed.

import (
	"errors"
	"testing"

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
// pulls P's state, and P holds the request. While the pull is out B's event
// is refused on the spot, its feedback never applied, since the pull would
// overwrite it. Once P serves its state B holds P's value, and B's next event
// is accepted and reaches P.
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
	if !errors.Is(err, client.ErrRejected) {
		t.Fatalf("B's event while its pull is out: %v, want it rejected", err)
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
