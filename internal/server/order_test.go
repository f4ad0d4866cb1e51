package server_test

import (
	"fmt"
	"testing"

	"cosoft/internal/attr"
	"cosoft/internal/couple"
	"cosoft/internal/server"
	"cosoft/internal/testbed"
	"cosoft/internal/widget"
	"cosoft/internal/wire"
)

// TestOneConnectionOneOrder holds the server to running a connection's
// messages in the order it sent them, whichever lock each takes: a raw origin
// sends Couple and, without waiting for its OK, an Event on the object it
// just coupled. The Event must see the link — it is broadcast, and the member
// gets the Exec — rather than overtake the Couple and run uncoupled. Each
// round couples a fresh pair of objects, so each Event is its group's first.
func TestOneConnectionOneOrder(t *testing.T) {
	srv, bed := newBed(t, server.Options{})
	origin := bed.Raw(wire.Register{AppType: "app", User: "origin"})
	member := bed.Raw(wire.Register{AppType: "app", User: "member"})
	for i := 0; i < 50; i++ {
		o, m := fmt.Sprintf("/o%d", i), fmt.Sprintf("/m%d", i)
		origin.MustOK(wire.Declare{Path: o, Class: "textfield"})
		member.MustOK(wire.Declare{Path: m, Class: "textfield"})
		sent := srv.Stats().ExecsSent
		if err := origin.Send(wire.Couple{From: couple.ObjectRef{Instance: origin.ID, Path: o}, To: couple.ObjectRef{Instance: member.ID, Path: m}}); err != nil {
			t.Fatal(err)
		}
		res, ok := origin.Call(wire.Event{Path: o, Name: widget.EventChanged, Args: []attr.Value{attr.String("v")}}).Msg.(wire.EventResult)
		if !ok || !res.OK {
			t.Fatalf("round %d: event answered %+v, want accepted", i, res)
		}
		// The broadcast is queued before the origin's result, so by now the
		// count has moved unless the Event ran before the link existed.
		if srv.Stats().ExecsSent == sent {
			t.Fatalf("round %d: the Event ran uncoupled: it overtook the Couple sent before it on the same connection", i)
		}
		exec := testbed.Next[wire.Exec](member)
		if exec.TargetPath != m {
			t.Fatalf("round %d: member got an Exec for %s, want %s", i, exec.TargetPath, m)
		}
		if err := member.Send(wire.ExecAck{EventID: exec.EventID}); err != nil {
			t.Fatal(err)
		}
	}
}
