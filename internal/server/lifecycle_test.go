package server_test

import (
	"io"
	"net"
	"reflect"
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

// TestDropClientNotifiesChainSurvivors is the regression test for the
// disconnect stale-link split: in the chain A–B–C, when B disconnects, both
// A and C must hear that BOTH links died. The buggy dropClient computed the
// survivor groups after RemoveInstance, by which time A and C sat in
// separate components, so each missed the removal of the other's link and
// kept a stale mirrored entry forever.
func TestDropClientNotifiesChainSurvivors(t *testing.T) {
	_, bed := newBed(t, server.Options{})
	a := bed.Raw(wire.Register{AppType: "app", User: "alice"})
	b := bed.Raw(wire.Register{AppType: "app", User: "bob"})
	c := bed.Raw(wire.Register{AppType: "app", User: "carol"})
	for _, rc := range []*testbed.Peer{a, b, c} {
		rc.MustOK(wire.Declare{Path: "/x", Class: "textfield"})
	}
	refA := couple.ObjectRef{Instance: a.ID, Path: "/x"}
	refB := couple.ObjectRef{Instance: b.ID, Path: "/x"}
	refC := couple.ObjectRef{Instance: c.ID, Path: "/x"}
	a.MustOK(wire.Couple{From: refA, To: refB})
	b.MustOK(wire.Couple{From: refB, To: refC})
	// Both ends of the chain must know both links before B leaves.
	for _, rc := range []*testbed.Peer{a, c} {
		seen := map[couple.Link]bool{}
		for len(seen) < 2 {
			seen[testbed.Next[wire.LinkAdded](rc).Link] = true
		}
	}

	b.Close()

	// A and C each must see LinkRemoved for BOTH links of the chain, even
	// though after B's removal they are no longer connected to each other.
	want := map[couple.Link]bool{
		{From: refA, To: refB, Creator: a.ID}: true,
		{From: refB, To: refC, Creator: b.ID}: true,
	}
	for _, rc := range []*testbed.Peer{a, c} {
		got := map[couple.Link]bool{}
		for len(got) < 2 {
			got[testbed.Next[wire.LinkRemoved](rc).Link] = true
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s saw removals %v, want %v", rc.ID, got, want)
		}
	}
}

// TestSessionTokenLifecycle covers the token lifecycle fixes: re-minting
// invalidates the previous token, a resume consumes the token it presented,
// and Deregister drops the outstanding token — so the sessions map is
// bounded and no stale token can hijack a session.
func TestSessionTokenLifecycle(t *testing.T) {
	_, bed := newBed(t, server.Options{})
	rc := bed.Raw(wire.Register{AppType: "app", User: "alice"})

	tok1 := rc.Call(wire.SessionToken{}).Msg.(wire.SessionToken).Token
	tok2 := rc.Call(wire.SessionToken{}).Msg.(wire.SessionToken).Token

	// Re-minting replaced tok1: it must not resume anything.
	if env := bed.Raw(wire.Resume{Token: tok1}).Hello; true {
		if _, isErr := env.Msg.(wire.Err); !isErr {
			t.Fatalf("superseded token resumed: got %s", env.Msg.MsgType())
		}
	}

	// The current token resumes the session (superseding rc's connection).
	resumed := bed.Raw(wire.Resume{Token: tok2})
	env := resumed.Hello
	reg, ok := env.Msg.(wire.Registered)
	if !ok || reg.ID != rc.ID {
		t.Fatalf("resume with live token: got %v, want Registered{%s}", env.Msg, rc.ID)
	}

	// Tokens are single-use: the consumed token must not resume again (that
	// would hijack the live resumed session).
	if env := bed.Raw(wire.Resume{Token: tok2}).Hello; true {
		if _, isErr := env.Msg.(wire.Err); !isErr {
			t.Fatalf("consumed token resumed again: got %s", env.Msg.MsgType())
		}
	}

	// Deregister drops the outstanding token with the registration.
	tok3 := resumed.Call(wire.SessionToken{}).Msg.(wire.SessionToken).Token
	if e, isErr := resumed.Call(wire.Deregister{}).Msg.(wire.Err); isErr {
		t.Fatalf("deregister: %s", e.Text)
	}
	if env := bed.Raw(wire.Resume{Token: tok3}).Hello; true {
		if _, isErr := env.Msg.(wire.Err); !isErr {
			t.Fatalf("token survived Deregister: got %s", env.Msg.MsgType())
		}
	}
}

// TestEventTimeoutHistogram checks that deadline-resolved events land in the
// event_timeout_wait histogram and never pollute the round-trip histogram
// with deadline-sized outliers.
func TestEventTimeoutHistogram(t *testing.T) {
	clk := clock.NewManual()
	srv, bed := newBed(t, server.Options{Clock: clk})
	origin := bed.Raw(wire.Register{AppType: "app", User: "alice"})
	member := bed.Raw(wire.Register{AppType: "app", User: "bob"}) // never acks its Execs
	origin.MustOK(wire.Declare{Path: "/x", Class: "textfield"})
	member.MustOK(wire.Declare{Path: "/x", Class: "textfield"})
	origin.MustOK(wire.Couple{
		From: couple.ObjectRef{Instance: origin.ID, Path: "/x"},
		To:   couple.ObjectRef{Instance: member.ID, Path: "/x"},
	})

	res := origin.Call(wire.Event{Path: "/x", Name: "changed", Args: []attr.Value{attr.String("v")}})
	if r, ok := res.Msg.(wire.EventResult); !ok || !r.OK {
		t.Fatalf("event not accepted: %v", res.Msg)
	}
	testbed.AdvanceUntil(t, clk, sweepStep, "event deadline to fire", func() bool {
		return srv.Stats().EventTimeouts >= 1
	})
	st := srv.Stats()
	if st.EventTimeoutWait.Count != 1 {
		t.Errorf("EventTimeoutWait.Count = %d, want 1", st.EventTimeoutWait.Count)
	}
	if st.EventRTT.Count != 0 {
		t.Errorf("EventRTT.Count = %d, want 0 (timeout must not feed the RTT histogram)", st.EventRTT.Count)
	}
}

// TestMigratedMemberLeavesNoStrandedLock is the regression test for the
// stranded floor lock: event E from A holds the lock on member B and waits
// for B's ack; meanwhile B is decoupled from A and coupled to C. B stays
// locked by E — an event on B's new group is denied — until B acks. Then E
// must release B's lock: B's new group must accept events again and the
// lock table must keep no entry once nothing is pending.
func TestMigratedMemberLeavesNoStrandedLock(t *testing.T) {
	srv, bed := newBed(t, server.Options{})
	ref := func(rc *testbed.Peer) couple.ObjectRef { return couple.ObjectRef{Instance: rc.ID, Path: "/x"} }
	declared := func(user string) *testbed.Peer {
		rc := bed.Raw(wire.Register{AppType: "app", User: user})
		rc.MustOK(wire.Declare{Path: "/x", Class: "textfield"})
		return rc
	}
	a, b, c := declared("alice"), declared("bob"), declared("carol")
	a.MustOK(wire.Couple{From: ref(a), To: ref(b)})

	if res, ok := a.Call(wire.Event{Path: "/x", Name: "changed", Args: []attr.Value{attr.String("e")}}).Msg.(wire.EventResult); !ok || !res.OK {
		t.Fatalf("event E not accepted: %+v", res)
	}
	held := testbed.Next[wire.Exec](b) // B withholds this ack: E stays pending
	a.MustOK(wire.Decouple{From: ref(a), To: ref(b)})
	c.MustOK(wire.Couple{From: ref(c), To: ref(b)})
	if res, ok := c.Call(wire.Event{Path: "/x", Name: "changed", Args: []attr.Value{attr.String("early")}}).Msg.(wire.EventResult); !ok || res.OK {
		t.Fatalf("an event on B's new group was granted while E held B: %+v", res)
	}
	b.Send(wire.ExecAck{EventID: held.EventID})
	testbed.Wait(t, "E resolved", func() bool { return srv.Stats().PendingEvents == 0 })

	// An event on B's new group locks B; it must be accepted.
	testbed.Wait(t, "event on B's new group accepted", func() bool {
		res, ok := c.Call(wire.Event{Path: "/x", Name: "changed", Args: []attr.Value{attr.String("f")}}).Msg.(wire.EventResult)
		return ok && res.OK
	})
	b.Send(wire.ExecAck{EventID: testbed.Next[wire.Exec](b).EventID})
	testbed.Wait(t, "all events resolved", func() bool { return srv.Stats().PendingEvents == 0 })
	if n := srv.LocksHeld(); n != 0 {
		t.Errorf("%d lock entries left with nothing pending", n)
	}
}

// TestCloseWithSilentConnection: Close returns although a connection Serve
// accepted never sent its first frame.
func TestCloseWithSilentConnection(t *testing.T) {
	srv := server.New(server.Options{})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	go srv.Serve(lis) //nolint:errcheck
	silent, err := net.Dial("tcp", lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	// Serve accepts in order, so once a later connection is answered the
	// silent one is being served.
	conn, err := net.Dial("tcp", lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	c, err := client.New(conn, client.Options{Registry: widget.NewRegistry(), RPCTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	closed := make(chan struct{})
	go func() {
		srv.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close is still waiting on a connection that never sent a frame")
	}
}

// TestSilentFirstFrameClosed: a connection that sends no first frame is
// closed once it has been silent for three heartbeats, the rule the sweep
// applies to admitted clients.
func TestSilentFirstFrameClosed(t *testing.T) {
	clk := clock.NewManual()
	_, bed := newBed(t, server.Options{Clock: clk})
	start := clk.Now()
	conn := bed.Conn()
	closed := make(chan struct{})
	go func() {
		io.Copy(io.Discard, conn) //nolint:errcheck
		close(closed)
	}()
	testbed.AdvanceUntil(t, clk, sweepStep, "the silent connection closed", func() bool {
		select {
		case <-closed:
			return true
		default:
			return false
		}
	})
	if silent := clk.Now().Sub(start); silent < 3*server.Heartbeat {
		t.Errorf("closed after %v of silence, want at least three heartbeats (%v)", silent, 3*server.Heartbeat)
	}
}
