package server_test

import (
	"encoding/binary"
	"errors"
	"os"
	"runtime"
	"testing"
	"time"

	"cosoft/internal/attr"
	"cosoft/internal/client"
	"cosoft/internal/couple"
	"cosoft/internal/server"
	"cosoft/internal/testbed"
	"cosoft/internal/widget"
	"cosoft/internal/wire"
)

// These tests inject protocol-level misbehaviour a correct client never
// produces, and assert the server stays consistent and responsive.

func TestSpoofedStateReplyIgnored(t *testing.T) {
	_, bed := newBed(t, server.Options{})
	a := bed.Dial(testbed.Member{AppType: "app", User: "u1", Spec: `textfield x value="target"`})
	mustOK(t, a.Declare("/x"))
	// The attacker replies to a StateRequest id that was never issued (and
	// later, one issued to someone else).
	rc := bed.Raw(wire.Register{AppType: "app", User: "mallory"})
	if err := rc.Send(wire.StateReply{RequestID: 999, OK: true}); err != nil {
		t.Fatal(err)
	}
	// The server must still serve normal traffic afterwards.
	rc.MustOK(wire.Declare{Path: "/y", Class: "textfield"})

	// Now create a real fetch to a, and have mallory race a spoofed reply
	// for a plausible id. The server only accepts replies from the fetch's
	// target instance.
	done := make(chan error, 1)
	go func() {
		_, err := a.FetchState(a.Ref("/x"), true)
		done <- err
	}()
	// Burst of spoofed replies over plausible request ids.
	for id := uint64(1); id < 10; id++ {
		if err := rc.Send(wire.StateReply{
			RequestID: id, OK: true,
			State: widget.TreeState{Class: "textfield", Name: "x",
				Attrs: attr.Set{widget.AttrValue: attr.String("EVIL")}},
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := <-done; err != nil {
		t.Fatalf("legitimate fetch failed: %v", err)
	}
}

func TestStaleAndForeignExecAcks(t *testing.T) {
	srv, bed := newBed(t, server.Options{})
	a := bed.Dial(testbed.Member{AppType: "app", User: "u1", Spec: `textfield x`})
	b := bed.Dial(testbed.Member{AppType: "app", User: "u2", Spec: `textfield x`})
	rc := bed.Raw(wire.Register{AppType: "app", User: "u3"})
	mustOK(t, a.Declare("/x"))
	mustOK(t, b.Declare("/x"))
	rc.MustOK(wire.Declare{Path: "/x", Class: "textfield"})
	mustOK(t, a.Couple("/x", couple.ObjectRef{Instance: rc.ID, Path: "/x"}))
	mustOK(t, a.Couple("/x", b.Ref("/x")))
	testbed.Wait(t, "group", func() bool { return len(a.CO("/x")) == 2 })

	mustOK(t, a.Registry().Dispatch(&widget.Event{
		Path: "/x", Name: widget.EventChanged, Args: []attr.Value{attr.String("v")},
	}))
	exec := testbed.Next[wire.Exec](rc)
	// Acks for nonexistent events and duplicate acks must be harmless.
	for _, id := range []uint64{0, 42, exec.EventID} {
		if err := rc.Send(wire.ExecAck{EventID: id}); err != nil {
			t.Fatal(err)
		}
	}
	// b's real ack plus rc's ack complete the event; extra duplicates after
	// completion are ignored.
	testbed.Wait(t, "unlocked", func() bool {
		_, held := srv.Stats(), false
		// Probe by dispatching another event from a.
		err := a.DispatchChecked(&widget.Event{
			Path: "/x", Name: widget.EventChanged, Args: []attr.Value{attr.String("w")},
		})
		if err == nil {
			held = true
			// Complete this second event too so the test can exit cleanly.
			ex := testbed.Next[wire.Exec](rc)
			rc.Send(wire.ExecAck{EventID: ex.EventID}) //nolint:errcheck
		}
		return held
	})
	if err := rc.Send(wire.ExecAck{EventID: exec.EventID}); err != nil {
		t.Fatal(err)
	}
}

func TestUnexpectedMessageGetsError(t *testing.T) {
	_, bed := newBed(t, server.Options{})
	rc := bed.Raw(wire.Register{AppType: "app", User: "u1"})
	// Registered is a server-to-client message; sending it to the server is
	// a protocol violation answered with Err.
	env := rc.Call(wire.Registered{ID: "fake"})
	if _, isErr := env.Msg.(wire.Err); !isErr {
		t.Fatalf("expected Err, got %s", env.Msg.MsgType())
	}
	// The connection survives.
	rc.MustOK(wire.Declare{Path: "/x", Class: "button"})
}

func TestDeregisterThenTrafficIsRejected(t *testing.T) {
	_, bed := newBed(t, server.Options{})
	rc := bed.Raw(wire.Register{AppType: "app", User: "u1"})
	rc.MustOK(wire.Declare{Path: "/x", Class: "button"})
	rc.MustOK(wire.Deregister{})
	// After deregistering, declares fail because the registration record is
	// gone.
	env := rc.Call(wire.Declare{Path: "/y", Class: "button"})
	if _, isErr := env.Msg.(wire.Err); !isErr {
		t.Fatalf("expected Err after deregister, got %s", env.Msg.MsgType())
	}
}

func TestCoupleToDeadInstanceFails(t *testing.T) {
	_, bed := newBed(t, server.Options{})
	a := bed.Dial(testbed.Member{AppType: "app", User: "u1", Spec: `textfield x`})
	mustOK(t, a.Declare("/x"))
	ghost := couple.ObjectRef{Instance: "ghost-1", Path: "/x"}
	if err := a.Couple("/x", ghost); err == nil {
		t.Fatal("coupling to unknown instance must fail")
	}
	if err := a.CopyTo("/x", ghost, false); err == nil {
		t.Fatal("copy to unknown instance must fail")
	}
	if _, err := a.FetchState(ghost, true); err == nil {
		t.Fatal("fetch from unknown instance must fail")
	}
}

func TestEventOnUndeclaredObjectStillLocal(t *testing.T) {
	// An event on an object the client never declared (and never coupled)
	// must run locally without server involvement.
	srv, bed := newBed(t, server.Options{})
	a := bed.Dial(testbed.Member{AppType: "app", User: "u1", Spec: `textfield x`})
	mustOK(t, a.Registry().Dispatch(&widget.Event{
		Path: "/x", Name: widget.EventChanged, Args: []attr.Value{attr.String("local")},
	}))
	if got := attrOf(t, a, "/x", widget.AttrValue).AsString(); got != "local" {
		t.Errorf("value = %q", got)
	}
	if srv.Stats().Events != 0 {
		t.Error("server saw the event")
	}
}

func TestStatsAfterClose(t *testing.T) {
	srv := server.New(server.Options{})
	srv.Close()
	if got := srv.Stats(); got != (server.Stats{}) {
		t.Errorf("Stats after close = %+v", got)
	}
	srv.Close() // idempotent
}

func TestRegistrationAfterServerClosed(t *testing.T) {
	srv := server.New(server.Options{})
	srv.Close()
	bed := testbed.New(t, srv, testbed.Options{})
	reg := widget.NewRegistry()
	if _, err := client.New(bed.Conn(), client.Options{
		Registry: reg, RPCTimeout: 500 * time.Millisecond,
	}); err == nil {
		t.Fatal("registration against a closed server must fail")
	}
}

// copyToCountBomb is a 23-byte CopyTo frame whose tree state claims 1<<20
// attributes and carries none.
func copyToCountBomb() []byte {
	body := binary.LittleEndian.AppendUint16(nil, uint16(wire.TCopyTo))
	body = append(body, 1, 0)                          // seq, refSeq
	body = append(body, 2, '/', 'a')                   // FromPath
	body = append(body, 3, 'i', '-', '1', 2, '/', 'b') // To
	body = append(body, 0, 0)                          // Class, Name
	body = binary.AppendUvarint(body, 1<<20)           // attribute count
	return append(binary.LittleEndian.AppendUint32(nil, uint32(len(body))), body...)
}

// A connection whose first frame is a count bomb is dropped unregistered,
// and refusing it costs the server about what the frame does, not the
// 224 MiB the count claims; the next client registers and couples as usual.
func TestCountBombFirstFrameDropped(t *testing.T) {
	srv, bed := newBed(t, server.Options{})
	conn := bed.Conn()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := conn.Write(copyToCountBomb()); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	if n, err := conn.Read(make([]byte, 1)); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("the server kept the connection open: read %d bytes, %v", n, err)
	}
	runtime.ReadMemStats(&after)
	if n := after.TotalAlloc - before.TotalAlloc; n >= 64<<10 {
		t.Errorf("refusing the 23-byte frame allocated %d bytes", n)
	}
	if n := srv.Stats().Instances; n != 0 {
		t.Fatalf("%d instances registered, want none", n)
	}
	a := bed.Dial(testbed.Member{AppType: "app", User: "u1", Spec: `textfield x`})
	b := bed.Dial(testbed.Member{AppType: "app", User: "u2", Spec: `textfield x`})
	mustOK(t, a.Declare("/x"))
	mustOK(t, b.Declare("/x"))
	mustOK(t, a.Couple("/x", b.Ref("/x")))
	if st := srv.Stats(); st.Instances != 2 || st.Links != 1 {
		t.Fatalf("after the bomb: %d instances, %d links; want 2 and 1", st.Instances, st.Links)
	}
}
