package server_test

import (
	"sync/atomic"
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

// TestExecIsTheLockNotice reads a raw member's connection frame by frame
// while its group's events are granted: each grant reaches the member as one
// frame holding its one Exec and nothing else, the unlock follows once it
// acks, and no SetLocks ever locks. The Exec is the lock notice; the member
// disables its target as it reads it.
func TestExecIsTheLockNotice(t *testing.T) {
	_, bed := newBed(t, server.Options{})
	origin := bed.Raw(wire.Register{AppType: "app", User: "origin"})
	origin.MustOK(wire.Declare{Path: "/x", Class: "textfield"})

	conn := wire.NewConn(bed.Conn())
	for seq, msg := range []wire.Message{wire.Register{AppType: "app", User: "member"}, wire.Declare{Path: "/x", Class: "textfield"}} {
		if err := conn.Write(wire.Envelope{Seq: uint64(seq + 1), Msg: msg}); err != nil {
			t.Fatal(err)
		}
	}
	var id couple.InstanceID
	for answered := 0; answered < 2; {
		env, err := conn.Read()
		if err != nil {
			t.Fatal(err)
		}
		if reg, ok := env.Msg.(wire.Registered); ok {
			id = reg.ID
		}
		if env.RefSeq != 0 {
			answered++
		}
	}
	frames := make(chan []wire.Envelope, 64)
	go func() {
		defer close(frames)
		var frame []wire.Envelope
		for {
			var rec wire.Record
			if conn.Next(&rec) != nil {
				return
			}
			frame = append(frame, rec.Box())
			rec.Release()
			if !conn.Pending() {
				frames <- frame
				frame = nil
			}
		}
	}()
	// nextFanout returns the next frame that carries an Exec or a SetLocks.
	nextFanout := func(when string) []wire.Envelope {
		t.Helper()
		for {
			select {
			case frame, ok := <-frames:
				if !ok {
					t.Fatalf("%s: the member's connection closed", when)
				}
				for _, env := range frame {
					switch env.Msg.(type) {
					case wire.Exec, wire.SetLocks:
						return frame
					}
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("%s: no Exec or SetLocks reached the member", when)
			}
		}
	}

	origin.MustOK(wire.Couple{From: couple.ObjectRef{Instance: origin.ID, Path: "/x"}, To: couple.ObjectRef{Instance: id, Path: "/x"}})
	for i := 0; i < 3; i++ {
		ev := wire.Event{Path: "/x", Name: widget.EventChanged, Args: []attr.Value{attr.String("v")}}
		if res, ok := origin.Call(ev).Msg.(wire.EventResult); !ok || !res.OK {
			t.Fatalf("event %d refused: %+v", i, res)
		}
		frame := nextFanout("at the grant")
		ex, ok := frame[0].Msg.(wire.Exec)
		if len(frame) != 1 || !ok || ex.TargetPath != "/x" {
			for _, env := range frame {
				t.Errorf("event %d's grant frame holds %s %+v", i, env.Msg.MsgType(), env.Msg)
			}
			t.Fatalf("event %d: the grant frame holds %d records, want its one Exec alone", i, len(frame))
		}
		if err := conn.Write(wire.Envelope{Msg: wire.ExecAck{EventID: ex.EventID}}); err != nil {
			t.Fatal(err)
		}
		frame = nextFanout("after the ack")
		if sl, ok := frame[0].Msg.(wire.SetLocks); len(frame) != 1 || !ok || sl.Locked || len(sl.Paths) != 1 || sl.Paths[0] != "/x" {
			t.Fatalf("event %d: after the ack the member got %+v, want the unlock of /x alone", i, frame)
		}
	}
}

// TestStragglerEndsEnabled holds a member's first re-execution in its
// OnRemoteEvent past the event deadline, and grants a second event whose
// Exec then waits behind it, until that event's deadline passes too. Both
// events resolve without the member, and their unlocks arrive while its
// applies are still queued. Once the callback returns and both applies have
// run, the member's object must be enabled: the Exec's disable happens as
// the member reads the Exec, in order with the unlocks, not when its late
// apply finally runs.
func TestStragglerEndsEnabled(t *testing.T) {
	clk := clock.NewManual()
	srv, bed := newBed(t, server.Options{Clock: clk})
	spec := `textfield note value=""`
	a := bed.Dial(testbed.Member{AppType: "editor", User: "alice", Spec: spec})
	release := make(chan struct{})
	var applied atomic.Int32
	b := bed.Dial(testbed.Member{AppType: "editor", User: "bob", Spec: spec, Options: client.Options{
		OnRemoteEvent: func(*widget.Event) {
			if applied.Add(1) == 1 {
				<-release
			}
		},
	}})
	defer func() {
		select {
		case <-release:
		default:
			close(release)
		}
	}()
	mustOK(t, a.Declare("/note"))
	mustOK(t, b.Declare("/note"))
	mustOK(t, a.Couple("/note", b.Ref("/note")))
	testbed.Wait(t, "coupling mirrored", func() bool { return a.Coupled("/note") && b.Coupled("/note") })

	for i, v := range []string{"v1", "v2"} {
		mustOK(t, a.DispatchChecked(&widget.Event{Path: "/note", Name: widget.EventChanged, Args: []attr.Value{attr.String(v)}}))
		if i == 0 {
			testbed.Wait(t, "bob's first apply to block", func() bool { return applied.Load() == 1 })
		}
		testbed.AdvanceUntil(t, clk, sweepStep, "the deadline to resolve "+v, func() bool {
			return srv.Stats().PendingEvents == 0
		})
	}
	// The reply to a request sent now is read behind both unlocks.
	if _, err := b.Instances(); err != nil {
		t.Fatal(err)
	}
	close(release)
	testbed.Wait(t, "bob's second apply", func() bool { return applied.Load() == 2 })
	if disabled(t, b, "/note") {
		t.Error("bob's object stays disabled after its late apply, though both events were unlocked")
	}
	if got := attrOf(t, b, "/note", widget.AttrValue).AsString(); got != "v2" {
		t.Errorf("bob's object holds %q, want v2", got)
	}
}
