package server_test

import (
	"sync/atomic"
	"testing"
	"time"

	"cosoft/internal/attr"
	"cosoft/internal/client"
	"cosoft/internal/couple"
	"cosoft/internal/faultnet"
	"cosoft/internal/server"
	"cosoft/internal/testbed"
	"cosoft/internal/widget"
	"cosoft/internal/wire"
)

// Chaos tests drive the fault-tolerance layer with injected network
// failures. They are named TestChaos* so CI can soak them repeatedly
// (go test -race -run Chaos -count=3). All assertions are on convergence
// (state, counters), never on elapsed wall time.

func dispatch(t *testing.T, c *client.Client, path, value string) {
	t.Helper()
	mustOK(t, c.Registry().Dispatch(&widget.Event{
		Path: path, Name: widget.EventChanged, Args: []attr.Value{attr.String(value)},
	}))
}

func disabled(t *testing.T, c *client.Client, path string) bool {
	t.Helper()
	w, err := c.Registry().Lookup(path)
	if err != nil {
		t.Fatalf("lookup %s: %v", path, err)
	}
	return w.Disabled()
}

// TestChaosHungMemberMidEvent wedges one member of a three-way coupling
// group mid-event: the event deadline must fire, drop the straggler from
// the wait set, unlock the group and re-enable the survivors — and after
// the member recovers, coupling must work again.
func TestChaosHungMemberMidEvent(t *testing.T) {
	srv, bed := newBed(t, server.Options{EventDeadline: 150 * time.Millisecond})
	spec := `textfield note value=""`
	a := bed.Dial(testbed.Member{AppType: "editor", User: "alice", Spec: spec})
	b := bed.Dial(testbed.Member{AppType: "editor", User: "bob", Spec: spec})
	c := bed.Dial(testbed.Member{AppType: "editor", User: "carol", Spec: spec, Fault: &faultnet.Schedule{}})
	fc := bed.Fault(c)

	mustOK(t, a.Declare("/note"))
	mustOK(t, b.Declare("/note"))
	mustOK(t, c.Declare("/note"))
	mustOK(t, a.Couple("/note", b.Ref("/note")))
	mustOK(t, a.Couple("/note", c.Ref("/note")))
	testbed.Wait(t, "group mirrored", func() bool {
		return a.Coupled("/note") && b.Coupled("/note") && c.Coupled("/note")
	})

	fc.Hang() // carol's connection wedges: Exec undeliverable, no ack coming

	dispatch(t, a, "/note", "v1")
	testbed.Wait(t, "value at B", func() bool {
		return attrOf(t, b, "/note", widget.AttrValue).AsString() == "v1"
	})
	testbed.Wait(t, "event deadline resolves the wedged event", func() bool {
		st := srv.Stats()
		return st.EventTimeouts >= 1 && st.PendingEvents == 0
	})
	testbed.Wait(t, "survivor re-enabled", func() bool { return !disabled(t, b, "/note") })

	// The group lock must be free again: a second event goes through.
	fc.Restore()
	dispatch(t, a, "/note", "v2")
	testbed.Wait(t, "second event reaches B", func() bool {
		return attrOf(t, b, "/note", widget.AttrValue).AsString() == "v2"
	})
	testbed.Wait(t, "recovered member catches up", func() bool {
		return attrOf(t, c, "/note", widget.AttrValue).AsString() == "v2"
	})
}

// TestChaosMidEventDisconnectUnwedgesGroup kills a member that received an
// Exec and never acknowledged it (no event deadline configured): the
// disconnect alone must resolve the pending event, release the group lock,
// re-enable the surviving members and leak nothing.
func TestChaosMidEventDisconnectUnwedgesGroup(t *testing.T) {
	srv, bed := newBed(t, server.Options{})
	spec := `textfield note value=""`
	a := bed.Dial(testbed.Member{AppType: "editor", User: "alice", Spec: spec})
	b := bed.Dial(testbed.Member{AppType: "editor", User: "bob", Spec: spec})

	// A raw wire-level member that declares an object and then ignores every
	// Exec: a client whose process stopped making progress but whose
	// connection is still up.
	rc := bed.Raw(wire.Register{AppType: "zombie", Host: "h", User: "mallory"})
	fakeID := rc.ID
	if err := rc.Send(wire.Declare{Path: "/note", Class: "textfield"}); err != nil {
		t.Fatalf("declare: %v", err)
	}
	gotExec := make(chan struct{}, 8)
	go func() {
		// Swallow everything; never acknowledge.
		for env := range rc.Events {
			if _, ok := env.Msg.(wire.Exec); ok {
				gotExec <- struct{}{}
			}
		}
	}()

	mustOK(t, a.Declare("/note"))
	mustOK(t, b.Declare("/note"))
	mustOK(t, a.Couple("/note", b.Ref("/note")))
	mustOK(t, a.Couple("/note", couple.ObjectRef{Instance: fakeID, Path: "/note"}))
	testbed.Wait(t, "group mirrored", func() bool { return a.Coupled("/note") && b.Coupled("/note") })

	dispatch(t, a, "/note", "v1")
	<-gotExec // the zombie received the Exec and sits on it
	testbed.Wait(t, "event pending on the zombie", func() bool {
		return srv.Stats().PendingEvents == 1
	})
	testbed.Wait(t, "survivor locked while pending", func() bool { return disabled(t, b, "/note") })

	rc.Close() // the zombie dies mid-event

	testbed.Wait(t, "pending event resolved by disconnect", func() bool {
		st := srv.Stats()
		return st.PendingEvents == 0 && st.Instances == 2
	})
	testbed.Wait(t, "survivor re-enabled", func() bool { return !disabled(t, b, "/note") })
	testbed.Wait(t, "value at B", func() bool {
		return attrOf(t, b, "/note", widget.AttrValue).AsString() == "v1"
	})

	// The surviving pair keeps cooperating.
	dispatch(t, a, "/note", "v2")
	testbed.Wait(t, "second event reaches B", func() bool {
		return attrOf(t, b, "/note", widget.AttrValue).AsString() == "v2"
	})
}

// TestChaosSlowClientEvicted stops a client's connection from draining and
// floods it: once its outbox backlog stays over the configured limit for
// longer than the grace period, the server must evict it instead of
// buffering forever.
func TestChaosSlowClientEvicted(t *testing.T) {
	srv, bed := newBed(t, server.Options{
		OutboxLimit: 8,
		OutboxGrace: 60 * time.Millisecond,
	})
	a := bed.Dial(testbed.Member{AppType: "editor", User: "alice", Spec: `textfield note value=""`})
	fc := bed.Fault(bed.Dial(testbed.Member{AppType: "viewer", User: "bob", Spec: `textfield note value=""`, Fault: &faultnet.Schedule{}}))

	fc.Hang() // bob's receive window closes for good

	// Commands broadcast without group locking, so the flood is not
	// serialized by event acknowledgements.
	for i := 0; i < 30; i++ {
		mustOK(t, a.SendCommand("noop", nil))
	}
	testbed.Wait(t, "slow client evicted", func() bool {
		st := srv.Stats()
		return st.Evictions >= 1 && st.Instances == 1
	})
}

// TestChaosPartitionedMemberDeclaredDead black-holes a member (its packets
// die silently in both directions) mid-event: the liveness sweep must
// declare it dead, release its locks, resolve the pending event and notify
// the survivors of the lost coupling.
func TestChaosPartitionedMemberDeclaredDead(t *testing.T) {
	srv, bed := newBed(t, server.Options{Heartbeat: 20 * time.Millisecond})
	spec := `textfield note value=""`
	a := bed.Dial(testbed.Member{AppType: "editor", User: "alice", Spec: spec})
	b := bed.Dial(testbed.Member{AppType: "editor", User: "bob", Spec: spec, Fault: &faultnet.Schedule{}})
	fc := bed.Fault(b)

	mustOK(t, a.Declare("/note"))
	mustOK(t, b.Declare("/note"))
	mustOK(t, a.Couple("/note", b.Ref("/note")))
	testbed.Wait(t, "coupling mirrored", func() bool { return a.Coupled("/note") && b.Coupled("/note") })

	fc.Blackhole()

	// The Exec to the partitioned member dies on the wire; only the liveness
	// timeout can resolve the event.
	dispatch(t, a, "/note", "v1")
	testbed.Wait(t, "partitioned member declared dead", func() bool {
		st := srv.Stats()
		return st.LivenessTimeouts >= 1 && st.Instances == 1 && st.PendingEvents == 0
	})
	testbed.Wait(t, "survivor decoupled", func() bool { return !a.Coupled("/note") })
	testbed.Wait(t, "survivor re-enabled", func() bool { return !disabled(t, a, "/note") })

	// The survivor's object now behaves like any uncoupled widget.
	dispatch(t, a, "/note", "v2")
	if got := attrOf(t, a, "/note", widget.AttrValue).AsString(); got != "v2" {
		t.Errorf("survivor value = %q, want v2", got)
	}
}

// TestChaosReconnectResync kills a client's connection and lets the
// reconnect supervisor resume the session: same instance ID, re-declared
// objects, re-created couple links, and state pulled from the surviving
// peer so changes made while the client was gone converge.
func TestChaosReconnectResync(t *testing.T) {
	srv, bed := newBed(t, server.Options{})
	spec := `textfield note value=""`
	a := bed.Dial(testbed.Member{AppType: "editor", User: "alice", Spec: spec})

	var resyncs atomic.Int32
	b := bed.Dial(testbed.Member{AppType: "editor", User: "bob", Spec: spec, Fault: &faultnet.Schedule{},
		Reconnect: &client.ReconnectOptions{
			BaseDelay: 5 * time.Millisecond,
			Seed:      7,
			OnResync: func(err error) {
				if err == nil {
					resyncs.Add(1)
				}
			},
		}})
	fc := bed.Fault(b)
	bID := b.ID()

	mustOK(t, a.Declare("/note"))
	mustOK(t, b.Declare("/note"))
	mustOK(t, b.Couple("/note", a.Ref("/note")))
	testbed.Wait(t, "coupling mirrored", func() bool { return a.Coupled("/note") && b.Coupled("/note") })
	dispatch(t, a, "/note", "v1")
	testbed.Wait(t, "value at B", func() bool {
		return attrOf(t, b, "/note", widget.AttrValue).AsString() == "v1"
	})
	// Bob's ack must land before the cut: an event left pending on him would
	// hold the group lock and refuse alice's next edit.
	testbed.Wait(t, "v1 acknowledged", func() bool { return srv.Stats().PendingEvents == 0 })

	fc.Close() // bob's connection dies

	// Alice keeps editing; bob misses this change and must pull it on
	// resync (or receive it as a normal broadcast if the resume won the
	// race — both paths converge).
	dispatch(t, a, "/note", "v2")

	testbed.Wait(t, "resync completed", func() bool { return resyncs.Load() >= 1 })
	if got := b.ID(); got != bID {
		t.Errorf("instance ID changed across reconnect: %s -> %s", bID, got)
	}
	testbed.Wait(t, "missed change converged at B", func() bool {
		return attrOf(t, b, "/note", widget.AttrValue).AsString() == "v2"
	})
	testbed.Wait(t, "coupling restored", func() bool { return a.Coupled("/note") && b.Coupled("/note") })
	testbed.Wait(t, "v2 resolved", func() bool { return srv.Stats().PendingEvents == 0 })

	// Live coupling works again after the resume.
	dispatch(t, a, "/note", "v3")
	testbed.Wait(t, "post-resync event reaches B", func() bool {
		return attrOf(t, b, "/note", widget.AttrValue).AsString() == "v3"
	})
	if st := srv.Stats(); st.Resumes < 1 {
		t.Errorf("Resumes = %d, want >= 1", st.Resumes)
	}
}

// TestChaosDuplicatedFramesConverge delivers every server-to-client frame
// twice on both members: duplicated Execs, EventResults, SetLocks and link
// notifications must leave the group consistent and fully unlocked.
func TestChaosDuplicatedFramesConverge(t *testing.T) {
	dup := faultnet.Schedule{Seed: 11, DupProb: 1}
	srv, bed := newBed(t, server.Options{})
	spec := `textfield note value=""`
	a := bed.Dial(testbed.Member{AppType: "editor", User: "alice", Spec: spec, Fault: &dup})
	b := bed.Dial(testbed.Member{AppType: "editor", User: "bob", Spec: spec, Fault: &dup})

	mustOK(t, a.Declare("/note"))
	mustOK(t, b.Declare("/note"))
	mustOK(t, a.Couple("/note", b.Ref("/note")))
	testbed.Wait(t, "coupling mirrored", func() bool { return a.Coupled("/note") && b.Coupled("/note") })

	dispatch(t, a, "/note", "v1")
	testbed.Wait(t, "value at B despite duplication", func() bool {
		return attrOf(t, b, "/note", widget.AttrValue).AsString() == "v1"
	})
	testbed.Wait(t, "no pending events", func() bool { return srv.Stats().PendingEvents == 0 })
	testbed.Wait(t, "group unlocked", func() bool { return !disabled(t, b, "/note") })

	dispatch(t, b, "/note", "v2")
	testbed.Wait(t, "reverse event converges", func() bool {
		return attrOf(t, a, "/note", widget.AttrValue).AsString() == "v2"
	})
}

// TestChaosPanickingCallbacksContained exercises the panic-recovery guards
// (S1): a panicking remote-event callback must not kill the client, must
// not wedge the group (the ExecAck still goes out), and a panicking command
// handler must leave later commands deliverable.
func TestChaosPanickingCallbacksContained(t *testing.T) {
	srv, bed := newBed(t, server.Options{})
	spec := `textfield note value=""`
	a := bed.Dial(testbed.Member{AppType: "editor", User: "alice", Spec: spec})

	var events atomic.Int32
	bopts := client.Options{
		OnRemoteEvent: func(e *widget.Event) {
			events.Add(1)
			panic("remote event callback exploded")
		},
	}
	b := bed.Dial(testbed.Member{AppType: "editor", User: "bob", Spec: spec, Options: bopts})

	var commands atomic.Int32
	b.OnCommand("boom", func(from couple.InstanceID, payload []byte) {
		commands.Add(1)
		panic("command handler exploded")
	})

	mustOK(t, a.Declare("/note"))
	mustOK(t, b.Declare("/note"))
	mustOK(t, a.Couple("/note", b.Ref("/note")))
	testbed.Wait(t, "coupling mirrored", func() bool { return a.Coupled("/note") && b.Coupled("/note") })

	dispatch(t, a, "/note", "v1")
	testbed.Wait(t, "event applied despite panicking callback", func() bool {
		return events.Load() >= 1 &&
			attrOf(t, b, "/note", widget.AttrValue).AsString() == "v1"
	})
	// The ack must have gone out even though the callback panicked.
	testbed.Wait(t, "event acknowledged", func() bool { return srv.Stats().PendingEvents == 0 })
	testbed.Wait(t, "group unlocked", func() bool { return !disabled(t, b, "/note") })

	mustOK(t, a.SendCommand("boom", []byte("x")))
	testbed.Wait(t, "panicking command handler ran", func() bool { return commands.Load() >= 1 })

	// The client survived both panics: it still answers RPCs and commands.
	mustOK(t, a.SendCommand("boom", []byte("y")))
	testbed.Wait(t, "second command delivered", func() bool { return commands.Load() >= 2 })
	dispatch(t, a, "/note", "v2")
	testbed.Wait(t, "later events still propagate", func() bool {
		return attrOf(t, b, "/note", widget.AttrValue).AsString() == "v2"
	})
	if _, err := b.Instances(); err != nil {
		t.Errorf("Instances after panics: %v", err)
	}
}

// TestChaosSlowDispatchDoesNotBlockReplies is the regression test for the
// read-loop backpressure hazard (S2): with the dispatch consumer stuck in
// an application handler and hundreds of messages queued behind it, the
// read loop must keep draining the connection and routing RPC replies —
// under the old bounded inbox the 257th push wedged the read loop and
// every outstanding call timed out.
func TestChaosSlowDispatchDoesNotBlockReplies(t *testing.T) {
	_, bed := newBed(t, server.Options{})
	a := bed.Dial(testbed.Member{AppType: "editor", User: "alice"})
	b := bed.Dial(testbed.Member{AppType: "editor", User: "bob", Options: client.Options{RPCTimeout: 2 * time.Second}})

	release := make(chan struct{})
	var delivered atomic.Int32
	b.OnCommand("flood", func(from couple.InstanceID, payload []byte) {
		delivered.Add(1)
		<-release // the first delivery wedges the dispatch consumer
	})

	// Far more traffic than the old 256-slot inbox could absorb.
	const floodN = 300
	for i := 0; i < floodN; i++ {
		mustOK(t, a.SendCommand("flood", nil))
	}
	testbed.Wait(t, "dispatch consumer wedged", func() bool { return delivered.Load() >= 1 })

	// The reply to this call arrives on the same connection behind ~299
	// queued commands; it must be routed without waiting for the handler.
	if _, err := b.Instances(); err != nil {
		t.Fatalf("Instances while dispatch is wedged: %v", err)
	}

	close(release)
	testbed.Wait(t, "flood fully delivered", func() bool { return delivered.Load() == floodN })
}
