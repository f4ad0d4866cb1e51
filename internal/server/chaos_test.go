package server_test

import (
	"sync/atomic"
	"testing"
	"time"

	"cosoft/internal/attr"
	"cosoft/internal/client"
	"cosoft/internal/clock"
	"cosoft/internal/couple"
	"cosoft/internal/netsim"
	"cosoft/internal/server"
	"cosoft/internal/testbed"
	"cosoft/internal/widget"
	"cosoft/internal/wire"
)

// Chaos tests drive the fault-tolerance layer with injected network
// failures. They are named TestChaos* so CI can soak them repeatedly
// (go test -race -run Chaos -count=3). All assertions are on convergence
// (state, counters), never on elapsed wall time; the deadline, liveness and
// eviction scenarios move time on a clock.Manual.

// sweepStep is how far a test moves its clock.Manual per poll while it waits
// for a sweep to judge a deadline: half a sweep period, so a sweep that runs
// a few polls late still times an event out long before its silent member's
// liveness runs out.
const sweepStep = server.SweepPeriod / 2

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
	clk := clock.NewManual()
	srv, bed := newBed(t, server.Options{Clock: clk})
	spec := `textfield note value=""`
	a := bed.Dial(testbed.Member{AppType: "editor", User: "alice", Spec: spec})
	b := bed.Dial(testbed.Member{AppType: "editor", User: "bob", Spec: spec})
	c := bed.Dial(testbed.Member{AppType: "editor", User: "carol", Spec: spec})
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
	testbed.AdvanceUntil(t, clk, sweepStep, "event deadline resolves the wedged event", func() bool {
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
// Exec and never acknowledged it, long before the event deadline: the
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
	// Wait for the OK: a Couple to the object must not overtake its Declare.
	rc.MustOK(wire.Declare{Path: "/note", Class: "textfield"})
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
// floods it: once its outbox backlog stays over the outbox limit for longer
// than the grace period, the server must evict it instead of buffering
// forever.
func TestChaosSlowClientEvicted(t *testing.T) {
	clk := clock.NewManual()
	srv, bed := newBed(t, server.Options{Clock: clk})
	a := bed.Dial(testbed.Member{AppType: "editor", User: "alice", Spec: `textfield note value=""`})
	fc := bed.Fault(bed.Dial(testbed.Member{AppType: "viewer", User: "bob", Spec: `textfield note value=""`}))

	fc.Hang() // bob's receive window closes for good

	// Commands broadcast without group locking, so the flood is not
	// serialized by event acknowledgements.
	flood(t, a)
	testbed.AdvanceUntil(t, clk, sweepStep, "slow client evicted", func() bool {
		st := srv.Stats()
		return st.Evictions >= 1 && st.Instances == 1
	})
}

// flood has c broadcast one command more than the outbox limit holds: a
// backlog past the limit at a member that does not drain, built without the
// group floor.
func flood(t *testing.T, c *client.Client) {
	t.Helper()
	for i := 0; i <= server.OutboxLimit; i++ {
		mustOK(t, c.SendCommand("noop", nil))
	}
}

// TestChaosPartitionedMemberDeclaredDead black-holes a member (its packets
// die silently in both directions) mid-event: the event deadline must
// resolve the event, then the liveness sweep declare the member dead,
// release what it held and notify the survivors of the lost coupling.
func TestChaosPartitionedMemberDeclaredDead(t *testing.T) {
	clk := clock.NewManual()
	srv, bed := newBed(t, server.Options{Clock: clk})
	spec := `textfield note value=""`
	a := bed.Dial(testbed.Member{AppType: "editor", User: "alice", Spec: spec})
	b := bed.Dial(testbed.Member{AppType: "editor", User: "bob", Spec: spec})
	fc := bed.Fault(b)

	mustOK(t, a.Declare("/note"))
	mustOK(t, b.Declare("/note"))
	mustOK(t, a.Couple("/note", b.Ref("/note")))
	testbed.Wait(t, "coupling mirrored", func() bool { return a.Coupled("/note") && b.Coupled("/note") })

	fc.Blackhole()

	// The Exec to the partitioned member dies on the wire, and so do the
	// pings. Time moves half a sweep period at a time, and alice makes a
	// round trip at each, so only the partitioned member falls silent: its
	// event times out first, and it is declared dead five seconds later.
	dispatch(t, a, "/note", "v1")
	testbed.AdvanceUntil(t, clk, sweepStep, "partitioned member declared dead", func() bool {
		if _, err := a.Instances(); err != nil {
			t.Fatalf("alice's round trip: %v", err)
		}
		st := srv.Stats()
		return st.LivenessTimeouts >= 1 && st.Instances == 1 && st.PendingEvents == 0
	})
	if st := srv.Stats(); st.EventTimeouts != 1 || st.LivenessTimeouts != 1 {
		t.Errorf("%d event timeouts and %d liveness timeouts, want the event's deadline and then one drop",
			st.EventTimeouts, st.LivenessTimeouts)
	}
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
	b := bed.Dial(testbed.Member{AppType: "editor", User: "bob", Spec: spec,
		Reconnect: &client.ReconnectOptions{
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
	dup := netsim.Schedule{Seed: 11, DupProb: 1}
	srv, bed := newBed(t, server.Options{})
	spec := `textfield note value=""`
	a := bed.Dial(testbed.Member{AppType: "editor", User: "alice", Spec: spec, Fault: dup})
	b := bed.Dial(testbed.Member{AppType: "editor", User: "bob", Spec: spec, Fault: dup})

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
