package server_test

import (
	"net"
	"sync/atomic"
	"testing"
	"time"

	"cosoft/internal/attr"
	"cosoft/internal/client"
	"cosoft/internal/couple"
	"cosoft/internal/faultnet"
	"cosoft/internal/netsim"
	"cosoft/internal/server"
	"cosoft/internal/widget"
	"cosoft/internal/wire"
)

// Chaos tests drive the fault-tolerance layer with injected network
// failures. They are named TestChaos* so CI can soak them repeatedly
// (go test -race -run Chaos -count=3). All assertions are on convergence
// (state, counters), never on elapsed wall time.

// dialChaos is harness.dial with the server side of the connection wrapped
// in a fault injector, so tests can hang, partition or degrade the link the
// server sees. A hung server-side write models a peer whose TCP receive
// window is closed — the classic wedged-client scenario.
func (h *harness) dialChaos(appType, user, spec string, copts client.Options, sched faultnet.Schedule) (*client.Client, *faultnet.Conn) {
	h.t.Helper()
	reg := widget.NewRegistry()
	if spec != "" {
		widget.MustBuild(reg, "/", spec)
	}
	link := netsim.NewLink(0)
	fc := faultnet.Wrap(link.B, sched)
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		h.srv.HandleConn(wire.NewConn(fc))
	}()
	copts.AppType = appType
	copts.User = user
	copts.Host = "testhost"
	copts.Registry = reg
	if copts.RPCTimeout == 0 {
		copts.RPCTimeout = 5 * time.Second
	}
	copts.Batching = true
	c, err := client.New(link.A, copts)
	if err != nil {
		h.t.Fatalf("dial %s: %v", appType, err)
	}
	h.t.Cleanup(c.Close)
	// Runs before c.Close (LIFO): a still-faulty connection must not stall
	// the orderly Deregister wait.
	h.t.Cleanup(func() { fc.Close() })
	h.onTeardown()
	return c, fc
}

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
	h := newHarness(t, server.Options{EventDeadline: 150 * time.Millisecond})
	spec := `textfield note value=""`
	a := h.dial("editor", "alice", spec, client.Options{})
	b := h.dialPlain("editor", "bob", spec, client.Options{})
	c, fc := h.dialChaos("editor", "carol", spec, client.Options{}, faultnet.Schedule{})

	mustOK(t, a.Declare("/note"))
	mustOK(t, b.Declare("/note"))
	mustOK(t, c.Declare("/note"))
	mustOK(t, a.Couple("/note", b.Ref("/note")))
	mustOK(t, a.Couple("/note", c.Ref("/note")))
	waitFor(t, "group mirrored", func() bool {
		return a.Coupled("/note") && b.Coupled("/note") && c.Coupled("/note")
	})

	fc.Hang() // carol's connection wedges: Exec undeliverable, no ack coming

	dispatch(t, a, "/note", "v1")
	waitFor(t, "value at B", func() bool {
		return attrOf(t, b, "/note", widget.AttrValue).AsString() == "v1"
	})
	waitFor(t, "event deadline resolves the wedged event", func() bool {
		st := h.srv.Stats()
		return st.EventTimeouts >= 1 && st.PendingEvents == 0
	})
	waitFor(t, "survivor re-enabled", func() bool { return !disabled(t, b, "/note") })

	// The group lock must be free again: a second event goes through.
	fc.Restore()
	dispatch(t, a, "/note", "v2")
	waitFor(t, "second event reaches B", func() bool {
		return attrOf(t, b, "/note", widget.AttrValue).AsString() == "v2"
	})
	waitFor(t, "recovered member catches up", func() bool {
		return attrOf(t, c, "/note", widget.AttrValue).AsString() == "v2"
	})
}

// TestChaosMidEventDisconnectUnwedgesGroup kills a member that received an
// Exec and never acknowledged it (no event deadline configured): the
// disconnect alone must resolve the pending event, release the group lock,
// re-enable the surviving members and leak nothing.
func TestChaosMidEventDisconnectUnwedgesGroup(t *testing.T) {
	h := newHarness(t, server.Options{})
	spec := `textfield note value=""`
	a := h.dial("editor", "alice", spec, client.Options{})
	b := h.dial("editor", "bob", spec, client.Options{})

	// A raw wire-level member that declares an object and then ignores every
	// Exec: a client whose process stopped making progress but whose
	// connection is still up.
	link := netsim.NewLink(0)
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		h.srv.HandleConn(wire.NewConn(link.B))
	}()
	rc := wire.NewConn(link.A)
	t.Cleanup(func() { rc.Close() })
	if err := rc.Write(wire.Envelope{Seq: 1, Msg: wire.Register{AppType: "zombie", Host: "h", User: "mallory"}}); err != nil {
		t.Fatalf("register: %v", err)
	}
	env, err := rc.Read()
	if err != nil {
		t.Fatalf("registered reply: %v", err)
	}
	fakeID := env.Msg.(wire.Registered).ID
	if err := rc.Write(wire.Envelope{Seq: 2, Msg: wire.Declare{Path: "/note", Class: "textfield"}}); err != nil {
		t.Fatalf("declare: %v", err)
	}
	gotExec := make(chan struct{}, 8)
	go func() {
		// Swallow everything; never acknowledge.
		for {
			env, err := rc.Read()
			if err != nil {
				return
			}
			if _, ok := env.Msg.(wire.Exec); ok {
				gotExec <- struct{}{}
			}
		}
	}()

	mustOK(t, a.Declare("/note"))
	mustOK(t, b.Declare("/note"))
	mustOK(t, a.Couple("/note", b.Ref("/note")))
	mustOK(t, a.Couple("/note", couple.ObjectRef{Instance: fakeID, Path: "/note"}))
	waitFor(t, "group mirrored", func() bool { return a.Coupled("/note") && b.Coupled("/note") })

	dispatch(t, a, "/note", "v1")
	<-gotExec // the zombie received the Exec and sits on it
	waitFor(t, "event pending on the zombie", func() bool {
		return h.srv.Stats().PendingEvents == 1
	})
	waitFor(t, "survivor locked while pending", func() bool { return disabled(t, b, "/note") })

	rc.Close() // the zombie dies mid-event

	waitFor(t, "pending event resolved by disconnect", func() bool {
		st := h.srv.Stats()
		return st.PendingEvents == 0 && st.Instances == 2
	})
	waitFor(t, "survivor re-enabled", func() bool { return !disabled(t, b, "/note") })
	waitFor(t, "value at B", func() bool {
		return attrOf(t, b, "/note", widget.AttrValue).AsString() == "v1"
	})

	// The surviving pair keeps cooperating.
	dispatch(t, a, "/note", "v2")
	waitFor(t, "second event reaches B", func() bool {
		return attrOf(t, b, "/note", widget.AttrValue).AsString() == "v2"
	})
}

// TestChaosSlowClientEvicted stops a client's connection from draining and
// floods it: once its outbox backlog stays over the configured limit for
// longer than the grace period, the server must evict it instead of
// buffering forever.
func TestChaosSlowClientEvicted(t *testing.T) {
	h := newHarness(t, server.Options{
		OutboxLimit: 8,
		OutboxGrace: 60 * time.Millisecond,
	})
	a := h.dial("editor", "alice", `textfield note value=""`, client.Options{})
	_, fc := h.dialChaos("viewer", "bob", `textfield note value=""`, client.Options{}, faultnet.Schedule{})

	fc.Hang() // bob's receive window closes for good

	// Commands broadcast without group locking, so the flood is not
	// serialized by event acknowledgements.
	for i := 0; i < 30; i++ {
		mustOK(t, a.SendCommand("noop", nil))
	}
	waitFor(t, "slow client evicted", func() bool {
		st := h.srv.Stats()
		return st.Evictions >= 1 && st.Instances == 1
	})
}

// TestChaosPartitionedMemberDeclaredDead black-holes a member (its packets
// die silently in both directions) mid-event: the liveness sweep must
// declare it dead, release its locks, resolve the pending event and notify
// the survivors of the lost coupling.
func TestChaosPartitionedMemberDeclaredDead(t *testing.T) {
	h := newHarness(t, server.Options{Heartbeat: 20 * time.Millisecond})
	spec := `textfield note value=""`
	a := h.dial("editor", "alice", spec, client.Options{})
	b, fc := h.dialChaos("editor", "bob", spec, client.Options{}, faultnet.Schedule{})

	mustOK(t, a.Declare("/note"))
	mustOK(t, b.Declare("/note"))
	mustOK(t, a.Couple("/note", b.Ref("/note")))
	waitFor(t, "coupling mirrored", func() bool { return a.Coupled("/note") && b.Coupled("/note") })

	fc.Blackhole()

	// The Exec to the partitioned member dies on the wire; only the liveness
	// timeout can resolve the event.
	dispatch(t, a, "/note", "v1")
	waitFor(t, "partitioned member declared dead", func() bool {
		st := h.srv.Stats()
		return st.LivenessTimeouts >= 1 && st.Instances == 1 && st.PendingEvents == 0
	})
	waitFor(t, "survivor decoupled", func() bool { return !a.Coupled("/note") })
	waitFor(t, "survivor re-enabled", func() bool { return !disabled(t, a, "/note") })

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
	h := newHarness(t, server.Options{})
	spec := `textfield note value=""`
	a := h.dial("editor", "alice", spec, client.Options{})

	var resyncs atomic.Int32
	copts := client.Options{
		Reconnect: &client.ReconnectOptions{
			Dial: func() (net.Conn, error) {
				link := netsim.NewLink(0)
				h.wg.Add(1)
				go func() {
					defer h.wg.Done()
					h.srv.HandleConn(wire.NewConn(link.B))
				}()
				return link.A, nil
			},
			BaseDelay: 5 * time.Millisecond,
			Seed:      7,
			OnResync: func(err error) {
				if err == nil {
					resyncs.Add(1)
				}
			},
		},
	}
	b, fc := h.dialChaos("editor", "bob", spec, copts, faultnet.Schedule{})
	bID := b.ID()

	mustOK(t, a.Declare("/note"))
	mustOK(t, b.Declare("/note"))
	mustOK(t, b.Couple("/note", a.Ref("/note")))
	waitFor(t, "coupling mirrored", func() bool { return a.Coupled("/note") && b.Coupled("/note") })
	dispatch(t, a, "/note", "v1")
	waitFor(t, "value at B", func() bool {
		return attrOf(t, b, "/note", widget.AttrValue).AsString() == "v1"
	})

	fc.Close() // bob's connection dies

	// Alice keeps editing; bob misses this change and must pull it on
	// resync (or receive it as a normal broadcast if the resume won the
	// race — both paths converge).
	dispatch(t, a, "/note", "v2")

	waitFor(t, "resync completed", func() bool { return resyncs.Load() >= 1 })
	if got := b.ID(); got != bID {
		t.Errorf("instance ID changed across reconnect: %s -> %s", bID, got)
	}
	waitFor(t, "missed change converged at B", func() bool {
		return attrOf(t, b, "/note", widget.AttrValue).AsString() == "v2"
	})
	waitFor(t, "coupling restored", func() bool { return a.Coupled("/note") && b.Coupled("/note") })

	// Live coupling works again after the resume.
	dispatch(t, a, "/note", "v3")
	waitFor(t, "post-resync event reaches B", func() bool {
		return attrOf(t, b, "/note", widget.AttrValue).AsString() == "v3"
	})
	if st := h.srv.Stats(); st.Resumes < 1 {
		t.Errorf("Resumes = %d, want >= 1", st.Resumes)
	}
}

// TestChaosDuplicatedFramesConverge delivers every server-to-client frame
// twice on both members: duplicated Execs, EventResults, SetLocks and link
// notifications must leave the group consistent and fully unlocked.
func TestChaosDuplicatedFramesConverge(t *testing.T) {
	dup := faultnet.Schedule{Seed: 11, DupProb: 1}
	h := newHarness(t, server.Options{})
	spec := `textfield note value=""`
	a, _ := h.dialChaos("editor", "alice", spec, client.Options{}, dup)
	b, _ := h.dialChaos("editor", "bob", spec, client.Options{}, dup)

	mustOK(t, a.Declare("/note"))
	mustOK(t, b.Declare("/note"))
	mustOK(t, a.Couple("/note", b.Ref("/note")))
	waitFor(t, "coupling mirrored", func() bool { return a.Coupled("/note") && b.Coupled("/note") })

	dispatch(t, a, "/note", "v1")
	waitFor(t, "value at B despite duplication", func() bool {
		return attrOf(t, b, "/note", widget.AttrValue).AsString() == "v1"
	})
	waitFor(t, "no pending events", func() bool { return h.srv.Stats().PendingEvents == 0 })
	waitFor(t, "group unlocked", func() bool { return !disabled(t, b, "/note") })

	dispatch(t, b, "/note", "v2")
	waitFor(t, "reverse event converges", func() bool {
		return attrOf(t, a, "/note", widget.AttrValue).AsString() == "v2"
	})
}

// TestChaosPanickingCallbacksContained exercises the panic-recovery guards
// (S1): a panicking remote-event callback must not kill the client, must
// not wedge the group (the ExecAck still goes out), and a panicking command
// handler must leave later commands deliverable.
func TestChaosPanickingCallbacksContained(t *testing.T) {
	h := newHarness(t, server.Options{})
	spec := `textfield note value=""`
	a := h.dial("editor", "alice", spec, client.Options{})

	var events atomic.Int32
	bopts := client.Options{
		OnRemoteEvent: func(e *widget.Event) {
			events.Add(1)
			panic("remote event callback exploded")
		},
	}
	b := h.dial("editor", "bob", spec, bopts)

	var commands atomic.Int32
	b.OnCommand("boom", func(from couple.InstanceID, payload []byte) {
		commands.Add(1)
		panic("command handler exploded")
	})

	mustOK(t, a.Declare("/note"))
	mustOK(t, b.Declare("/note"))
	mustOK(t, a.Couple("/note", b.Ref("/note")))
	waitFor(t, "coupling mirrored", func() bool { return a.Coupled("/note") && b.Coupled("/note") })

	dispatch(t, a, "/note", "v1")
	waitFor(t, "event applied despite panicking callback", func() bool {
		return events.Load() >= 1 &&
			attrOf(t, b, "/note", widget.AttrValue).AsString() == "v1"
	})
	// The ack must have gone out even though the callback panicked.
	waitFor(t, "event acknowledged", func() bool { return h.srv.Stats().PendingEvents == 0 })
	waitFor(t, "group unlocked", func() bool { return !disabled(t, b, "/note") })

	mustOK(t, a.SendCommand("boom", []byte("x")))
	waitFor(t, "panicking command handler ran", func() bool { return commands.Load() >= 1 })

	// The client survived both panics: it still answers RPCs and commands.
	mustOK(t, a.SendCommand("boom", []byte("y")))
	waitFor(t, "second command delivered", func() bool { return commands.Load() >= 2 })
	dispatch(t, a, "/note", "v2")
	waitFor(t, "later events still propagate", func() bool {
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
	h := newHarness(t, server.Options{})
	a := h.dial("editor", "alice", "", client.Options{})
	b := h.dial("editor", "bob", "", client.Options{RPCTimeout: 2 * time.Second})

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
	waitFor(t, "dispatch consumer wedged", func() bool { return delivered.Load() >= 1 })

	// The reply to this call arrives on the same connection behind ~299
	// queued commands; it must be routed without waiting for the handler.
	if _, err := b.Instances(); err != nil {
		t.Fatalf("Instances while dispatch is wedged: %v", err)
	}

	close(release)
	waitFor(t, "flood fully delivered", func() bool { return delivered.Load() == floodN })
}
