package server_test

import (
	"testing"
	"time"

	"cosoft/internal/attr"
	"cosoft/internal/clock"
	"cosoft/internal/couple"
	"cosoft/internal/server"
	"cosoft/internal/testbed"
	"cosoft/internal/widget"
	"cosoft/internal/wire"
)

// The bounds of the server's defenses as README's fault-tolerance table
// documents them. The tests below hold a server given nothing but a clock to
// these numbers, not to the constants that implement them.
const (
	documentedHeartbeat = 5 * time.Second
	documentedDeadline  = 10 * time.Second
	documentedLimit     = 1024
	// defenseStep is how far these tests move the clock per poll: a quarter
	// of the outbox grace, so a sweep that runs a few polls late still
	// judges an event past its deadline long before its member's liveness
	// runs out.
	defenseStep = 250 * time.Millisecond
)

// bare is a registered wire.Conn with no client around it: the test sees
// every frame the server sends it, and it sends nothing the test does not
// write — no Pong, no ExecAck.
type bare struct {
	t    *testing.T
	id   couple.InstanceID
	conn *wire.Conn
	recv chan wire.Envelope
	seq  uint64
	// pings counts the Pings call and answer have taken off recv.
	pings int
}

// dialBare registers a bare peer. Its reader takes every frame off the
// connection, so the server's writes to it never back up.
func dialBare(t *testing.T, bed *testbed.Bed, user string) *bare {
	t.Helper()
	b := &bare{t: t, conn: wire.NewConn(bed.Conn()), recv: make(chan wire.Envelope, 4096), seq: 1}
	if err := b.conn.Write(wire.Envelope{Seq: 1, Msg: wire.Register{AppType: "bare", Host: "h", User: user}}); err != nil {
		t.Fatalf("register %s: %v", user, err)
	}
	env, err := b.conn.Read()
	reg, ok := env.Msg.(wire.Registered)
	if err != nil || !ok {
		t.Fatalf("register %s: %v %v", user, env.Msg, err)
	}
	b.id = reg.ID
	go func() {
		defer close(b.recv)
		for {
			env, err := b.conn.Read()
			if err != nil {
				return
			}
			b.recv <- env
		}
	}()
	return b
}

// call writes msg and returns the server's answer to it, counting the Pings
// that arrive first.
func (b *bare) call(msg wire.Message) wire.Envelope {
	b.t.Helper()
	b.seq++
	if err := b.conn.Write(wire.Envelope{Seq: b.seq, Msg: msg}); err != nil {
		b.t.Fatalf("%s: %v", msg.MsgType(), err)
	}
	deadline := time.After(15 * time.Second)
	for {
		select {
		case env, ok := <-b.recv:
			if !ok {
				b.t.Fatalf("%s: connection closed", msg.MsgType())
			}
			if _, ping := env.Msg.(wire.Ping); ping {
				b.pings++
			}
			if env.RefSeq == b.seq {
				return env
			}
		case <-deadline:
			b.t.Fatalf("%s: no answer", msg.MsgType())
		}
	}
}

// answer takes what has arrived off recv and answers each Ping with a Pong,
// reporting whether there was one.
func (b *bare) answer() bool {
	b.t.Helper()
	pinged := false
	for {
		select {
		case env := <-b.recv:
			if ping, ok := env.Msg.(wire.Ping); ok {
				b.pings++
				pinged = true
				if err := b.conn.Write(wire.Envelope{Msg: wire.Pong{Nonce: ping.Nonce}}); err != nil {
					b.t.Fatalf("pong: %v", err)
				}
			}
		default:
			return pinged
		}
	}
}

// TestDefensesOnByDefault: a server given nothing but a clock resolves an
// event a member never acknowledges at the event deadline, drops a peer that
// stopped answering after three heartbeats of silence, and evicts a member
// kept over the outbox limit past the grace. None of this needs an option.
func TestDefensesOnByDefault(t *testing.T) {
	spec := `textfield note value=""`
	t.Run("event deadline", func(t *testing.T) {
		clk := clock.NewManual()
		srv, bed := newBed(t, server.Options{Clock: clk})
		a := bed.Dial(testbed.Member{AppType: "editor", User: "alice", Spec: spec})
		rc := bed.Raw(wire.Register{AppType: "zombie", Host: "h", User: "mallory"}) // never acks
		rc.MustOK(wire.Declare{Path: "/note", Class: "textfield"})
		mustOK(t, a.Declare("/note"))
		mustOK(t, a.Couple("/note", couple.ObjectRef{Instance: rc.ID, Path: "/note"}))

		start := clk.Now()
		dispatch(t, a, "/note", "v1")
		testbed.Wait(t, "event pending on the raw member", func() bool { return srv.Stats().PendingEvents == 1 })
		testbed.AdvanceUntil(t, clk, defenseStep, "event deadline", func() bool { return srv.Stats().EventTimeouts == 1 })
		if waited := clk.Now().Sub(start); waited <= documentedDeadline {
			t.Errorf("event timed out after %v, want it held for the %v deadline", waited, documentedDeadline)
		}
		testbed.Wait(t, "group unlocked", func() bool {
			return srv.Stats().PendingEvents == 0 && srv.LocksHeld() == 0 && !disabled(t, a, "/note")
		})
		if err := a.DispatchChecked(&widget.Event{Path: "/note", Name: widget.EventChanged, Args: []attr.Value{attr.String("v2")}}); err != nil {
			t.Fatalf("the origin's next event: %v", err)
		}
	})

	t.Run("liveness", func(t *testing.T) {
		clk := clock.NewManual()
		srv, bed := newBed(t, server.Options{Clock: clk})
		a := bed.Dial(testbed.Member{AppType: "editor", User: "alice", Spec: spec})
		p := dialBare(t, bed, "mallory")
		if e, bad := p.call(wire.Declare{Path: "/note", Class: "textfield"}).Msg.(wire.Err); bad {
			t.Fatalf("declare: %s", e.Text)
		}
		mustOK(t, a.Declare("/note"))
		mustOK(t, a.Couple("/note", couple.ObjectRef{Instance: p.id, Path: "/note"}))
		silentSince := clk.Now() // p sends nothing from here on

		// The first event times out at its deadline; the second is still
		// pending on p, its group locked, when p is declared dead.
		dispatch(t, a, "/note", "v1")
		testbed.AdvanceUntil(t, clk, defenseStep, "first event's deadline", func() bool { return srv.Stats().EventTimeouts == 1 })
		testbed.Wait(t, "group unlocked", func() bool {
			return srv.Stats().PendingEvents == 0 && srv.LocksHeld() == 0 && !disabled(t, a, "/note")
		})
		dispatch(t, a, "/note", "v2")
		testbed.Wait(t, "second event pending", func() bool { return srv.Stats().PendingEvents == 1 })
		testbed.AdvanceUntil(t, clk, defenseStep, "silent peer declared dead", func() bool {
			st := srv.Stats()
			return st.LivenessTimeouts == 1 && st.Instances == 1 && st.PendingEvents == 0
		})
		if silent := clk.Now().Sub(silentSince); silent <= 3*documentedHeartbeat {
			t.Errorf("peer dropped after %v of silence, want over three %v heartbeats", silent, documentedHeartbeat)
		}
		if n := srv.Stats().EventTimeouts; n != 1 {
			t.Errorf("%d event timeouts: the drop, not a deadline, must resolve the second event", n)
		}
		if n := srv.LocksHeld(); n != 0 {
			t.Errorf("%d locks held after the silent peer was dropped", n)
		}
		testbed.Wait(t, "origin re-enabled and decoupled", func() bool { return !disabled(t, a, "/note") && !a.Coupled("/note") })
	})

	t.Run("eviction", func(t *testing.T) {
		clk := clock.NewManual()
		srv, bed := newBed(t, server.Options{Clock: clk})
		a := bed.Dial(testbed.Member{AppType: "editor", User: "alice", Spec: spec})
		b := bed.Dial(testbed.Member{AppType: "editor", User: "bob", Spec: spec})
		fc := bed.Fault(b)
		mustOK(t, a.Declare("/note"))
		mustOK(t, b.Declare("/note"))
		mustOK(t, a.Couple("/note", b.Ref("/note")))
		testbed.Wait(t, "coupling mirrored", func() bool { return a.Coupled("/note") && b.Coupled("/note") })

		fc.Hang() // bob stops draining: an event's shared body, then commands, queue behind him
		dispatch(t, a, "/note", "v1")
		for i := 0; i <= documentedLimit; i++ {
			mustOK(t, a.SendCommand("noop", nil, b.ID()))
		}
		testbed.AdvanceUntil(t, clk, defenseStep, "stalled member evicted", func() bool {
			st := srv.Stats()
			return st.Evictions == 1 && st.Instances == 1 && st.PendingEvents == 0
		})
		if st := srv.Stats(); st.OutboxHighWater <= documentedLimit || st.EventTimeouts != 0 || st.LivenessTimeouts != 0 {
			t.Errorf("backlog peaked at %d, %d event and %d liveness timeouts: want over %d, and the eviction first",
				st.OutboxHighWater, st.EventTimeouts, st.LivenessTimeouts, documentedLimit)
		}
		testbed.Wait(t, "every shared body given back", func() bool { return wire.LiveSharedBodies() == 0 })
	})
}

// TestPingOnlyASilentPeer: the sweep pings a connection only once it has
// sent nothing for a heartbeat, since any frame proves its peer alive. A peer
// that sends a frame every half heartbeat gets no Ping in ten heartbeats; a
// silent peer gets its first Ping after a heartbeat of silence, and
// answering each with a Pong keeps it registered for as long.
func TestPingOnlyASilentPeer(t *testing.T) {
	clk := clock.NewManual()
	srv, bed := newBed(t, server.Options{Clock: clk})
	busy, quiet := dialBare(t, bed, "busy"), dialBare(t, bed, "quiet")
	start := clk.Now()
	var firstPing time.Time
	answerQuiet := func() {
		if quiet.answer() && firstPing.IsZero() {
			firstPing = clk.Now()
		}
	}
	for elapsed := time.Duration(0); elapsed < 10*documentedHeartbeat; elapsed += documentedHeartbeat / 2 {
		// A round trip of busy's before each half heartbeat: the server has
		// read its frame at the current time before the clock moves on.
		if _, ok := busy.call(wire.Ping{Nonce: 1}).Msg.(wire.Pong); !ok {
			t.Fatal("busy's Ping not answered with a Pong")
		}
		testbed.AdvanceUntil(t, clk, defenseStep, "the next half heartbeat", func() bool {
			answerQuiet()
			return clk.Now().Sub(start) >= elapsed+documentedHeartbeat/2
		})
	}
	testbed.Wait(t, "quiet pinged", func() bool { answerQuiet(); return !firstPing.IsZero() })
	if silent := firstPing.Sub(start); silent < documentedHeartbeat {
		t.Errorf("quiet pinged after %v of silence, want a %v heartbeat first", silent, documentedHeartbeat)
	}
	// Every Ping a sweep queued for busy before quiet's last one arrives
	// ahead of this answer.
	busy.call(wire.Ping{Nonce: 2})
	if busy.pings != 0 {
		t.Errorf("busy, which sent a frame every half heartbeat, was pinged %d times", busy.pings)
	}
	if st := srv.Stats(); st.LivenessTimeouts != 0 || st.Instances != 2 {
		t.Errorf("%d liveness timeouts and %d instances after ten heartbeats, want quiet kept alive by its Pongs", st.LivenessTimeouts, st.Instances)
	}
}
