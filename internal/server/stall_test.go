package server_test

import (
	"errors"
	"strconv"
	"testing"
	"time"

	"cosoft/internal/attr"
	"cosoft/internal/client"
	"cosoft/internal/clock"
	"cosoft/internal/netsim"
	"cosoft/internal/obs"
	"cosoft/internal/server"
	"cosoft/internal/testbed"
	"cosoft/internal/widget"
	"cosoft/internal/wire"
)

// stallBed is one server serving two coupling groups over in-process links:
// group A, an origin and a member whose link hangs on stall(), and group B,
// an origin and a member that keep working. The server's deadlines run on
// clk; the clients keep the wall clock.
type stallBed struct {
	srv        *server.Server
	clk        *clock.Manual
	reg        *obs.Registry
	a, stalled *client.Client
	b, peer    *client.Client
	link       *netsim.Conn // the server's end of the stalled member's link
}

func newStallBed(t *testing.T, opts server.Options) *stallBed {
	t.Helper()
	sb := &stallBed{clk: clock.NewManual(), reg: obs.NewRegistry()}
	opts.Metrics, opts.Clock = sb.reg, sb.clk
	sb.srv = server.New(opts)
	bed := testbed.New(t, sb.srv, testbed.Options{})
	spec := `textfield note value=""`
	dial := func(user string) *client.Client {
		c := bed.Dial(testbed.Member{AppType: "editor", User: user, Spec: spec})
		mustOK(t, c.Declare("/note"))
		return c
	}
	sb.a, sb.stalled, sb.b, sb.peer = dial("a"), dial("stalled"), dial("b"), dial("peer")
	sb.link = bed.Fault(sb.stalled)
	mustOK(t, sb.a.Couple("/note", sb.stalled.Ref("/note")))
	mustOK(t, sb.b.Couple("/note", sb.peer.Ref("/note")))
	testbed.Wait(t, "both groups mirrored", func() bool {
		return sb.stalled.Coupled("/note") && sb.peer.Coupled("/note")
	})
	return sb
}

// stall hangs the stalled member's link, whose receive window closes, and has
// group A's origin dispatch one event, so the lock holder's attempt to write
// its Exec takes nothing. The event holds group A's floor until its deadline,
// which the tests never reach.
func (sb *stallBed) stall(t *testing.T) {
	t.Helper()
	sb.link.Hang()
	mustOK(t, sb.a.DispatchChecked(&widget.Event{Path: "/note", Name: widget.EventChanged, Args: []attr.Value{attr.String("stalled")}}))
}

// pushbacks reads the stalled member's server.member.pushbacks off the
// metrics registry, which no loop serializes.
func (sb *stallBed) pushbacks() uint64 {
	e := sb.reg.Snapshot().Families["server.member"].Entries[string(sb.stalled.ID())]
	return e.Counters["pushbacks"]
}

// promptB has group B run one event end to end — verdict at the origin and
// re-execution at the member — and fails the test unless it does so within
// a second.
func (sb *stallBed) promptB(t *testing.T, value string) {
	t.Helper()
	const prompt = time.Second
	start := time.Now()
	for {
		err := sb.b.DispatchChecked(&widget.Event{Path: "/note", Name: widget.EventChanged, Args: []attr.Value{attr.String(value)}})
		if err == nil {
			break
		}
		if !errors.Is(err, client.ErrRejected) || time.Since(start) > prompt {
			t.Fatalf("group B's event %s: %v after %v", value, err, time.Since(start))
		}
		time.Sleep(time.Millisecond) // the previous event's ack is still on its way
	}
	for !attrOf(t, sb.peer, "/note", "value").Equal(attr.String(value)) {
		if time.Since(start) > prompt {
			t.Fatalf("group B's event %s took over %v to reach its member", value, prompt)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestStalledMemberCannotDelayTheEventLock: a member whose link hangs stops
// taking its group's events. The write to it must not wait for the link —
// group B, served under the same event lock, keeps resolving its events
// promptly — and the push-back shows against the member. Commands, which take no floor,
// then build the member's backlog behind its writer past the outbox limit
// until the grace runs out and the member is evicted, and every shared body
// it held is given back.
func TestStalledMemberCannotDelayTheEventLock(t *testing.T) {
	sb := newStallBed(t, server.Options{})
	sb.promptB(t, "before")
	sb.stall(t)

	n := 0
	next := func() string { n++; return strconv.Itoa(n) }
	testbed.Wait(t, "the stalled member's link to push back", func() bool {
		sb.promptB(t, next())
		return sb.pushbacks() > 0
	})
	var seen bool
	for _, g := range sb.srv.Health().Groups {
		for _, m := range g.Members {
			seen = seen || m.Instance == string(sb.stalled.ID()) && m.Pushbacks > 0
		}
	}
	if !seen {
		t.Error("/debug/groups shows no push-back against the stalled member")
	}
	for i := 0; i <= server.OutboxLimit; i++ {
		mustOK(t, sb.b.SendCommand("noop", nil, sb.stalled.ID()))
	}
	testbed.AdvanceUntil(t, sb.clk, sweepStep, "the stalled member evicted", func() bool {
		sb.promptB(t, next())
		return sb.reg.Snapshot().Counters["server.evictions"] == 1
	})
	if hw := sb.reg.Snapshot().Gauges["server.outbox_depth"].HighWater; hw <= server.OutboxLimit {
		t.Errorf("outbox backlog peaked at %d records, want it to build past the limit %d", hw, server.OutboxLimit)
	}
	testbed.Wait(t, "every event resolved and every shared body given back", func() bool {
		return sb.srv.Stats().PendingEvents == 0 && wire.LiveSharedBodies() == 0
	})
	sb.promptB(t, "after")
}

// TestCloseReturnsWhileAMemberPushesBack: Server.Close returns while the
// stalled member's writer is blocked on its tail; the member's connection
// closing, once Close's grace has run out, is what fails the blocked write.
func TestCloseReturnsWhileAMemberPushesBack(t *testing.T) {
	sb := newStallBed(t, server.Options{})
	sb.stall(t)
	testbed.Wait(t, "the stalled member's link to push back", func() bool { return sb.pushbacks() > 0 })
	// What is armed now includes the sweeper's ticker, which stays armed
	// until Close has closed the connections.
	armed := sb.clk.Armed()
	closed := make(chan struct{})
	go func() {
		sb.srv.Close()
		close(closed)
	}()
	sb.clk.BlockUntil(armed + 1) // Close's grace timer
	sb.clk.Advance(time.Second)
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Server.Close did not return while a member pushed back")
	}
}
