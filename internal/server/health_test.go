package server_test

import (
	"testing"
	"time"

	"cosoft/internal/attr"
	"cosoft/internal/faultnet"
	"cosoft/internal/obs"
	"cosoft/internal/server"
	"cosoft/internal/testbed"
	"cosoft/internal/widget"
)

// TestHealthStragglerAttribution drives a 3-member coupling group with one
// member's link degraded by faultnet and asserts the health plane names that
// member as the critical path: highest ack-latency EWMA (and therefore the
// group's reported straggler) and the most last-acker credits.
func TestHealthStragglerAttribution(t *testing.T) {
	srv, bed := newBed(t, server.Options{})
	a := bed.Dial(testbed.Member{AppType: "editor", User: "alice", Spec: `textfield note value=""`})
	b := bed.Dial(testbed.Member{AppType: "editor", User: "bob", Spec: `textfield note value=""`})
	// Every Exec the server sends toward C is held back 25ms, so C's acks
	// arrive a full delay after A's and B's.
	c := bed.Dial(testbed.Member{AppType: "editor", User: "carol", Spec: `textfield note value=""`, Fault: &faultnet.Schedule{Delay: 25 * time.Millisecond}})

	mustOK(t, a.Declare("/note"))
	mustOK(t, b.Declare("/note"))
	mustOK(t, c.Declare("/note"))
	mustOK(t, a.Couple("/note", b.Ref("/note")))
	mustOK(t, a.Couple("/note", c.Ref("/note")))
	testbed.Wait(t, "coupling mirrored at C", func() bool { return c.Coupled("/note") })

	const events = 5
	for i := 0; i < events; i++ {
		mustOK(t, a.Registry().Dispatch(&widget.Event{
			Path: "/note", Name: widget.EventChanged, Args: []attr.Value{attr.String("v")},
		}))
		testbed.Wait(t, "event resolved", func() bool { return srv.Stats().PendingEvents == 0 })
	}

	rep := srv.Health()
	if !rep.MemberAttribution {
		t.Fatal("member attribution should be on by default")
	}
	if rep.UptimeNS <= 0 {
		t.Errorf("uptime = %d", rep.UptimeNS)
	}
	if len(rep.Groups) != 1 {
		t.Fatalf("groups = %+v", rep.Groups)
	}
	g := rep.Groups[0]
	if len(g.Refs) != 3 || len(g.Members) != 3 {
		t.Fatalf("group = %+v", g)
	}
	if g.PendingEvents != 0 || g.LockHolder != "" {
		t.Errorf("quiescent group shows pending=%d holder=%q", g.PendingEvents, g.LockHolder)
	}
	if g.Straggler != string(c.ID()) {
		t.Fatalf("straggler = %q, want %q (members %+v)", g.Straggler, c.ID(), g.Members)
	}
	// Members are sorted slowest-first, so the straggler leads the list.
	slow := g.Members[0]
	if slow.Instance != string(c.ID()) || !slow.Connected {
		t.Fatalf("slowest member = %+v", slow)
	}
	// The origin never acks its own events: B and C each acked all of them.
	if slow.Acks != events {
		t.Errorf("straggler acks = %d, want %d", slow.Acks, events)
	}
	// Every event's unlock waited on C, so C holds every last-acker credit.
	if slow.LastAcks != events {
		t.Errorf("straggler last_acks = %d, want %d", slow.LastAcks, events)
	}
	if slow.Timeouts != 0 {
		t.Errorf("straggler timeouts = %d", slow.Timeouts)
	}
	const delayNS = float64(25 * time.Millisecond)
	if slow.AckEWMANS < delayNS {
		t.Errorf("straggler ack EWMA = %.0fns, want >= the injected %.0fns delay", slow.AckEWMANS, delayNS)
	}
	for _, m := range g.Members[1:] {
		if m.AckEWMANS > slow.AckEWMANS {
			t.Errorf("member %s EWMA %.0f exceeds straggler's %.0f", m.Instance, m.AckEWMANS, slow.AckEWMANS)
		}
		if m.LastAcks != 0 {
			t.Errorf("member %s last_acks = %d, want 0", m.Instance, m.LastAcks)
		}
		if m.Instance == string(a.ID()) && m.Acks != 0 {
			t.Errorf("origin acks = %d, want 0", m.Acks)
		}
	}
	if slow.AckP99NS < slow.AckP50NS || slow.AckP50NS <= 0 {
		t.Errorf("straggler quantiles p50=%.0f p99=%.0f", slow.AckP50NS, slow.AckP99NS)
	}

	// Loop accounting: the global loop (registration, coupling) and the
	// shard loops (events, acks) must each have accumulated busy time.
	if len(rep.Loops) < 2 || rep.Loops[0].Name != "global" {
		t.Fatalf("loops = %+v", rep.Loops)
	}
	gl := rep.Loops[0]
	if gl.BusyNS == 0 {
		t.Error("global loop busy_ns = 0 after traffic")
	}
	if gl.Utilization < 0 || gl.Utilization > 1 {
		t.Errorf("global utilization = %g", gl.Utilization)
	}
	var shardEvents, shardBusy uint64
	for _, lp := range rep.Loops[1:] {
		shardEvents += lp.Events
		shardBusy += lp.BusyNS
	}
	if shardEvents != events {
		t.Errorf("shard events = %d, want %d", shardEvents, events)
	}
	if shardBusy == 0 {
		t.Error("shard loops busy_ns = 0 after traffic")
	}
}

// TestHealthTimeoutAttribution wedges one member entirely so the event
// deadline fires, and asserts the timeout is charged to that member.
func TestHealthTimeoutAttribution(t *testing.T) {
	srv, bed := newBed(t, server.Options{EventDeadline: 30 * time.Millisecond})
	a := bed.Dial(testbed.Member{AppType: "editor", User: "alice", Spec: `textfield note value=""`})
	b := bed.Dial(testbed.Member{AppType: "editor", User: "bob", Spec: `textfield note value=""`, Fault: &faultnet.Schedule{}})
	fc := bed.Fault(b)

	mustOK(t, a.Declare("/note"))
	mustOK(t, b.Declare("/note"))
	mustOK(t, a.Couple("/note", b.Ref("/note")))
	testbed.Wait(t, "coupling mirrored at B", func() bool { return b.Coupled("/note") })

	fc.Blackhole() // B never sees the Exec, so it can never ack
	mustOK(t, a.Registry().Dispatch(&widget.Event{
		Path: "/note", Name: widget.EventChanged, Args: []attr.Value{attr.String("v")},
	}))
	testbed.Wait(t, "deadline resolution", func() bool { return srv.Stats().EventTimeouts == 1 })

	rep := srv.Health()
	if len(rep.Groups) != 1 {
		t.Fatalf("groups = %+v", rep.Groups)
	}
	for _, m := range rep.Groups[0].Members {
		want := uint64(0)
		if m.Instance == string(b.ID()) {
			want = 1
		}
		if m.Timeouts != want {
			t.Errorf("member %s timeouts = %d, want %d", m.Instance, m.Timeouts, want)
		}
	}
}

// TestHealthAttributionDisabled runs the same traffic with metrics disabled
// and asserts the family stays inert while topology still reports.
func TestHealthAttributionDisabled(t *testing.T) {
	srv, bed := newBed(t, server.Options{Metrics: obs.Disabled})
	a := bed.Dial(testbed.Member{AppType: "editor", User: "alice", Spec: `textfield note value=""`})
	b := bed.Dial(testbed.Member{AppType: "editor", User: "bob", Spec: `textfield note value=""`})

	mustOK(t, a.Declare("/note"))
	mustOK(t, b.Declare("/note"))
	mustOK(t, a.Couple("/note", b.Ref("/note")))
	testbed.Wait(t, "coupling mirrored at B", func() bool { return b.Coupled("/note") })
	mustOK(t, a.Registry().Dispatch(&widget.Event{
		Path: "/note", Name: widget.EventChanged, Args: []attr.Value{attr.String("v")},
	}))
	testbed.Wait(t, "event resolved", func() bool { return srv.Stats().PendingEvents == 0 })

	rep := srv.Health()
	if rep.MemberAttribution {
		t.Fatal("attribution should be disabled")
	}
	if len(rep.Groups) != 1 {
		t.Fatalf("groups = %+v", rep.Groups)
	}
	g := rep.Groups[0]
	if g.Straggler != "" {
		t.Errorf("straggler = %q with attribution off", g.Straggler)
	}
	if len(g.Members) != 2 {
		t.Fatalf("members = %+v", g.Members)
	}
	for _, m := range g.Members {
		if m.Acks != 0 || m.AckEWMANS != 0 {
			t.Errorf("member %s has stats with attribution off: %+v", m.Instance, m)
		}
		if !m.Connected {
			t.Errorf("member %s should report connected", m.Instance)
		}
	}
}
