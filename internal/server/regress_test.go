package server_test

// Regression tests for protocol bugs found while instrumenting the server
// (see CHANGES.md): stale mirrored coupling information after retracting a
// middle group member, partial command delivery on a bad target, and the
// observability counters exposed through the extended Stats.

import (
	"testing"

	"cosoft/internal/attr"
	"cosoft/internal/client"
	"cosoft/internal/couple"
	"cosoft/internal/obs"
	"cosoft/internal/server"
	"cosoft/internal/widget"
)

// TestRetractMiddleNotifiesBothHalves retracts the middle object of a
// three-instance chain a–b–c and verifies both detached halves heard about
// *every* removed link. The server used to compute the notification group
// after removing the object, so a never learned that b–c died (and c never
// learned about a–b), leaving stale entries in their replicated coupling
// info. The staleness is observable by re-coupling a to c: the mirrored
// group must then contain exactly the two live objects, not the retracted
// one.
func TestRetractMiddleNotifiesBothHalves(t *testing.T) {
	h := newHarness(t, server.Options{})
	a := h.dial("app", "u1", `textfield x`, client.Options{})
	b := h.dial("app", "u2", `textfield x`, client.Options{})
	c := h.dialPlain("app", "u3", `textfield x`, client.Options{})
	for _, cl := range []*client.Client{a, b, c} {
		mustOK(t, cl.Declare("/x"))
	}
	mustOK(t, a.Couple("/x", b.Ref("/x")))
	mustOK(t, b.Couple("/x", c.Ref("/x")))
	waitFor(t, "full chain mirrored at a", func() bool { return len(a.CO("/x")) == 2 })
	waitFor(t, "full chain mirrored at c", func() bool { return len(c.CO("/x")) == 2 })

	// Destroying the widget triggers the automatic Retract (§3.2).
	if err := b.Registry().Destroy("/x"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "a decoupled", func() bool { return !a.Coupled("/x") })
	waitFor(t, "c decoupled", func() bool { return !c.Coupled("/x") })

	// Couple the two surviving halves directly. Any stale b-link left in a
	// mirror would now resurface as a phantom group member.
	mustOK(t, a.Couple("/x", c.Ref("/x")))
	waitFor(t, "new link mirrored at a", func() bool { return a.Coupled("/x") })
	assertCO(t, "a", a.CO("/x"), c.Ref("/x"))
	waitFor(t, "new link mirrored at c", func() bool { return c.Coupled("/x") })
	assertCO(t, "c", c.CO("/x"), a.Ref("/x"))
}

// TestSplitPrunesFarHalfOfMirror is the ghost-member script: in the chain
// X:a – Y:b1 – Z:b2, X decouples a–b1, then Y decouples b1–b2 — which X, no
// longer in that group, is not told — and X couples a–b1 again. X's mirror
// used to keep b1–b2 through the split, so the re-merge brought b2 back as a
// member the server does not have. The mirror now drops, at the split, what
// no local object reaches any more.
func TestSplitPrunesFarHalfOfMirror(t *testing.T) {
	h := newHarness(t, server.Options{})
	x := h.dial("app", "x", `textfield a`, client.Options{})
	y := h.dialPlain("app", "y", `textfield b1`, client.Options{})
	z := h.dial("app", "z", `textfield b2`, client.Options{})
	mustOK(t, x.Declare("/a"))
	mustOK(t, y.Declare("/b1"))
	mustOK(t, z.Declare("/b2"))
	mustOK(t, x.Couple("/a", y.Ref("/b1")))
	mustOK(t, y.Couple("/b1", z.Ref("/b2")))
	waitFor(t, "the chain mirrored at x", func() bool { return len(x.CO("/a")) == 2 })

	mustOK(t, x.Decouple("/a", y.Ref("/b1")))
	if got := x.Links(); len(got) != 0 {
		t.Errorf("x left the group but still mirrors %v", got)
	}
	mustOK(t, y.Decouple("/b1", z.Ref("/b2")))
	mustOK(t, x.Couple("/a", y.Ref("/b1")))
	assertCO(t, "x", x.CO("/a"), y.Ref("/b1"))
	if got := h.srv.UncachedCO(x.Ref("/a")); len(got) != 1 || got[0] != y.Ref("/b1") {
		t.Errorf("the server's CO(a) = %v, want [b1]", got)
	}
}

func assertCO(t *testing.T, who string, got []couple.ObjectRef, want couple.ObjectRef) {
	t.Helper()
	if len(got) != 1 || got[0] != want {
		t.Errorf("%s's mirrored group = %v, want exactly [%v]", who, got, want)
	}
}

// TestCommandBadTargetDeliversNothing sends a command to one live and one
// unknown target. The server must reject it without delivering to anybody:
// it used to deliver to the targets preceding the bad one and then report
// failure to the sender.
func TestCommandBadTargetDeliversNothing(t *testing.T) {
	h := newHarness(t, server.Options{})
	a := h.dial("app", "u1", "", client.Options{})
	b := h.dial("app", "u2", "", client.Options{})
	got := make(chan string, 4)
	b.OnCommand("ping", func(from couple.InstanceID, payload []byte) {
		got <- string(payload)
	})

	if err := a.SendCommand("ping", []byte("partial"), b.ID(), "no-such-instance"); err == nil {
		t.Fatal("command with unknown target must fail")
	}
	// A follow-up command on the same connections delivers in order: if the
	// rejected command had leaked to b, it would arrive first.
	if err := a.SendCommand("ping", []byte("clean"), b.ID()); err != nil {
		t.Fatal(err)
	}
	if first := <-got; first != "clean" {
		t.Errorf("b received %q first; the rejected command leaked", first)
	}
}

// TestStatsExposeLatencySummaries drives one coupled event end-to-end and
// checks the new observability fields: round-trip and fan-out histograms,
// lock counters, and the outbox high-water mark.
func TestStatsExposeLatencySummaries(t *testing.T) {
	h := newHarness(t, server.Options{})
	a := h.dial("app", "u1", `textfield x`, client.Options{})
	b := h.dial("app", "u2", `textfield x`, client.Options{})
	mustOK(t, a.Declare("/x"))
	mustOK(t, b.Declare("/x"))
	mustOK(t, a.Couple("/x", b.Ref("/x")))
	waitFor(t, "coupling mirrored", func() bool { return a.Coupled("/x") })
	mustOK(t, a.DispatchChecked(&widget.Event{
		Path: "/x", Name: widget.EventChanged, Args: []attr.Value{attr.String("v")},
	}))
	waitFor(t, "event round trip completed", func() bool {
		return h.srv.Stats().EventRTT.Count == 1
	})
	stats := h.srv.Stats()
	if stats.EventRTT.P50 <= 0 || stats.EventRTT.P99 < stats.EventRTT.P50 {
		t.Errorf("EventRTT = %+v", stats.EventRTT)
	}
	if stats.Fanout.Count != 1 || stats.Fanout.Max != 1 {
		t.Errorf("Fanout = %+v", stats.Fanout)
	}
	if stats.LockAttempts == 0 {
		t.Errorf("LockAttempts = 0, want > 0")
	}
	if stats.OutboxHighWater == 0 {
		t.Error("OutboxHighWater = 0, want > 0")
	}
}

// TestDisabledMetricsKeepServerWorking runs the event path under
// obs.Disabled: every handle is nil and Stats reports zeros, but the
// protocol must behave identically.
func TestDisabledMetricsKeepServerWorking(t *testing.T) {
	h := newHarness(t, server.Options{Metrics: obs.Disabled})
	a := h.dial("app", "u1", `textfield x`, client.Options{})
	b := h.dial("app", "u2", `textfield x`, client.Options{})
	mustOK(t, a.Declare("/x"))
	mustOK(t, b.Declare("/x"))
	mustOK(t, a.Couple("/x", b.Ref("/x")))
	waitFor(t, "coupling mirrored", func() bool { return a.Coupled("/x") })
	mustOK(t, a.DispatchChecked(&widget.Event{
		Path: "/x", Name: widget.EventChanged, Args: []attr.Value{attr.String("v")},
	}))
	waitFor(t, "value replicated", func() bool {
		return attrOf(t, b, "/x", widget.AttrValue).AsString() == "v"
	})
	if stats := h.srv.Stats(); stats.Events != 0 || stats.EventRTT.Count != 0 {
		t.Errorf("disabled metrics must read zero, got %+v", stats)
	}
}
