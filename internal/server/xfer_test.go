package server

import (
	"testing"
	"time"

	"cosoft/internal/attr"
	"cosoft/internal/clock"
	"cosoft/internal/testbed"
	"cosoft/internal/widget"
	"cosoft/internal/wire"
)

// TestTransferCommitOutlivesTheDeadline: a copy's history record is held on
// the disk while the clock passes the event deadline, and the sweep that
// times out an event of another group then leaves the copy alone, so once
// the record is written its ApplyState goes out and the copy answers OK: a
// committed backup is always followed by the state it backs up.
func TestTransferCommitOutlivesTheDeadline(t *testing.T) {
	clk := clock.NewManual()
	r := newLogRig(t, Options{Clock: clk})
	b, c := r.peer("b", "/x"), r.peer("c", "/x")
	d, e := r.peer("d", "/y"), r.peer("e", "/y")
	r.group("/y", d, e)
	// D's event, which E never acknowledges, times out at the deadline; it
	// also takes the first lease, so the copy's ID needs none.
	dispatch(d, "/y", "v")
	testbed.Next[wire.Exec](e)
	if res := testbed.Next[wire.EventResult](d); !res.OK {
		t.Fatalf("D's event refused: %s", res.Reason)
	}

	text := func(v string) widget.TreeState {
		return widget.TreeState{Class: "textfield", Name: "x", Attrs: attr.Set{widget.AttrValue: attr.String(v)}}
	}
	testbed.Wait(t, "D's event logged", func() bool { return r.eventRecords() == 1 })
	r.hold()
	c.Send(wire.CopyTo{FromPath: "/x", To: ref(b, "/x"), State: text("copied")})
	b.ServeState(text("before"))
	select {
	case <-r.held.Reached(): // the copy's KindHist record
	case <-time.After(5 * time.Second):
		t.Fatal("the copy's history record never reached the disk")
	}
	clk.Advance(eventDeadline + sweepPeriod)
	testbed.Wait(t, "D's event timed out", func() bool { return r.srv.mEventTOs.Value() >= 1 })
	r.srv.withEvents(func() {}) // the expiry pass that timed it out is over
	r.release()

	if got := b.ApplyState().State.Attrs[widget.AttrValue].AsString(); got != "copied" {
		t.Fatalf("B was sent %q, want the copy", got)
	}
	for env := range c.Events {
		if e, ok := env.Msg.(wire.Err); ok {
			t.Fatalf("the copy answered %q, want OK", e.Text)
		}
		if _, ok := env.Msg.(wire.OK); ok {
			break
		}
	}
	if st := r.srv.Stats(); st.EventTimeouts != 1 || st.Copies != 1 {
		t.Errorf("%d deadlines hit and %d copies, want D's event's alone and the copy", st.EventTimeouts, st.Copies)
	}
}
