package server

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"cosoft/internal/attr"
	"cosoft/internal/couple"
	"cosoft/internal/testbed"
	"cosoft/internal/widget"
	"cosoft/internal/wire"
)

// floorMember is one raw member of the group under test, with a pump that
// acknowledges every Exec and checks what the member is told against the
// floor: its object's SetLocks alternate lock/unlock, every Exec arrives
// between a lock and its unlock, and one lock window holds one event.
type floorMember struct {
	p    *testbed.Peer
	srv  *Server
	mu   sync.Mutex
	errs []string
	seq  []wire.Exec // Execs in arrival order
	// locked is the object's state as the notices left it; window the ID of
	// the event whose Execs the current lock window carries (0 before the
	// first).
	locked bool
	window uint64
	// sample has the pump count the pending events before it acks an Exec,
	// under the event lock: the Exec's event is one of them.
	sample bool
}

func (m *floorMember) ref() couple.ObjectRef { return couple.ObjectRef{Instance: m.p.ID, Path: "/x"} }

func (m *floorMember) pump() {
	for env := range m.p.Events {
		switch msg := env.Msg.(type) {
		case wire.SetLocks:
			m.mu.Lock()
			if msg.Locked == m.locked {
				m.errs = append(m.errs, fmt.Sprintf("SetLocks locked=%v twice in a row after event %d", msg.Locked, m.window))
			}
			m.locked, m.window = msg.Locked, 0
			m.mu.Unlock()
		case wire.Exec:
			var granted int
			if m.sample {
				granted = m.srv.pendingCount()
			}
			m.mu.Lock()
			switch {
			case !m.locked:
				m.errs = append(m.errs, fmt.Sprintf("Exec of event %d while unlocked", msg.EventID))
			case m.window != 0 && m.window != msg.EventID:
				m.errs = append(m.errs, fmt.Sprintf("Execs of events %d and %d in one lock window", m.window, msg.EventID))
			}
			if granted > 1 {
				m.errs = append(m.errs, fmt.Sprintf("%d events granted at once at event %d", granted, msg.EventID))
			}
			m.window = msg.EventID
			m.seq = append(m.seq, msg)
			m.mu.Unlock()
			m.p.Send(wire.ExecAck{EventID: msg.EventID})
		}
	}
}

// One coupling group with four origins: each fires events as fast as its
// verdicts come back, so events of the group race each other for the event
// lock and the floor, and their holders flush side by side once they let
// the lock go. The one lock table must still grant at most one of them at a
// time, every member must see its object's SetLocks strictly alternate
// lock/unlock — an unlock's notices are queued before its floor is released,
// so the next event's lock notice lands behind them — and every member must
// see the same Exec order. Over 0.5 s: it is the only test that races one
// group's events from several origins at once, so it alone catches a floor
// the one lock table fails to hold, or a flush that overtakes another.
func TestFloorHoldsAcrossOrigins(t *testing.T) {
	const origins = 4
	const passive = 32 // members that never fire: a longer notice loop
	const grants = 20  // granted events per source
	srv := New(Options{})
	bed := testbed.New(t, srv, testbed.Options{})
	join := func(user string) *floorMember {
		m := &floorMember{p: bed.Raw(wire.Register{AppType: "app", User: user}), srv: srv}
		m.p.MustOK(wire.Declare{Path: "/x", Class: "textfield"})
		return m
	}
	sources := make([]*floorMember, origins)
	for i := range sources {
		sources[i] = join(fmt.Sprintf("src%d", i))
	}
	members := slices.Clone(sources)
	for i := 0; i < passive; i++ {
		members = append(members, join(fmt.Sprintf("passive%d", i)))
	}
	observer := members[len(members)-1] // fires nothing, so hears every event
	observer.sample = true
	for _, m := range members[1:] {
		members[0].p.MustOK(wire.Couple{From: members[0].ref(), To: m.ref()})
	}
	for _, m := range members {
		go m.pump()
	}

	var wg sync.WaitGroup
	for _, src := range sources {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for got, tries := 0, 0; got < grants; tries++ {
				if tries == 100_000 {
					t.Errorf("%s: %d of %d events granted in %d tries", src.p.ID, got, grants, tries)
					return
				}
				ev := wire.Event{Path: "/x", Name: widget.EventChanged, Args: []attr.Value{attr.String(fmt.Sprint(got))}}
				res, ok := src.p.Call(ev).Msg.(wire.EventResult)
				if !ok {
					t.Errorf("%s: the event was not answered with a verdict", src.p.ID)
					return
				}
				if res.OK {
					got++
				}
			}
		}()
	}
	wg.Wait()

	total := grants * len(sources)
	testbed.Wait(t, "every member to hear every event and the group to unlock", func() bool {
		for _, m := range members {
			m.mu.Lock()
			want := total
			if slices.Contains(sources, m) {
				want -= grants // a source does not re-execute its own events
			}
			done := len(m.seq) == want && !m.locked
			m.mu.Unlock()
			if !done {
				return false
			}
		}
		return srv.pendingCount() == 0
	})

	observer.mu.Lock()
	order := slices.Clone(observer.seq)
	observer.mu.Unlock()
	for _, m := range members {
		m.mu.Lock()
		for _, e := range m.errs {
			t.Errorf("%s: %s", m.p.ID, e)
		}
		want := slices.DeleteFunc(slices.Clone(order), func(e wire.Exec) bool { return e.Origin == m.ref() })
		if !slices.EqualFunc(m.seq, want, func(a, b wire.Exec) bool { return a.EventID == b.EventID }) {
			t.Errorf("%s saw the Execs in another order than %s", m.p.ID, observer.p.ID)
		}
		m.mu.Unlock()
	}
}
