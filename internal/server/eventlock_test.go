package server

// Tests of the event lock: it serializes events and acknowledgements, while
// the one lock table serializes a coupling group. A control-plane message
// takes no event lock, so coupling two groups never waits for a busy event
// lock.

import (
	"strings"
	"sync"
	"testing"
	"time"

	"cosoft/internal/couple"
	"cosoft/internal/lock"
	"cosoft/internal/testbed"
	"cosoft/internal/wire"
)

// within fails the test unless ch closes in time: a wedged event lock fails
// the test instead of hanging it.
func within(t *testing.T, what string, ch <-chan struct{}) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(5 * time.Second):
		t.Fatalf("timed out waiting for %s: the event lock is wedged", what)
	}
}

// hold takes srv's event lock on another goroutine and returns once it has
// it; the returned func lets it go, and so does the test's cleanup if the
// test ends first, so a failing test does not wedge its teardown.
func hold(t *testing.T, srv *Server) (release func()) {
	t.Helper()
	entered, done := make(chan struct{}), make(chan struct{})
	go srv.withEvents(func() { close(entered); <-done })
	within(t, "the lock", entered)
	release = sync.OnceFunc(func() { close(done) })
	t.Cleanup(release)
	return release
}

// drain hands fn every message p has received so far.
func drain(p *testbed.Peer, fn func(wire.Message)) {
	for {
		select {
		case env, open := <-p.Events:
			if !open {
				return
			}
			fn(env.Msg)
		default:
			return
		}
	}
}

// lockRig is a server with group G (a:/g, b:/g) and group H (c:/h, d:/h),
// and an event E1 from a pending, its Exec held unacknowledged by b.
type lockRig struct {
	srv        *Server
	a, b, c, d *testbed.Peer
	e1         uint64
}

func newLockRig(t *testing.T) *lockRig {
	t.Helper()
	r := &lockRig{srv: New(Options{})}
	bed := testbed.New(t, r.srv, testbed.Options{})
	join := func(user, path string) *testbed.Peer {
		p := bed.Raw(wire.Register{AppType: "app", User: user, Host: "h"})
		p.MustOK(wire.Declare{Path: path, Class: "textfield"})
		return p
	}
	r.a, r.b, r.c, r.d = join("a", "/g"), join("b", "/g"), join("c", "/h"), join("d", "/h")
	r.a.MustOK(wire.Couple{From: ref(r.a, "/g"), To: ref(r.b, "/g")})
	r.c.MustOK(wire.Couple{From: ref(r.c, "/h"), To: ref(r.d, "/h")})
	dispatch(r.a, "/g", "first")
	r.e1 = testbed.Next[wire.Exec](r.b).EventID
	if res := testbed.Next[wire.EventResult](r.a); !res.OK {
		t.Fatalf("E1 refused: %s", res.Reason)
	}
	return r
}

// A Couple runs under gmu alone: with the event lock held it merges two
// groups and is answered, and the next event of the merged group, once the
// event lock is free, reaches every member of both.
func TestCoupleTakesNoEventLock(t *testing.T) {
	r := newLockRig(t)
	r.b.Send(wire.ExecAck{EventID: r.e1})
	nextUnlock(t, r.b)

	release := hold(t, r.srv)
	coupled := make(chan wire.Message, 1)
	r.c.Send(wire.Couple{From: ref(r.c, "/h"), To: ref(r.a, "/g")})
	go func() {
		for env := range r.c.Events {
			if m, ok := env.Msg.(wire.OK); ok {
				coupled <- m
				return
			}
			if m, ok := env.Msg.(wire.Err); ok {
				coupled <- m
				return
			}
		}
	}()
	select {
	case m := <-coupled:
		if e, bad := m.(wire.Err); bad {
			t.Fatalf("Couple refused: %s", e.Text)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("timed out waiting for the Couple while the event lock is held: it waits for the event lock")
	}
	release()
	if co := r.srv.UncachedCO(ref(r.c, "/h")); len(co) != 3 {
		t.Fatalf("CO after the couple = %v, want the other three members of G and H", co)
	}

	dispatch(r.c, "/h", "merged")
	for _, p := range []*testbed.Peer{r.a, r.b, r.d} {
		exec := testbed.Next[wire.Exec](p)
		p.Send(wire.ExecAck{EventID: exec.EventID})
	}
	if res := testbed.Next[wire.EventResult](r.c); !res.OK {
		t.Fatalf("event of the merged group refused: %s", res.Reason)
	}
	for _, p := range []*testbed.Peer{r.a, r.b, r.d} {
		nextUnlock(t, p)
	}
}

// Coupling H to G while E1 holds G, against the hot path: an event from c
// is denied by the entries E1 holds in the one table, and then, with the
// event lock held, the last ack of E1 and a new event E2 from a wait for it
// and run in whatever order they get it. Each runs exactly once: E2 gets
// one verdict (denied if it beat the ack, otherwise broadcast to the merged
// group), E1 one unlock, and the group ends unlocked with every relay body
// given back.
func TestRegroupRacesAnEventAndAnAck(t *testing.T) {
	r := newLockRig(t)
	r.c.MustOK(wire.Couple{From: ref(r.c, "/h"), To: ref(r.a, "/g")})
	dispatch(r.c, "/h", "early")
	if res := testbed.Next[wire.EventResult](r.c); res.OK {
		t.Fatal("an event of the merged group was granted while E1 held G")
	}

	release := hold(t, r.srv)
	r.b.Send(wire.ExecAck{EventID: r.e1})
	dispatch(r.a, "/g", "second")
	testbed.Wait(t, "the ack and the event to wait for the event lock", func() bool {
		return r.srv.ev.mDepth.Value() == 2
	})
	release()
	res := testbed.Next[wire.EventResult](r.a)

	// Acknowledge whatever E2 was broadcast to, counting b's unlocks.
	unlocks := 0
	ackAll := func() {
		for _, p := range []*testbed.Peer{r.b, r.c, r.d} {
			drain(p, func(m wire.Message) {
				switch m := m.(type) {
				case wire.Exec:
					p.Send(wire.ExecAck{EventID: m.EventID})
				case wire.SetLocks:
					if p == r.b && !m.Locked {
						unlocks++
					}
				}
			})
		}
	}
	want := 1 // E1's
	if res.OK {
		want++ // and E2's
	}
	testbed.Wait(t, "every event resolved and the group unlocked", func() bool {
		ackAll()
		return unlocks >= want && r.srv.Stats().PendingEvents == 0 && r.srv.LocksHeld() == 0
	})
	if unlocks != want {
		t.Errorf("b saw %d unlocks, want %d (E2 granted: %v)", unlocks, want, res.OK)
	}
	drain(r.a, func(m wire.Message) {
		if m, ok := m.(wire.EventResult); ok {
			t.Errorf("the origin got a second verdict %+v after %+v", m, res)
		}
	})
	if err := r.srv.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	waitNoLiveBodies(t)
}

// An event denied by entries another origin's event holds releases its
// relay body, and once that event resolves the same source's next event is
// granted, broadcast and released as usual.
func TestDenialReleasesRelay(t *testing.T) {
	r := newLockRig(t)
	r.c.MustOK(wire.Couple{From: ref(r.c, "/h"), To: ref(r.a, "/g")})
	dispatch(r.c, "/h", "denied")
	if res := testbed.Next[wire.EventResult](r.c); res.OK {
		t.Fatal("an event on a group another origin's event locked was accepted")
	}
	waitNoLiveBodies(t)

	r.b.Send(wire.ExecAck{EventID: r.e1})
	nextUnlock(t, r.b)
	dispatch(r.c, "/h", "granted")
	for _, p := range []*testbed.Peer{r.a, r.b, r.d} {
		exec := testbed.Next[wire.Exec](p)
		p.Send(wire.ExecAck{EventID: exec.EventID})
	}
	if res := testbed.Next[wire.EventResult](r.c); !res.OK {
		t.Fatalf("event after the unlock refused: %s", res.Reason)
	}
	for _, p := range []*testbed.Peer{r.a, r.b, r.d} {
		nextUnlock(t, p)
	}
	waitNoLiveBodies(t)
}

// CheckInvariants reports an entry of the one table whose owner is not a
// pending event: one whose event ID is not pending, and one whose event ID
// is pending but under another owner.
func TestCheckInvariantsFindsOrphanLock(t *testing.T) {
	r := newLockRig(t)
	if err := r.srv.CheckInvariants(); err != nil {
		t.Fatalf("with E1 pending: %v", err)
	}
	orphans := []lock.Owner{
		{Instance: r.a.ID, Seq: r.e1 + 1}, // the next ID, never granted
		{Instance: r.c.ID, Seq: r.e1},     // E1's ID, another instance
	}
	stray := couple.ObjectRef{Instance: r.d.ID, Path: "/stray"}
	for _, owner := range orphans {
		if ok, _ := r.srv.locks.TryLockGroup([]couple.ObjectRef{stray}, owner); !ok {
			t.Fatalf("could not lock %v for %+v", stray, owner)
		}
		err := r.srv.CheckInvariants()
		if err == nil || !strings.Contains(err.Error(), "which is not pending") {
			t.Errorf("owner %+v: CheckInvariants = %v, want the stray entry reported", owner, err)
		}
		r.srv.locks.UnlockGroup([]couple.ObjectRef{stray}, owner)
	}
	if err := r.srv.CheckInvariants(); err != nil {
		t.Fatalf("after the stray entries went: %v", err)
	}
	r.b.Send(wire.ExecAck{EventID: r.e1})
	nextUnlock(t, r.b)
}
