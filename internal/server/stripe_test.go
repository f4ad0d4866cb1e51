package server

// Tests of a shard as a stripe: its lock serializes only the events of the
// sources that hash to it and the acknowledgements of the events born on it,
// while the one lock table serializes a coupling group whichever shards its
// members' events run on. A control-plane message takes no shard lock, so
// coupling two groups never waits for a busy shard.

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"cosoft/internal/couple"
	"cosoft/internal/lock"
	"cosoft/internal/testbed"
	"cosoft/internal/wire"
)

// within fails the test unless ch closes in time: a wedged shard lock fails
// the test instead of hanging it.
func within(t *testing.T, what string, ch <-chan struct{}) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(5 * time.Second):
		t.Fatalf("timed out waiting for %s: a shard lock is wedged", what)
	}
}

// hold takes sh's lock on another goroutine and returns once it has it; the
// returned func lets it go, and so does the test's cleanup if the test ends
// first, so a failing test does not wedge its teardown.
func hold(t *testing.T, sh *shard) (release func()) {
	t.Helper()
	entered, done := make(chan struct{}), make(chan struct{})
	go sh.withLock(func() { close(entered); <-done })
	within(t, "the lock", entered)
	release = sync.OnceFunc(func() { close(done) })
	t.Cleanup(release)
	return release
}

// declareOn has p declare a textfield whose ref hashes to shard idx of srv,
// named prefix followed by the first number that does, and returns its path.
func declareOn(t *testing.T, srv *Server, p *testbed.Peer, prefix string, idx int) string {
	t.Helper()
	for i := 0; i < 256; i++ {
		path := fmt.Sprintf("%s%d", prefix, i)
		if srv.shardForRef(ref(p, path)).idx == idx {
			p.MustOK(wire.Declare{Path: path, Class: "textfield"})
			return path
		}
	}
	t.Fatalf("no path %s<n> of %s hashes to shard %d", prefix, p.ID, idx)
	return ""
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

// stripeRig is a two-shard server with group G (a:ga, b:gb) and group H
// (c:hc, d:hd), where the sources a:ga and b:gb hash to shard 0 and c:hc to
// shard 1, and an event E1 from a pending on shard 0, its Exec held
// unacknowledged by b.
type stripeRig struct {
	srv            *Server
	a, b, c, d     *testbed.Peer
	ga, gb, hc, hd string
	e1             uint64
}

func newStripeRig(t *testing.T) *stripeRig {
	t.Helper()
	r := &stripeRig{srv: New(Options{Shards: 2})}
	bed := testbed.New(t, r.srv, testbed.Options{})
	join := func(user string) *testbed.Peer { return bed.Raw(wire.Register{AppType: "app", User: user, Host: "h"}) }
	r.a, r.b, r.c, r.d = join("a"), join("b"), join("c"), join("d")
	r.ga, r.gb = declareOn(t, r.srv, r.a, "/g", 0), declareOn(t, r.srv, r.b, "/g", 0)
	r.hc, r.hd = declareOn(t, r.srv, r.c, "/h", 1), declareOn(t, r.srv, r.d, "/h", 0)
	r.a.MustOK(wire.Couple{From: ref(r.a, r.ga), To: ref(r.b, r.gb)})
	r.c.MustOK(wire.Couple{From: ref(r.c, r.hc), To: ref(r.d, r.hd)})
	dispatch(r.a, r.ga, "first")
	r.e1 = testbed.Next[wire.Exec](r.b).EventID
	if res := testbed.Next[wire.EventResult](r.a); !res.OK {
		t.Fatalf("E1 refused: %s", res.Reason)
	}
	if got := r.srv.birthShard(r.e1).idx; got != 0 {
		t.Fatalf("E1 born on shard %d, want its source's shard 0", got)
	}
	return r
}

// A Couple runs under gmu alone: with every shard's lock held it merges two
// groups and is answered, and the next event of the merged group, once the
// shards are free, reaches every member of both.
func TestCoupleTakesNoShardLock(t *testing.T) {
	r := newStripeRig(t)
	r.b.Send(wire.ExecAck{EventID: r.e1})
	nextUnlock(t, r.b)

	releases := []func(){hold(t, r.srv.shards[0]), hold(t, r.srv.shards[1])}
	coupled := make(chan wire.Message, 1)
	r.c.Send(wire.Couple{From: ref(r.c, r.hc), To: ref(r.a, r.ga)})
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
		t.Fatal("timed out waiting for the Couple while every shard is held: it waits for a shard lock")
	}
	for _, release := range releases {
		release()
	}
	if co := r.srv.UncachedCO(ref(r.c, r.hc)); len(co) != 3 {
		t.Fatalf("CO after the couple = %v, want the other three members of G and H", co)
	}

	dispatch(r.c, r.hc, "merged")
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

// An acknowledgement needs only its event's birth shard: with the other
// shard's lock held, b's ack resolves E1 and unlocks the group, and the
// table is empty once the held shard is let go.
func TestAckResolvesOnBirthShard(t *testing.T) {
	r := newStripeRig(t)
	release := hold(t, r.srv.shards[1])
	r.b.Send(wire.ExecAck{EventID: r.e1})
	nextUnlock(t, r.b)
	release()
	if n := r.srv.LocksHeld(); n != 0 {
		t.Fatalf("%d lock entries left after E1 resolved", n)
	}
	if err := r.srv.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// Coupling H to G while E1 holds G, against the hot path: with shard 0's
// lock held, the Couple is answered, an event from c — on shard 1 — is
// denied by the entries E1 holds in the one table, and the last ack of E1
// and a new event E2 from a wait for shard 0 and run in whatever order they
// get it. Each runs exactly once: E2 gets one verdict (denied if it beat
// the ack, otherwise broadcast to the merged group), E1 one unlock, and the
// group ends unlocked with every relay body given back.
func TestRegroupRacesAnEventAndAnAck(t *testing.T) {
	r := newStripeRig(t)
	held := r.srv.shards[0]
	release := hold(t, held)

	r.c.MustOK(wire.Couple{From: ref(r.c, r.hc), To: ref(r.a, r.ga)})
	dispatch(r.c, r.hc, "early")
	if res := testbed.Next[wire.EventResult](r.c); res.OK {
		t.Fatal("an event of the merged group was granted while E1 held G")
	}
	r.b.Send(wire.ExecAck{EventID: r.e1})
	dispatch(r.a, r.ga, "second")
	testbed.Wait(t, "the ack and the event to wait for shard 0", func() bool {
		return held.mDepth.Value() == 2
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

// An event denied on one shard by entries an event of another shard holds
// releases its relay body, and once that event resolves the same source's
// next event is granted, broadcast and released as usual.
func TestCrossShardDenialReleasesRelay(t *testing.T) {
	r := newStripeRig(t)
	r.c.MustOK(wire.Couple{From: ref(r.c, r.hc), To: ref(r.a, r.ga)})
	dispatch(r.c, r.hc, "denied")
	if res := testbed.Next[wire.EventResult](r.c); res.OK {
		t.Fatal("an event on a group locked from another shard was accepted")
	}
	waitNoLiveBodies(t)

	r.b.Send(wire.ExecAck{EventID: r.e1})
	nextUnlock(t, r.b)
	dispatch(r.c, r.hc, "granted")
	for _, p := range []*testbed.Peer{r.a, r.b, r.d} {
		exec := testbed.Next[wire.Exec](p)
		if got := r.srv.birthShard(exec.EventID).idx; got != 1 {
			t.Fatalf("c's event born on shard %d, want its source's shard 1", got)
		}
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

// CheckInvariants reports an entry of the one table whose owner is not an
// event pending on its birth shard: one whose event ID is pending nowhere,
// and one whose event ID is pending but under another owner.
func TestCheckInvariantsFindsOrphanLock(t *testing.T) {
	r := newStripeRig(t)
	if err := r.srv.CheckInvariants(); err != nil {
		t.Fatalf("with E1 pending: %v", err)
	}
	orphans := []lock.Owner{
		{Instance: r.a.ID, Seq: r.e1 + 2}, // E1's shard, never granted
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
