package server

import (
	"fmt"
	"testing"
	"time"

	"cosoft/internal/couple"
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
// returned func lets it go.
func hold(t *testing.T, sh *shard) (release func()) {
	t.Helper()
	entered, done := make(chan struct{}), make(chan struct{})
	go sh.withLock(func() { close(entered); <-done })
	within(t, "the lock", entered)
	return func() { close(done) }
}

// A migration takes both shards' locks, in index order whichever way the
// group moves: while either is held it waits, with the route unflipped, and
// once both are free it completes. Each round holds a different one of the
// four (direction, held side) pairs.
func TestMigrationWaitsForBothShardLocks(t *testing.T) {
	s := New(Options{Shards: 2})
	defer s.Close()
	for round := 0; round < 4; round++ {
		from, to := s.shards[round%2], s.shards[1-round%2]
		busy := from
		if round >= 2 {
			busy = to
		}
		ref := couple.ObjectRef{Instance: "x-1", Path: fmt.Sprintf("/r%d", round)}
		s.routes.set([]couple.ObjectRef{ref}, from.idx)

		release := hold(t, busy)
		migrated := make(chan struct{})
		go func() {
			s.withGlobal(func() { s.migrateGroup(from, to, []couple.ObjectRef{ref}) })
			close(migrated)
		}()
		testbed.Wait(t, "the migration to wait for the held lock", func() bool { return busy.mDepth.Value() == 1 })
		if got := s.routes.shard(ref); got != from.idx {
			t.Fatalf("round %d: the route flipped to shard %d while shard %d was held", round, got, busy.idx)
		}
		release()
		within(t, "the migration to complete", migrated)
		if got := s.routes.shard(ref); got != to.idx {
			t.Fatalf("round %d: route is shard %d after the migration, want %d", round, got, to.idx)
		}
	}
}

// handoffRig is a two-shard server with group G (a:/g, b:/g) on shard 0 and
// group H (c:/h, d:/h) on shard 1, and an event E1 from a pending on shard 0,
// its Exec held unacknowledged by b. Coupling c:/h to a:/g ties the sizes,
// so the To side, G, migrates to shard 1.
type handoffRig struct {
	srv        *Server
	a, b, c, d *testbed.Peer
	e1         uint64
}

func newHandoffRig(t *testing.T) *handoffRig {
	t.Helper()
	r := &handoffRig{srv: New(Options{Shards: 2})}
	bed := testbed.New(t, r.srv, testbed.Options{})
	peer := func(user, path string, shard int) *testbed.Peer {
		p := bed.Raw(wire.Register{AppType: "app", User: user, Host: "h"})
		p.MustOK(wire.Declare{Path: path, Class: "textfield"})
		r.srv.routes.set([]couple.ObjectRef{ref(p, path)}, shard)
		return p
	}
	r.a, r.b = peer("a", "/g", 0), peer("b", "/g", 0)
	r.c, r.d = peer("c", "/h", 1), peer("d", "/h", 1)
	r.a.MustOK(wire.Couple{From: ref(r.a, "/g"), To: ref(r.b, "/g")})
	r.c.MustOK(wire.Couple{From: ref(r.c, "/h"), To: ref(r.d, "/h")})
	dispatch(r.a, "/g", "first")
	r.e1 = testbed.Next[wire.Exec](r.b).EventID
	if res := testbed.Next[wire.EventResult](r.a); !res.OK {
		t.Fatalf("E1 refused: %s", res.Reason)
	}
	if got := r.srv.birthShard(r.e1).idx; got != 0 {
		t.Fatalf("E1 born on shard %d, want 0", got)
	}
	return r
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

// merge sends the Couple that migrates G, without waiting for its answer.
func (r *handoffRig) merge() {
	r.c.Send(wire.Couple{From: ref(r.c, "/h"), To: ref(r.a, "/g")})
}

// A pending event migrates with its group, leaving a router entry at its
// birth shard; the late ack follows it there and resolves it, and
// CheckInvariants finds no router entry left over.
func TestMigratedEventAckFollowsIt(t *testing.T) {
	r := newHandoffRig(t)
	r.merge()
	testbed.Next[wire.OK](r.c)
	if got := r.srv.ShardOf(ref(r.a, "/g")); got != 1 {
		t.Fatalf("G is on shard %d after the couple, want 1", got)
	}
	if idx, ok := r.srv.router.eventShard(r.e1); !ok || idx != 1 {
		t.Fatalf("router entry of E1 = %d, %v; want shard 1", idx, ok)
	}
	r.b.Send(wire.ExecAck{EventID: r.e1})
	nextUnlock(t, r.b)
	testbed.Wait(t, "E1 resolved", func() bool { return r.srv.Stats().PendingEvents == 0 })
	if err := r.srv.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// The two-lock move against the hot path: while the donor's lock is held, a
// Couple starts migrating G, a new Event E2 for G arrives, and so does the
// last ack of E1, pending there. All three wait on the donor's lock and run
// in whatever order they get it. Each runs exactly once, on the shard owning
// G when it does: E2 gets one verdict (denied if it beat the ack), E1 one
// unlock, and the group ends unlocked with every relay body given back.
func TestMigrationRacesAnEventAndAnAck(t *testing.T) {
	r := newHandoffRig(t)
	donor := r.srv.shards[0]
	events := r.srv.Stats().Events

	release := hold(t, donor)
	r.merge()
	r.b.Send(wire.ExecAck{EventID: r.e1})
	dispatch(r.a, "/g", "second")
	testbed.Wait(t, "the migration, the ack and the event to wait for the donor", func() bool {
		return donor.mDepth.Value() == 3
	})
	release()
	testbed.Next[wire.OK](r.c)
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

	st := r.srv.Stats()
	if st.Events != events+1 {
		t.Errorf("server counted %d events after E2, want %d", st.Events, events+1)
	}
	var shardEvents uint64
	for _, sh := range r.srv.shards {
		shardEvents += sh.mEvents.Value()
	}
	if shardEvents != st.Events {
		t.Errorf("shards counted %d events, the server %d", shardEvents, st.Events)
	}
	drain(r.a, func(m wire.Message) {
		if m, ok := m.(wire.EventResult); ok {
			t.Errorf("the origin got a second verdict %+v after %+v", m, res)
		}
	})
	if got := r.srv.ShardOf(ref(r.a, "/g")); got != 1 {
		t.Errorf("G is on shard %d, want 1", got)
	}
	if err := r.srv.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	waitNoLiveBodies(t)
}
