package server_test

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"cosoft/internal/attr"
	"cosoft/internal/couple"
	"cosoft/internal/server"
	"cosoft/internal/testbed"
	"cosoft/internal/wire"
)

// TestDropClientNotifiesChainSurvivors is the regression test for the
// disconnect stale-link split: in the chain A–B–C, when B disconnects, both
// A and C must hear that BOTH links died. The buggy dropClient computed the
// survivor groups after RemoveInstance, by which time A and C sat in
// separate components, so each missed the removal of the other's link and
// kept a stale mirrored entry forever.
func TestDropClientNotifiesChainSurvivors(t *testing.T) {
	_, bed := newBed(t, server.Options{})
	a := bed.Raw(wire.Register{AppType: "app", User: "alice"})
	b := bed.Raw(wire.Register{AppType: "app", User: "bob"})
	c := bed.Raw(wire.Register{AppType: "app", User: "carol"})
	for _, rc := range []*testbed.Peer{a, b, c} {
		rc.MustOK(wire.Declare{Path: "/x", Class: "textfield"})
	}
	refA := couple.ObjectRef{Instance: a.ID, Path: "/x"}
	refB := couple.ObjectRef{Instance: b.ID, Path: "/x"}
	refC := couple.ObjectRef{Instance: c.ID, Path: "/x"}
	a.MustOK(wire.Couple{From: refA, To: refB})
	b.MustOK(wire.Couple{From: refB, To: refC})
	// Both ends of the chain must know both links before B leaves.
	for _, rc := range []*testbed.Peer{a, c} {
		seen := map[couple.Link]bool{}
		for len(seen) < 2 {
			seen[testbed.Next[wire.LinkAdded](rc).Link] = true
		}
	}

	b.Close()

	// A and C each must see LinkRemoved for BOTH links of the chain, even
	// though after B's removal they are no longer connected to each other.
	want := map[couple.Link]bool{
		{From: refA, To: refB, Creator: a.ID}: true,
		{From: refB, To: refC, Creator: b.ID}: true,
	}
	for _, rc := range []*testbed.Peer{a, c} {
		got := map[couple.Link]bool{}
		for len(got) < 2 {
			got[testbed.Next[wire.LinkRemoved](rc).Link] = true
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s saw removals %v, want %v", rc.ID, got, want)
		}
	}
}

// TestSessionTokenLifecycle covers the token lifecycle fixes: re-minting
// invalidates the previous token, a resume consumes the token it presented,
// and Deregister drops the outstanding token — so the sessions map is
// bounded and no stale token can hijack a session.
func TestSessionTokenLifecycle(t *testing.T) {
	_, bed := newBed(t, server.Options{})
	rc := bed.Raw(wire.Register{AppType: "app", User: "alice"})

	tok1 := rc.Call(wire.SessionToken{}).Msg.(wire.SessionToken).Token
	tok2 := rc.Call(wire.SessionToken{}).Msg.(wire.SessionToken).Token

	// Re-minting replaced tok1: it must not resume anything.
	if env := bed.Raw(wire.Resume{Token: tok1}).Hello; true {
		if _, isErr := env.Msg.(wire.Err); !isErr {
			t.Fatalf("superseded token resumed: got %s", env.Msg.MsgType())
		}
	}

	// The current token resumes the session (superseding rc's connection).
	resumed := bed.Raw(wire.Resume{Token: tok2})
	env := resumed.Hello
	reg, ok := env.Msg.(wire.Registered)
	if !ok || reg.ID != rc.ID {
		t.Fatalf("resume with live token: got %v, want Registered{%s}", env.Msg, rc.ID)
	}

	// Tokens are single-use: the consumed token must not resume again (that
	// would hijack the live resumed session).
	if env := bed.Raw(wire.Resume{Token: tok2}).Hello; true {
		if _, isErr := env.Msg.(wire.Err); !isErr {
			t.Fatalf("consumed token resumed again: got %s", env.Msg.MsgType())
		}
	}

	// Deregister drops the outstanding token with the registration.
	tok3 := resumed.Call(wire.SessionToken{}).Msg.(wire.SessionToken).Token
	if e, isErr := resumed.Call(wire.Deregister{}).Msg.(wire.Err); isErr {
		t.Fatalf("deregister: %s", e.Text)
	}
	if env := bed.Raw(wire.Resume{Token: tok3}).Hello; true {
		if _, isErr := env.Msg.(wire.Err); !isErr {
			t.Fatalf("token survived Deregister: got %s", env.Msg.MsgType())
		}
	}
}

// TestEventTimeoutHistogram checks that deadline-resolved events land in the
// event_timeout_wait histogram and never pollute the round-trip histogram
// with deadline-sized outliers.
func TestEventTimeoutHistogram(t *testing.T) {
	srv, bed := newBed(t, server.Options{EventDeadline: 40 * time.Millisecond})
	origin := bed.Raw(wire.Register{AppType: "app", User: "alice"})
	member := bed.Raw(wire.Register{AppType: "app", User: "bob"}) // never acks its Execs
	origin.MustOK(wire.Declare{Path: "/x", Class: "textfield"})
	member.MustOK(wire.Declare{Path: "/x", Class: "textfield"})
	origin.MustOK(wire.Couple{
		From: couple.ObjectRef{Instance: origin.ID, Path: "/x"},
		To:   couple.ObjectRef{Instance: member.ID, Path: "/x"},
	})

	res := origin.Call(wire.Event{Path: "/x", Name: "changed", Args: []attr.Value{attr.String("v")}})
	if r, ok := res.Msg.(wire.EventResult); !ok || !r.OK {
		t.Fatalf("event not accepted: %v", res.Msg)
	}
	testbed.Wait(t, "event deadline to fire", func() bool {
		return srv.Stats().EventTimeouts >= 1
	})
	st := srv.Stats()
	if st.EventTimeoutWait.Count != 1 {
		t.Errorf("EventTimeoutWait.Count = %d, want 1", st.EventTimeoutWait.Count)
	}
	if st.EventRTT.Count != 0 {
		t.Errorf("EventRTT.Count = %d, want 0 (timeout must not feed the RTT histogram)", st.EventRTT.Count)
	}
}

// participant is one raw client in the routing-equivalence trace, with an
// ack pump that records the Exec names it re-executed, in arrival order.
type participant struct {
	rc  *testbed.Peer
	mu  sync.Mutex
	got []string
}

func newParticipant(bed *testbed.Bed, user string) *participant {
	p := &participant{rc: bed.Raw(wire.Register{AppType: "app", User: user})}
	p.rc.MustOK(wire.Declare{Path: "/x", Class: "textfield"})
	go func() {
		for env := range p.rc.Events {
			if ex, ok := env.Msg.(wire.Exec); ok {
				p.mu.Lock()
				p.got = append(p.got, ex.Name)
				p.mu.Unlock()
				p.rc.Send(wire.ExecAck{EventID: ex.EventID})
			}
		}
	}()
	return p
}

func (p *participant) count() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.got)
}

func (p *participant) sequence() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]string(nil), p.got...)
}

func (p *participant) ref() couple.ObjectRef {
	return couple.ObjectRef{Instance: p.rc.ID, Path: "/x"}
}

// sendEvent dispatches one named event, retrying while the group lock is
// held by a still-unacknowledged predecessor.
func (p *participant) sendEvent(t *testing.T, name string) {
	t.Helper()
	testbed.Wait(t, "event "+name+" accepted", func() bool {
		env := p.rc.Call(wire.Event{Path: "/x", Name: name})
		res, ok := env.Msg.(wire.EventResult)
		if !ok {
			t.Fatalf("event %s: unexpected reply %s", name, env.Msg.MsgType())
		}
		return res.OK
	})
}

// runShardTrace drives the same multi-group trace against a server with the
// given shard count and returns every participant's per-member Exec order:
// 8 two-instance groups run 4 events each concurrently, pairs of groups are
// then merged (forcing cross-shard migrations when sharded), and each merged
// group runs 4 more events across the new four-member group.
func runShardTrace(t *testing.T, shards int) (map[string][]string, server.Stats) {
	const groups = 8
	const eventsPerPhase = 4
	srv, bed := newBed(t, server.Options{Shards: shards})
	origins := make([]*participant, groups)
	members := make([]*participant, groups)
	for g := 0; g < groups; g++ {
		origins[g] = newParticipant(bed, fmt.Sprintf("origin%d", g))
		members[g] = newParticipant(bed, fmt.Sprintf("member%d", g))
	}
	for g := 0; g < groups; g++ {
		origins[g].rc.MustOK(wire.Couple{From: origins[g].ref(), To: members[g].ref()})
	}

	// Phase 1: every group streams events concurrently with the others.
	var wg sync.WaitGroup
	for g := 0; g < groups; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for e := 0; e < eventsPerPhase; e++ {
				origins[g].sendEvent(t, fmt.Sprintf("g%d.e%d", g, e))
			}
		}()
	}
	wg.Wait()
	for g := 0; g < groups; g++ {
		g := g
		testbed.Wait(t, fmt.Sprintf("phase-1 execs at member%d", g), func() bool {
			return members[g].count() >= eventsPerPhase
		})
	}

	// Merge phase: pair up the groups. When sharded, any pair whose groups
	// hash to different shards migrates — an explicit two-shard handoff.
	for g := 0; g < groups; g += 2 {
		origins[g].rc.MustOK(wire.Couple{From: origins[g].ref(), To: origins[g+1].ref()})
	}

	// Phase 2: the left origin of each merged group streams events that now
	// fan out to all three other participants.
	for g := 0; g < groups; g += 2 {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for e := 0; e < eventsPerPhase; e++ {
				origins[g].sendEvent(t, fmt.Sprintf("m%d.e%d", g, e))
			}
		}()
	}
	wg.Wait()

	sequences := make(map[string][]string)
	collect := func(name string, p *participant, want int) {
		testbed.Wait(t, fmt.Sprintf("%d execs at %s", want, name), func() bool {
			return p.count() >= want
		})
		sequences[name] = p.sequence()
	}
	for g := 0; g < groups; g++ {
		memberWant := eventsPerPhase * 2 // own group's phase 1 + merged phase 2
		collect(fmt.Sprintf("member%d", g), members[g], memberWant)
		originWant := 0
		if g%2 == 1 {
			originWant = eventsPerPhase // hears the left origin's phase 2
		}
		collect(fmt.Sprintf("origin%d", g), origins[g], originWant)
	}
	// The last Exec being delivered does not mean its acks have landed back
	// at the server yet; wait for quiescence so the caller's PendingEvents
	// assertion is not racing the tail of the ack stream.
	testbed.Wait(t, "all events resolved", func() bool {
		return srv.Stats().PendingEvents == 0
	})
	return sequences, srv.Stats()
}

// TestShardRoutingEquivalence is the shard-routing property test: the same
// trace on a single-loop server and a 4-shard server must yield identical
// per-member Exec orderings, and the sharded run must have exercised at
// least one cross-shard group migration.
func TestShardRoutingEquivalence(t *testing.T) {
	seq1, _ := runShardTrace(t, 1)
	seq4, st4 := runShardTrace(t, 4)
	if !reflect.DeepEqual(seq1, seq4) {
		t.Errorf("per-member Exec orderings diverge between -shards=1 and -shards=4:\n1: %v\n4: %v", seq1, seq4)
	}
	if st4.Shards != 4 {
		t.Errorf("Stats.Shards = %d, want 4", st4.Shards)
	}
	if st4.CrossShardHandoffs == 0 {
		t.Error("expected at least one cross-shard handoff during the merge phase")
	}
	if st4.PendingEvents != 0 {
		t.Errorf("PendingEvents = %d at quiescence, want 0", st4.PendingEvents)
	}
}

// TestMigratedMemberLeavesNoStrandedLock is the regression test for the
// stranded floor lock: event E from A holds the lock on member B and waits
// for B's ack; meanwhile B is decoupled from A and coupled to C, whose group
// lives on another shard, so B migrates while E stays. When B finally acks, E
// must release B's lock wherever its entry is: B's new group must accept
// events again and no shard's table may keep an entry once nothing is
// pending. (The lock table used to move the entry with B, where E's unlock
// never looked.)
func TestMigratedMemberLeavesNoStrandedLock(t *testing.T) {
	srv, bed := newBed(t, server.Options{})
	ref := func(rc *testbed.Peer) couple.ObjectRef { return couple.ObjectRef{Instance: rc.ID, Path: "/x"} }
	declared := func(user string) *testbed.Peer {
		rc := bed.Raw(wire.Register{AppType: "app", User: user})
		rc.MustOK(wire.Declare{Path: "/x", Class: "textfield"})
		return rc
	}
	a, b := declared("alice"), declared("bob")
	a.MustOK(wire.Couple{From: ref(a), To: ref(b)})
	// C must start on a different shard than the A–B group.
	var c *testbed.Peer
	for i := 0; c == nil; i++ {
		if i == 32 {
			t.Fatal("no candidate hashed to another shard")
		}
		if cand := declared(fmt.Sprintf("carol%d", i)); srv.ShardOf(ref(cand)) != srv.ShardOf(ref(b)) {
			c = cand
		}
	}

	if res, ok := a.Call(wire.Event{Path: "/x", Name: "changed", Args: []attr.Value{attr.String("e")}}).Msg.(wire.EventResult); !ok || !res.OK {
		t.Fatalf("event E not accepted: %+v", res)
	}
	held := testbed.Next[wire.Exec](b) // B withholds this ack: E stays pending
	a.MustOK(wire.Decouple{From: ref(a), To: ref(b)})
	// From C: on a size tie the From side stays put, so B is the one to move.
	c.MustOK(wire.Couple{From: ref(c), To: ref(b)})
	if srv.ShardOf(ref(b)) != srv.ShardOf(ref(c)) || srv.ShardOf(ref(b)) == srv.ShardOf(ref(a)) {
		t.Fatal("B did not migrate away from E's shard")
	}
	b.Send(wire.ExecAck{EventID: held.EventID})
	testbed.Wait(t, "E resolved", func() bool { return srv.Stats().PendingEvents == 0 })

	// An event on B's new group locks B; it must be accepted.
	testbed.Wait(t, "event on B's new group accepted", func() bool {
		res, ok := c.Call(wire.Event{Path: "/x", Name: "changed", Args: []attr.Value{attr.String("f")}}).Msg.(wire.EventResult)
		return ok && res.OK
	})
	b.Send(wire.ExecAck{EventID: testbed.Next[wire.Exec](b).EventID})
	testbed.Wait(t, "all events resolved", func() bool { return srv.Stats().PendingEvents == 0 })
	if n := srv.LocksHeld(); n != 0 {
		t.Errorf("%d lock entries left with nothing pending", n)
	}
}
