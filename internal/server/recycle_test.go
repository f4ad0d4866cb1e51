package server

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"cosoft/internal/clock"
	"cosoft/internal/couple"
	"cosoft/internal/testbed"
	"cosoft/internal/wire"
)

// The event lock recycles its resolved events, wait sets and all. Events
// alternate between a nine-member group and a two-member group, so
// each takes the event the other just gave back — resolved by acks, by a
// member's disconnect and by a deadline. Every event must wait on exactly
// its own members, unlock them once it resolves and not before, and leave no
// pending event, no wait set, no deadline of its own and no stray lock
// behind.
func TestRecycledPendingEventCarriesNothingOver(t *testing.T) {
	// The deadline is reached only by advancing the clock, which the test
	// does once, for the event no member acknowledges.
	clk := clock.NewManual()
	r := newLogRig(t, Options{Clock: clk})
	peers := func(prefix, path string, n int) []*testbed.Peer {
		ps := make([]*testbed.Peer, n)
		for i := range ps {
			ps[i] = r.peer(fmt.Sprintf("%s%d", prefix, i), path)
		}
		r.group(path, ps...)
		return ps
	}
	nine, two := peers("g", "/nine", 9), peers("h", "/two", 2)
	var timeouts uint64

	// send dispatches an event from group[0] and returns its members' Execs
	// once the origin has its verdict and the event waits on every member.
	send := func(group []*testbed.Peer, path string) []wire.Exec {
		t.Helper()
		dispatch(group[0], path, "v")
		execs := make([]wire.Exec, len(group)-1)
		for i, m := range group[1:] {
			execs[i] = testbed.Next[wire.Exec](m)
		}
		if res := testbed.Next[wire.EventResult](group[0]); !res.OK {
			t.Fatalf("event on %s refused: %s", path, res.Reason)
		}
		if got, want := waitingOn(r.srv, ref(group[0], path)), idsOf(group[1:]); !reflect.DeepEqual(got, want) {
			t.Fatalf("event on %s waits on %v, want %v", path, got, want)
		}
		return execs
	}
	ack := func(members []*testbed.Peer, execs []wire.Exec) {
		for i, m := range members {
			m.Send(wire.ExecAck{EventID: execs[i].EventID})
		}
	}
	// settle checks what a resolved event leaves behind: each of its
	// remaining members unlocked, nothing pending or awaited, no lock held,
	// only the deadlines the test provoked, and the floor-lock invariant.
	settle := func(members []*testbed.Peer) {
		t.Helper()
		for _, m := range members {
			nextUnlock(t, m)
		}
		testbed.Wait(t, "no event pending", func() bool { return r.srv.Stats().PendingEvents == 0 })
		for _, g := range r.srv.Health().Groups {
			if g.PendingEvents != 0 || len(g.Waiting) != 0 || g.LockHolder != "" {
				t.Fatalf("group %v after its event: %d pending, waiting on %v, locked by %q", g.Refs, g.PendingEvents, g.Waiting, g.LockHolder)
			}
		}
		if n := r.srv.mEventTOs.Value(); n != timeouts {
			t.Fatalf("%d events hit their deadline, want %d", n, timeouts)
		}
		if err := r.srv.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
	byAcks := func(group []*testbed.Peer, path string) {
		t.Helper()
		ack(group[1:], send(group, path))
		settle(group[1:])
	}
	rounds := func() {
		t.Helper()
		for i := 0; i < 3; i++ {
			byAcks(nine, "/nine")
			byAcks(two, "/two")
		}
	}

	rounds()

	// Every member but one acks; that one disconnects instead, which acks by
	// absence (dropWaiter). A fresh peer takes its place in the group.
	execs := send(nine, "/nine")
	gone := nine[8]
	ack(nine[1:8], execs[:7])
	testbed.Wait(t, "the event waiting on its last member alone", func() bool {
		return reflect.DeepEqual(waitingOn(r.srv, ref(nine[0], "/nine")), []string{string(gone.ID)})
	})
	gone.Close()
	settle(nine[1:8])
	nine[8] = r.peer("g9", "/nine")
	r.group("/nine", nine[0], nine[8])
	byAcks(two, "/two")

	// The member never acks: the deadline resolves the event.
	send(two, "/two")
	timeouts++
	clk.Advance(eventDeadline + sweepPeriod)
	settle(two[1:])
	byAcks(nine, "/nine")

	rounds()
}

// waitingOn is the health plane's wait set of the group holding ref.
func waitingOn(s *Server, ref couple.ObjectRef) []string {
	for _, g := range s.Health().Groups {
		for _, r := range g.Refs {
			if r == ref.String() {
				return g.Waiting
			}
		}
	}
	return nil
}

// idsOf is the sorted instance IDs of peers.
func idsOf(peers []*testbed.Peer) []string {
	ids := make([]string, len(peers))
	for i, p := range peers {
		ids[i] = string(p.ID)
	}
	sort.Strings(ids)
	return ids
}
