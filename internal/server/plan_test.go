package server_test

import (
	"fmt"
	"reflect"
	"sort"
	"testing"
	"time"

	"cosoft/internal/couple"
	"cosoft/internal/server"
	"cosoft/internal/wire"
)

// planRig drives events on one source through raw clients and holds every
// event to what the couple graph says at that moment, so a broadcast plan
// cached before a change and used after it shows as a wrong frame somewhere.
type planRig struct {
	t      *testing.T
	h      *harness
	origin *rawClient
	source couple.ObjectRef
	// peers is every other raw client ever created, coupled or not: the ones
	// outside the group must see nothing.
	peers  []*rawClient
	closed map[*rawClient]bool
	events int
}

func newPlanRig(t *testing.T) *planRig {
	h := newHarness(t, server.Options{})
	r := &planRig{t: t, h: h, closed: make(map[*rawClient]bool)}
	r.origin = newRawClient(t, h, "app", "origin")
	r.origin.mustOK(wire.Declare{Path: "/x", Class: "textfield"})
	r.source = couple.ObjectRef{Instance: r.origin.id, Path: "/x"}
	return r
}

// peer registers one more raw client declaring the given textfields.
func (r *planRig) peer(user string, paths ...string) *rawClient {
	rc := newRawClient(r.t, r.h, "app", user)
	for _, p := range paths {
		rc.mustOK(wire.Declare{Path: p, Class: "textfield"})
	}
	r.peers = append(r.peers, rc)
	return rc
}

func ref(rc *rawClient, path string) couple.ObjectRef {
	return couple.ObjectRef{Instance: rc.id, Path: path}
}

// nextFanout returns the next Exec or SetLocks rc receives, skipping the
// link notices coupling changes produce.
func (r *planRig) nextFanout(rc *rawClient) wire.Message {
	r.t.Helper()
	deadline := time.After(5 * time.Second)
	for {
		select {
		case env, ok := <-rc.events:
			if !ok {
				r.t.Fatalf("%s: connection closed while a frame was expected", rc.id)
			}
			switch env.Msg.(type) {
			case wire.Exec, wire.SetLocks:
				return env.Msg
			}
		case <-deadline:
			r.t.Fatalf("%s: timed out waiting for a fan-out frame", rc.id)
		}
	}
}

// quiet fails if rc was sent an Exec or a SetLocks. A Ping round trip is the
// barrier: its Pong leaves through the same outbox as anything the event
// queued for rc before it.
func (r *planRig) quiet(rc *rawClient, when string) {
	r.t.Helper()
	rc.call(wire.Ping{Nonce: 1})
	for {
		select {
		case env := <-rc.events:
			switch env.Msg.(type) {
			case wire.Exec, wire.SetLocks:
				r.t.Errorf("%s is outside the group but was sent %s %+v %s", rc.id, env.Msg.MsgType(), env.Msg, when)
			}
		default:
			return
		}
	}
}

// waiting returns Health()'s wait set for the source's group.
func (r *planRig) waiting() []string {
	for _, g := range r.h.srv.Health().Groups {
		for _, s := range g.Refs {
			if s == r.source.String() {
				return g.Waiting
			}
		}
	}
	return nil
}

// fire dispatches one event on the source and checks its whole life against
// an uncached CO(source): who gets the lock notice and with which paths, who
// gets which Execs, whom Health() reports the group waiting on, and who gets
// the unlock notice — and that nobody else gets anything.
func (r *planRig) fire(step string) {
	r.t.Helper()
	r.events++
	name := fmt.Sprintf("ev%d", r.events)
	want := make(map[couple.InstanceID][]string) // instance → its member paths, sorted
	for _, m := range r.h.srv.UncachedCO(r.source) {
		want[m.Instance] = append(want[m.Instance], m.Path)
	}
	res, ok := r.origin.call(wire.Event{Path: "/x", Name: name}).Msg.(wire.EventResult)
	if !ok || !res.OK {
		r.t.Fatalf("%s: event refused: %+v", step, res)
	}

	var waitSet []string
	eventIDs := make(map[*rawClient][]uint64)
	for _, rc := range r.peers {
		paths, member := want[rc.id]
		if r.closed[rc] {
			continue
		}
		if !member {
			r.quiet(rc, "after "+step)
			continue
		}
		waitSet = append(waitSet, string(rc.id))
		if got := r.nextFanout(rc); !reflect.DeepEqual(got, wire.SetLocks{Paths: paths, Locked: true}) {
			r.t.Errorf("%s: %s got %+v, want the lock notice for %v", step, rc.id, got, paths)
		}
		for _, p := range paths {
			ex, ok := r.nextFanout(rc).(wire.Exec)
			if !ok || ex.TargetPath != p || ex.Name != name || ex.Origin != r.source {
				r.t.Errorf("%s: %s got %+v, want Exec %s on %s", step, rc.id, ex, name, p)
			}
			eventIDs[rc] = append(eventIDs[rc], ex.EventID)
		}
	}
	sort.Strings(waitSet)
	if got := r.waiting(); !reflect.DeepEqual(got, waitSet) {
		r.t.Errorf("%s: Health() reports the group waiting on %v, want %v", step, got, waitSet)
	}

	for rc, ids := range eventIDs {
		for _, id := range ids {
			rc.send(wire.ExecAck{EventID: id})
		}
	}
	for _, rc := range r.peers {
		if r.closed[rc] {
			continue
		}
		if paths, member := want[rc.id]; member {
			if got := r.nextFanout(rc); !reflect.DeepEqual(got, wire.SetLocks{Paths: paths, Locked: false}) {
				r.t.Errorf("%s: %s got %+v, want the unlock notice for %v", step, rc.id, got, paths)
			}
		} else {
			r.quiet(rc, "after the unlock of "+step)
		}
	}
	waitFor(r.t, "event resolved", func() bool { return r.h.srv.Stats().PendingEvents == 0 })
	if got := r.waiting(); len(got) != 0 {
		r.t.Errorf("%s: Health() still reports %v awaited after the unlock", step, got)
	}
}

// TestPlanCacheFollowsGraph changes the source's group between events on it
// in every way a group can change — couple, decouple, retract, a member's
// connection dying, a cross-shard couple that migrates the group — and after
// each requires the next event to go exactly where the graph says, not where
// the previous event's plan said.
func TestPlanCacheFollowsGraph(t *testing.T) {
	r := newPlanRig(t)
	m1 := r.peer("m1", "/x", "/y") // two members in one instance: two Execs, two acks, one notice
	m2 := r.peer("m2", "/x")
	r.origin.mustOK(wire.Couple{From: r.source, To: ref(m1, "/x")})
	r.origin.mustOK(wire.Couple{From: r.source, To: ref(m1, "/y")})
	r.origin.mustOK(wire.Couple{From: r.source, To: ref(m2, "/x")})
	r.fire("the first event")
	r.fire("a second event on the cached plan")

	m3 := r.peer("m3", "/x")
	r.origin.mustOK(wire.Couple{From: r.source, To: ref(m3, "/x")})
	r.fire("(a) coupling a new member")

	r.origin.mustOK(wire.Decouple{From: r.source, To: ref(m2, "/x")})
	r.fire("(b) decoupling a member")

	m1.mustOK(wire.Retract{Path: "/y"})
	r.fire("(c) retracting a member object")

	instances := r.h.srv.Stats().Instances
	r.closed[m3] = true
	m3.conn.Close()
	waitFor(t, "the server to notice the dead connection", func() bool {
		return r.h.srv.Stats().Instances == instances-1
	})
	r.fire("(d) a member's connection dying")

	// (e) Build a larger group on another shard and couple the source into
	// it: the smaller group — the source's — migrates, so the next event runs
	// on a shard whose cache has never seen the source.
	home := r.h.srv.ShardOf(r.source)
	var far []*rawClient
	for try := 0; len(far) == 0; try++ {
		if try == 16 {
			t.Fatal("no group landed on another shard in 16 tries")
		}
		path := fmt.Sprintf("/far%d", try)
		var g []*rawClient
		for i := 0; i < 4; i++ {
			g = append(g, r.peer(fmt.Sprintf("far%d-%d", try, i), path))
		}
		for _, rc := range g[1:] {
			g[0].mustOK(wire.Couple{From: ref(g[0], path), To: ref(rc, path)})
		}
		if r.h.srv.ShardOf(ref(g[0], path)) != home {
			far = g
			r.origin.mustOK(wire.Couple{From: r.source, To: ref(g[0], path)})
		}
	}
	if r.h.srv.ShardOf(r.source) == home {
		t.Fatal("the source's group did not migrate")
	}
	r.fire("(e) a cross-shard couple migrating the group")
	r.fire("a second event on the new shard")
}
