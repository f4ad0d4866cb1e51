package server

// Tests of an event that waits for its log record: the shard loop keeps
// serving while the write is held, a committing event migrates with its
// group and goes out from the receiving shard, and its deadline starts only
// once it has gone out. The log's write-hold hook stands in for a slow disk.

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"cosoft/internal/attr"
	"cosoft/internal/couple"
	"cosoft/internal/eventlog"
	"cosoft/internal/testbed"
	"cosoft/internal/widget"
	"cosoft/internal/wire"
)

// commitRig is a logged server on a bed of raw peers, with the log's writes
// held while hold's gate is shut.
type commitRig struct {
	t    *testing.T
	srv  *Server
	bed  *testbed.Bed
	elog *eventlog.Log
	gate chan struct{}
	open func()
}

func newCommitRig(t *testing.T, opts Options) *commitRig {
	t.Helper()
	elog, err := eventlog.Open(eventlog.Options{Dir: t.TempDir(), Sync: eventlog.SyncInterval})
	if err != nil {
		t.Fatal(err)
	}
	// Registered before the bed, so the server closes before its log does.
	t.Cleanup(func() { elog.Close() })
	opts.EventLog = elog
	r := &commitRig{t: t, srv: New(opts), elog: elog}
	r.bed = testbed.New(t, r.srv, testbed.Options{})
	// Registered after the bed, so a held write is let go before teardown
	// judges the server.
	t.Cleanup(func() {
		if r.open != nil {
			r.open()
		}
	})
	return r
}

// hold shuts the gate on the log's writes; release opens it.
func (r *commitRig) hold() {
	r.gate = make(chan struct{})
	r.open = sync.OnceFunc(func() { close(r.gate) })
	r.elog.WriteGate(r.gate)
}

func (r *commitRig) release() { r.open() }

// peer registers a raw peer declaring path.
func (r *commitRig) peer(user, path string) *testbed.Peer {
	p := r.bed.Raw(wire.Register{AppType: "app", User: user, Host: "h"})
	p.MustOK(wire.Declare{Path: path, Class: "textfield"})
	return p
}

// group couples every peer's path to the first one's, from the first.
func (r *commitRig) group(path string, peers ...*testbed.Peer) {
	for _, p := range peers[1:] {
		peers[0].MustOK(wire.Couple{From: ref(peers[0], path), To: ref(p, path)})
	}
}

func ref(p *testbed.Peer, path string) couple.ObjectRef {
	return couple.ObjectRef{Instance: p.ID, Path: path}
}

func dispatch(p *testbed.Peer, path, val string) {
	p.Send(wire.Event{Path: path, Name: widget.EventChanged, Args: []attr.Value{attr.String(val)}})
}

// events reads, on sh's loop, how many events sh holds and how many of them
// are still committing.
func (r *commitRig) events(sh *shard) (pending, committing int) {
	r.t.Helper()
	type count struct{ pending, committing int }
	ch := make(chan count, 1)
	if !r.srv.postShard(sh, func() {
		c := count{pending: len(sh.pending)}
		for _, pe := range sh.pending {
			if pe.committing() {
				c.committing++
			}
		}
		ch <- c
	}) {
		r.t.Fatal("server closed")
	}
	select {
	case c := <-ch:
		return c.pending, c.committing
	case <-time.After(5 * time.Second):
		r.t.Fatalf("shard %d did not answer: its loop is blocked", sh.idx)
		return 0, 0
	}
}

// waitEvents waits until sh holds pending events, committing of them still
// committing.
func (r *commitRig) waitEvents(sh *shard, pending, committing int) {
	r.t.Helper()
	testbed.Wait(r.t, fmt.Sprintf("%d events on shard %d, %d committing", pending, sh.idx, committing), func() bool {
		p, c := r.events(sh)
		return p == pending && c == committing
	})
}

// quiet fails the test if p has been sent anything about an event.
func quiet(t *testing.T, p *testbed.Peer, what string) {
	t.Helper()
	for {
		select {
		case env, open := <-p.Events:
			if !open {
				return
			}
			switch env.Msg.(type) {
			case wire.Exec, wire.SetLocks, wire.EventResult:
				t.Fatalf("%s was sent %T before the event's record was durable", what, env.Msg)
			}
		default:
			return
		}
	}
}

// nextUnlock returns p's next SetLocks, failing unless it unlocks.
func nextUnlock(t *testing.T, p *testbed.Peer) {
	t.Helper()
	if m := testbed.Next[wire.SetLocks](p); m.Locked {
		t.Fatalf("%s: SetLocks %v locks, want the unlock", p.ID, m.Paths)
	}
}

// A held write for one group's event does not hold up another group on the
// same shard loop: group A's acks resolve and unlock A while group B's
// record waits for the disk. When the append blocked the loop, A's acks
// queued behind it.
func TestHeldWriteDoesNotBlockShard(t *testing.T) {
	r := newCommitRig(t, Options{Shards: 1})
	sh := r.srv.shards[0]
	a1, a2 := r.peer("a1", "/a"), r.peer("a2", "/a")
	b1, b2 := r.peer("b1", "/b"), r.peer("b2", "/b")
	r.group("/a", a1, a2)
	r.group("/b", b1, b2)

	dispatch(a1, "/a", "one")
	exec := testbed.Next[wire.Exec](a2)
	if res := testbed.Next[wire.EventResult](a1); !res.OK {
		t.Fatalf("A's event refused: %s", res.Reason)
	}

	r.hold()
	dispatch(b1, "/b", "two")
	r.waitEvents(sh, 2, 1)

	a2.Send(wire.ExecAck{EventID: exec.EventID})
	nextUnlock(t, a2)
	r.waitEvents(sh, 1, 1)
	if _, held := sh.locks.HeldBy(ref(a2, "/a")); held {
		t.Fatal("A's lock outlived its event")
	}
	if _, held := sh.locks.HeldBy(ref(b2, "/b")); !held {
		t.Fatal("B's committing event does not hold its floor")
	}
	quiet(t, b1, "B's origin")
	quiet(t, b2, "B's member")

	r.release()
	exec = testbed.Next[wire.Exec](b2)
	if res := testbed.Next[wire.EventResult](b1); !res.OK {
		t.Fatalf("B's event refused: %s", res.Reason)
	}
	b2.Send(wire.ExecAck{EventID: exec.EventID})
	nextUnlock(t, b2)
	r.waitEvents(sh, 0, 0)
}

// An event still committing when its group migrates goes with the group:
// the commit report lands on the shard the event was born on, is chased to
// the receiving shard, and the event's fan-out, acks and unlock all happen
// there, under the plan its lock was taken with.
func TestCommittingEventMigrates(t *testing.T) {
	r := newCommitRig(t, Options{Shards: 2})
	b1, b2 := r.peer("b1", "/b"), r.peer("b2", "/b")
	r.group("/b", b1, b2)
	from := r.srv.shardForRef(ref(b1, "/b"))

	// Group C, one member larger, on the other shard: its first member's hash
	// places it, and merging B into it moves B.
	c1 := r.bed.Raw(wire.Register{AppType: "app", User: "c1", Host: "h"})
	path := ""
	for i := 0; path == ""; i++ {
		if p := fmt.Sprintf("/c%d", i); int(hashRef(couple.ObjectRef{Instance: c1.ID, Path: p})%2) != from.idx {
			path = p
		}
	}
	c1.MustOK(wire.Declare{Path: path, Class: "textfield"})
	r.group(path, c1, r.peer("c2", path), r.peer("c3", path))
	to := r.srv.shardForRef(ref(c1, path))
	if to == from {
		t.Fatalf("groups B and C share shard %d", to.idx)
	}

	r.hold()
	dispatch(b1, "/b", "moving")
	r.waitEvents(from, 1, 1)
	handoffs := r.srv.mHandoffs.Value()
	// The Couple's own record waits behind the gate too, so its answer
	// arrives on Events once the write is let go.
	b1.Send(wire.Couple{From: ref(b1, "/b"), To: ref(c1, path)})
	testbed.Wait(t, "B migrated", func() bool {
		return r.srv.mHandoffs.Value() == handoffs+1 && r.srv.shardForRef(ref(b1, "/b")) == to
	})
	r.waitEvents(to, 1, 1)
	r.waitEvents(from, 0, 0)

	r.release()
	exec := testbed.Next[wire.Exec](b2)
	if res := testbed.Next[wire.EventResult](b1); !res.OK {
		t.Fatalf("the migrated event was refused: %s", res.Reason)
	}
	r.waitEvents(to, 1, 0)
	if _, held := to.locks.HeldBy(ref(b2, "/b")); !held {
		t.Fatal("the receiving shard does not hold the migrated event's lock")
	}
	if from.locks.Len() != 0 {
		t.Fatal("the birth shard still holds locks")
	}
	b2.Send(wire.ExecAck{EventID: exec.EventID})
	nextUnlock(t, b2)
	r.waitEvents(to, 0, 0)
	if to.locks.Len() != 0 {
		t.Fatal("the unlock left locks on the receiving shard")
	}
	if _, forwarded := r.srv.router.eventShard(exec.EventID); forwarded {
		t.Fatal("the migrated event's forwarding entry outlived it")
	}
}

// An event's deadline runs from its broadcast: a write held for longer than
// the deadline does not unlock the group under the committing event, and
// the deadline still resolves it once it has gone out and the member stays
// silent.
func TestDeadlineWaitsForCommit(t *testing.T) {
	const deadline = 20 * time.Millisecond
	r := newCommitRig(t, Options{Shards: 1, EventDeadline: deadline})
	sh := r.srv.shards[0]
	a1, a2 := r.peer("a1", "/a"), r.peer("a2", "/a")
	r.group("/a", a1, a2)

	r.hold()
	dispatch(a1, "/a", "slow disk")
	r.waitEvents(sh, 1, 1)
	time.Sleep(5 * deadline)
	r.waitEvents(sh, 1, 1)
	if _, held := sh.locks.HeldBy(ref(a2, "/a")); !held {
		t.Fatal("the group unlocked under its committing event")
	}
	if n := r.srv.mEventTOs.Value(); n != 0 {
		t.Fatalf("%d deadlines fired before the event went out", n)
	}
	quiet(t, a1, "the origin")
	quiet(t, a2, "the member")

	r.release()
	testbed.Next[wire.Exec](a2) // and never acknowledged
	nextUnlock(t, a2)
	if n := r.srv.mEventTOs.Value(); n != 1 {
		t.Fatalf("event timeouts = %d, want 1", n)
	}
	r.waitEvents(sh, 0, 0)
}

// A server closed while an event commits sends nothing for it and releases
// its shared body: nothing stays referenced once the server has closed.
func TestCloseReleasesCommittingEvent(t *testing.T) {
	r := newCommitRig(t, Options{Shards: 1})
	a1, a2 := r.peer("a1", "/a"), r.peer("a2", "/a")
	r.group("/a", a1, a2)
	r.hold()
	dispatch(a1, "/a", "never sent")
	r.waitEvents(r.srv.shards[0], 1, 1)
	r.srv.Close()
	waitNoLiveBodies(t)
	quiet(t, a2, "the member")
}
