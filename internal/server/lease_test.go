package server

// Tests of an event's log record as an audit entry written behind the event:
// a held write holds up no event, a server closed under a held write leaves
// no shared body behind, a failed ID lease refuses the event, and no event ID
// is issued twice across a crash that loses the records of acked events. A
// fault disk under the log stands in for a slow disk, by holding its writes,
// and for a dying one, by failing them.

import (
	"fmt"
	"testing"

	"cosoft/internal/attr"
	"cosoft/internal/couple"
	"cosoft/internal/eventlog"
	"cosoft/internal/faultdisk"
	"cosoft/internal/testbed"
	"cosoft/internal/widget"
	"cosoft/internal/wire"
)

// logRig is a logged server on a bed of raw peers, with the log's writes
// held between hold and release.
type logRig struct {
	t    *testing.T
	srv  *Server
	bed  *testbed.Bed
	elog *eventlog.Log
	disk *faultdisk.Disk
	held *faultdisk.Hold
}

func newLogRig(t *testing.T, opts Options) *logRig {
	t.Helper()
	disk := &faultdisk.Disk{}
	elog, err := eventlog.Open(eventlog.Options{Dir: t.TempDir(), Sync: eventlog.SyncInterval, FS: disk, Clock: opts.Clock})
	if err != nil {
		t.Fatal(err)
	}
	// Registered before the bed, so the server closes before its log does.
	t.Cleanup(func() { elog.Close() })
	opts.EventLog = elog
	r := &logRig{t: t, srv: New(opts), elog: elog, disk: disk}
	r.bed = testbed.New(t, r.srv, testbed.Options{})
	// Registered after the bed, so a held write is let go before teardown
	// judges the server.
	t.Cleanup(func() {
		if r.held != nil {
			r.held.Release()
		}
	})
	return r
}

// hold holds the log's segment writes; release lets them go.
func (r *logRig) hold() { r.held = r.disk.Hold(faultdisk.Segment, faultdisk.OpWrite) }

func (r *logRig) release() { r.held.Release() }

// peer registers a raw peer declaring path.
func (r *logRig) peer(user, path string) *testbed.Peer {
	p := r.bed.Raw(wire.Register{AppType: "app", User: user, Host: "h"})
	p.MustOK(wire.Declare{Path: path, Class: "textfield"})
	return p
}

// group couples every peer's path to the first one's, from the first.
func (r *logRig) group(path string, peers ...*testbed.Peer) {
	for _, p := range peers[1:] {
		peers[0].MustOK(wire.Couple{From: ref(peers[0], path), To: ref(p, path)})
	}
}

// eventRecords counts the event records in the log's directory.
func (r *logRig) eventRecords() int {
	r.t.Helper()
	n := 0
	if err := eventlog.ReplayDir(r.elog.Dir(), func(rec eventlog.Record) error {
		if rec.Kind == eventlog.KindEvent {
			n++
		}
		return nil
	}); err != nil {
		r.t.Fatal(err)
	}
	return n
}

func ref(p *testbed.Peer, path string) couple.ObjectRef {
	return couple.ObjectRef{Instance: p.ID, Path: path}
}

func dispatch(p *testbed.Peer, path, val string) {
	p.Send(wire.Event{Path: path, Name: widget.EventChanged, Args: []attr.Value{attr.String(val)}})
}

// fire has origin dispatch one event on path, which member acknowledges; it
// returns once the origin has its verdict and the member its unlock, and
// returns the event's ID.
func fire(t *testing.T, origin, member *testbed.Peer, path, val string) uint64 {
	t.Helper()
	dispatch(origin, path, val)
	exec := testbed.Next[wire.Exec](member)
	member.Send(wire.ExecAck{EventID: exec.EventID})
	if res := testbed.Next[wire.EventResult](origin); !res.OK {
		t.Fatalf("event %q refused: %s", val, res.Reason)
	}
	nextUnlock(t, member)
	return exec.EventID
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
			case wire.Exec, wire.SetLocks:
				t.Fatalf("%s was sent %T for a refused event", what, env.Msg)
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

// With the log's writes held after the first lease, events of two groups
// are granted, broadcast, acknowledged and unlocked as if there were no log,
// and their records land once the write is let go.
func TestHeldWriteDoesNotBlockEvents(t *testing.T) {
	r := newLogRig(t, Options{})
	a1, a2 := r.peer("a1", "/a"), r.peer("a2", "/a")
	b1, b2 := r.peer("b1", "/b"), r.peer("b2", "/b")
	r.group("/a", a1, a2)
	r.group("/b", b1, b2)

	fire(t, a1, a2, "/a", "leased")
	testbed.Wait(t, "the first event's record", func() bool { return r.eventRecords() == 1 })

	r.hold()
	for i := 0; i < 3; i++ {
		fire(t, a1, a2, "/a", fmt.Sprint("a", i))
		fire(t, b1, b2, "/b", fmt.Sprint("b", i))
	}
	if n := r.srv.Stats().PendingEvents; n != 0 {
		t.Fatalf("%d events pending with every one acknowledged", n)
	}
	if n := r.srv.LocksHeld(); n != 0 {
		t.Fatalf("%d locks held with every event resolved", n)
	}
	if n := r.eventRecords(); n != 1 {
		t.Fatalf("%d event records landed through the held write, want 1", n)
	}

	r.release()
	testbed.Wait(t, "the held events' records", func() bool { return r.eventRecords() == 7 })
}

// A server closed while its log's writes are held leaves no shared body
// referenced: an event's record is encoded into the log's fill buffer, not
// kept by reference.
func TestCloseUnderHeldWriteReleasesBodies(t *testing.T) {
	r := newLogRig(t, Options{})
	a1, a2 := r.peer("a1", "/a"), r.peer("a2", "/a")
	r.group("/a", a1, a2)
	fire(t, a1, a2, "/a", "leased")
	r.hold()
	dispatch(a1, "/a", "held")
	testbed.Next[wire.Exec](a2) // and never acknowledged
	r.srv.Close()
	waitNoLiveBodies(t)
}

// A lease the log cannot write refuses the event it was for: the origin is
// told so, the group unlocks, no member hears of the event, the failure is
// counted, and the event sequence stays where it was.
func TestFailedLeaseRefusesEvent(t *testing.T) {
	r := newLogRig(t, Options{})
	a1, a2 := r.peer("a1", "/a"), r.peer("a2", "/a")
	r.group("/a", a1, a2)
	r.disk.Arm(faultdisk.Fault{Class: faultdisk.Segment, At: 1})

	res := a1.Call(wire.Event{Path: "/a", Name: widget.EventChanged, Args: []attr.Value{attr.String("unleased")}}).Msg.(wire.EventResult)
	if res.OK || res.Reason != "event log append failed" {
		t.Fatalf("event verdict %+v, want refused: event log append failed", res)
	}
	st := r.srv.Stats()
	if st.PendingEvents != 0 || r.srv.LocksHeld() != 0 {
		t.Fatalf("%d events pending and %d locks held after the refusal", st.PendingEvents, r.srv.LocksHeld())
	}
	if st.LogAppendErrors != 1 {
		t.Fatalf("LogAppendErrors = %d, want 1", st.LogAppendErrors)
	}
	if st.ExecsSent != 0 {
		t.Fatalf("%d Execs sent for the refused event", st.ExecsSent)
	}
	var got [2]uint64
	r.srv.withEvents(func() { got = [2]uint64{r.srv.ev.seq, r.srv.ev.ceiling} })
	if got != [2]uint64{0, 0} {
		t.Fatalf("event sequence and ceiling %v after the refused lease, want [0 0]", got)
	}
	quiet(t, a2, "the member")
}

// No event ID is issued twice across a crash. Events are acknowledged while
// the log's write is held, so their records wait in the fill buffer; the
// held write then tears, taking every one of those records with it, and the
// directory is reopened under a new server. Every Exec ID a member sees
// after the restart exceeds every one seen before it: the durable lease, not
// the lost records, carries the floor.
func TestEventIDNeverReissued(t *testing.T) {
	dir := t.TempDir()
	disk := &faultdisk.Disk{}
	start := func() (*Server, *testbed.Bed, *eventlog.Log) {
		t.Helper()
		elog, err := eventlog.Open(eventlog.Options{Dir: dir, Sync: eventlog.SyncAlways, FS: disk})
		if err != nil {
			t.Fatal(err)
		}
		srv := New(Options{EventLog: elog})
		return srv, testbed.New(t, srv, testbed.Options{}), elog
	}
	// pair registers an origin and a raw member recording every Exec ID
	// it is sent, and couples the two.
	pair := func(bed *testbed.Bed) (origin, member *testbed.Peer) {
		origin = bed.Raw(wire.Register{AppType: "app", User: "origin", Host: "h"})
		member = bed.Raw(wire.Register{AppType: "app", User: "member", Host: "h"})
		for _, p := range []*testbed.Peer{origin, member} {
			p.MustOK(wire.Declare{Path: "/x", Class: "textfield"})
		}
		origin.MustOK(wire.Couple{From: ref(origin, "/x"), To: ref(member, "/x")})
		return origin, member
	}

	srv, bed, elog := start()
	origin, member := pair(bed)
	var before []uint64
	before = append(before, fire(t, origin, member, "/x", "leased"))
	held := disk.Hold(faultdisk.Segment, faultdisk.OpWrite)
	for i := 0; i < 4; i++ {
		before = append(before, fire(t, origin, member, "/x", fmt.Sprint("held", i)))
	}
	disk.Arm(faultdisk.Fault{Class: faultdisk.Segment, At: 1, Partial: 5})
	held.Release()
	testbed.Wait(t, "the held write to tear", disk.Fired)
	bed.Close()
	if err := elog.Close(); err != nil {
		t.Fatal(err)
	}

	srv, bed, elog = start()
	defer elog.Close()
	defer bed.Close()
	origin, member = pair(bed)
	last := before[0]
	for _, id := range before {
		last = max(last, id)
	}
	for i := 0; i < 4; i++ {
		if id := fire(t, origin, member, "/x", fmt.Sprint("after", i)); id <= last {
			t.Fatalf("event ID %d issued after the restart; IDs up to %d were issued before it (%v)", id, last, before)
		}
	}
	if diff := srv.FoldDivergence(); diff != "" {
		t.Fatalf("live state is not the fold of its log: %s", diff)
	}
}
