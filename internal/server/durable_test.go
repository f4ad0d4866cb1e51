package server_test

// Durable-log end-to-end tests: server restarts that are invisible to
// resuming clients, the session-token lifecycle across a restart, and a
// chaos soak that kills and restarts the server repeatedly under live
// traffic.

import (
	"fmt"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cosoft/internal/attr"
	"cosoft/internal/client"
	"cosoft/internal/clock"
	"cosoft/internal/couple"
	"cosoft/internal/eventlog"
	"cosoft/internal/server"
	"cosoft/internal/testbed"
	"cosoft/internal/widget"
	"cosoft/internal/wire"
)

// durable is a server on a log directory that outlives it: restart stops the
// incarnation and opens the next on the same directory, which replays it, and
// the bed's reconnecting members ride through on session resume.
type durable struct {
	t       *testing.T
	bed     *testbed.Bed
	dir     string
	opts    server.Options
	logOpts eventlog.Options
	inc     int
	srv     *server.Server // nil between stop and start
	elog    *eventlog.Log
}

func newDurable(t *testing.T, opts server.Options) *durable {
	return newDurableLog(t, opts, eventlog.Options{Sync: eventlog.SyncAlways})
}

// newDurableLog is newDurable with explicit event-log options (segment size,
// metrics sink, sync policy) that every incarnation reuses.
func newDurableLog(t *testing.T, opts server.Options, logOpts eventlog.Options) *durable {
	t.Helper()
	d := &durable{t: t, dir: t.TempDir(), opts: opts, logOpts: logOpts}
	// Registered before the bed: the last log closes after the bed has
	// closed the last server.
	t.Cleanup(func() {
		if d.elog != nil {
			d.elog.Close()
		}
	})
	d.start()
	d.bed = testbed.New(t, d.srv, testbed.Options{Check: foldCheck})
	return d
}

func (d *durable) start() {
	d.t.Helper()
	logOpts := d.logOpts
	logOpts.Dir = d.dir
	elog, err := eventlog.Open(logOpts)
	if err != nil {
		d.t.Fatalf("open event log: %v", err)
	}
	opts := d.opts
	opts.EventLog = elog
	d.inc++
	if opts.Logger != nil {
		opts.Logger = opts.Logger.With("inc", d.inc)
	}
	d.srv, d.elog = server.New(opts), elog
	if d.bed != nil {
		d.bed.Retarget(d.srv)
	}
}

// stop tears down the current incarnation: dials are refused from here on,
// the server closes first (its shutdown drops are not logged — the instances
// did not leave, the server did), then the log flushes and closes.
func (d *durable) stop() {
	d.bed.Retarget(nil)
	if d.srv != nil {
		d.srv.Close()
		d.elog.Close()
		d.srv, d.elog = nil, nil
	}
}

func (d *durable) restart() {
	d.stop()
	d.start()
}

// dial connects a reconnect-enabled client that resumes by session token
// across restarts.
func (d *durable) dial(appType, user, spec string) *client.Client {
	d.t.Helper()
	return d.bed.Dial(testbed.Member{AppType: appType, User: user, Spec: spec,
		Reconnect: &client.ReconnectOptions{}})
}

// mint has p mint a session token.
func mint(t *testing.T, p *testbed.Peer) string {
	t.Helper()
	m, ok := p.Call(wire.SessionToken{}).Msg.(wire.SessionToken)
	if !ok {
		t.Fatal("token mint refused")
	}
	return m.Token
}

// resumed is the ID p's Resume handshake reclaimed, "" when the server
// refused the token.
func resumed(t *testing.T, p *testbed.Peer) couple.InstanceID {
	t.Helper()
	switch m := p.Hello.Msg.(type) {
	case wire.Registered:
		return m.ID
	case wire.Err:
		return ""
	default:
		t.Fatalf("unexpected resume reply %T", m)
		return ""
	}
}

// TestRestartResumeInvisible kills the server mid-session and restarts it
// from the log: both clients resume by token, their declarations, coupling
// and event flow intact — no re-registration.
func TestRestartResumeInvisible(t *testing.T) {
	d := newDurable(t, server.Options{})
	a := d.dial("editor", "alice", `textfield note value=""`)
	b := d.dial("editor", "bob", `textfield note value=""`)
	mustOK(t, a.Declare("/note"))
	mustOK(t, b.Declare("/note"))
	mustOK(t, a.Couple("/note", b.Ref("/note")))
	testbed.Wait(t, "coupled", func() bool { return a.Coupled("/note") && b.Coupled("/note") })

	mustOK(t, a.Registry().Dispatch(&widget.Event{
		Path: "/note", Name: widget.EventChanged, Args: []attr.Value{attr.String("before restart")},
	}))
	testbed.Wait(t, "replicated before restart", func() bool {
		return attrOf(t, b, "/note", widget.AttrValue).AsString() == "before restart"
	})
	idA, idB := a.ID(), b.ID()

	d.restart()

	// Both clients must ride through: same IDs, coupling intact, events flow.
	testbed.Wait(t, "A dispatches after restart", func() bool {
		return a.DispatchChecked(&widget.Event{
			Path: "/note", Name: widget.EventChanged, Args: []attr.Value{attr.String("after restart")},
		}) == nil
	})
	testbed.Wait(t, "replicated after restart", func() bool {
		return attrOf(t, b, "/note", widget.AttrValue).AsString() == "after restart"
	})
	if a.ID() != idA || b.ID() != idB {
		t.Fatalf("instance IDs changed across restart: %s/%s -> %s/%s", idA, idB, a.ID(), b.ID())
	}
}

// TestRestartLeavesTheCouplingAsItWas restarts a durable server under a star
// of an anchor and 32 members. Every member resumes as kept: the server sends
// it its group's links ahead of the reply, and nobody re-couples, so the
// relation keeps its 32 links, the log gains no Couple and no Declare, the
// link notices are one per member and link, and every mirror is level with
// the server. Nor does the restart move any state: every member held the
// group until it resumed, so none pulls — no copy, no history record — and
// every resync ends clean.
func TestRestartLeavesTheCouplingAsItWas(t *testing.T) {
	const members = 32
	d := newDurable(t, server.Options{})
	var resynced, failed atomic.Int32
	cs := make([]*client.Client, members+1)
	for i := range cs {
		cs[i] = d.bed.Dial(testbed.Member{AppType: "app", User: fmt.Sprintf("u%d", i), Spec: `textfield x value=""`,
			Reconnect: &client.ReconnectOptions{OnResync: func(err error) {
				if err != nil {
					failed.Add(1)
				}
				resynced.Add(1)
			}}})
	}
	d.bed.Star("/x", cs...)
	// records counts the log's Couple, Declare and Hist records; the log syncs
	// every append, so the live directory is complete.
	records := func() (couples, declares, hists int) {
		t.Helper()
		if err := eventlog.ReplayDir(d.dir, func(rec eventlog.Record) error {
			switch rec.Kind {
			case eventlog.KindCouple:
				couples++
			case eventlog.KindDeclare:
				declares++
			case eventlog.KindHist:
				hists++
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return couples, declares, hists
	}
	couples, declares, _ := records()

	d.restart()
	testbed.Wait(t, "every member resynced", func() bool { return resynced.Load() == members+1 })
	if n := failed.Load(); n != 0 {
		t.Errorf("%d of %d resyncs reported an error, want none", n, members+1)
	}
	_, want := d.srv.GroupLinks(cs[0].Ref("/x"))
	for _, c := range cs {
		if got := c.Links(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s mirrors %d links, the server's group has %d", c.ID(), len(got), len(want))
		}
	}
	st := d.srv.Stats()
	if st.Links != members {
		t.Errorf("the restart left %d links, want %d", st.Links, members)
	}
	if limit := uint64((members + 1) * members); st.LinkNotices > limit {
		t.Errorf("the restart sent %d link notices, want at most %d", st.LinkNotices, limit)
	}
	if c, dcl, h := records(); c != couples || dcl != declares || h != 0 {
		t.Errorf("the restart added %d Couple, %d Declare and %d Hist records, want none", c-couples, dcl-declares, h)
	}
	if st.Copies != 0 {
		t.Errorf("the restart made %d state copies, want none", st.Copies)
	}
}

// TestSessionTokenLifecycleAcrossRestart: a pre-crash token is honored
// exactly once after replay, the token the resume reply carries survives the
// next crash, and a token dropped by Deregister before the crash is rejected
// after it.
func TestSessionTokenLifecycleAcrossRestart(t *testing.T) {
	d := newDurable(t, server.Options{})

	// Mint a token, then "crash".
	rc := d.bed.Raw(wire.Register{AppType: "app", User: "u1"})
	id, tok := rc.ID, mint(t, rc)

	// A deregistered instance's token is revoked durably before the crash.
	rcGone := d.bed.Raw(wire.Register{AppType: "app", User: "u2"})
	tokGone := mint(t, rcGone)
	rc2 := rcGone.Call(wire.Deregister{}).Msg
	if _, isErr := rc2.(wire.Err); isErr {
		t.Fatalf("deregister failed: %v", rc2)
	}

	d.restart()

	// The pre-crash token is honored exactly once.
	r1 := d.bed.Raw(wire.Resume{Token: tok})
	if got := resumed(t, r1); got != id {
		t.Fatalf("resume with pre-crash token: got %q, want %q", got, id)
	}
	if got := resumed(t, d.bed.Raw(wire.Resume{Token: tok})); got != "" {
		t.Fatalf("second resume with consumed token succeeded as %q", got)
	}
	// The token dropped by Deregister before the crash stays dead.
	if got := resumed(t, d.bed.Raw(wire.Resume{Token: tokGone})); got != "" {
		t.Fatalf("deregistered token resumed as %q after restart", got)
	}

	// The resume reply carries the next token, and it survives the next crash.
	tok2 := r1.Hello.Msg.(wire.Registered).Token
	if tok2 == "" || tok2 == tok {
		t.Fatalf("the resume reply carries token %q, want a fresh one", tok2)
	}
	d.restart()
	if got := resumed(t, d.bed.Raw(wire.Resume{Token: tok2})); got != id {
		t.Fatalf("resume with re-minted token: got %q, want %q", got, id)
	}
}

// TestRestoredMemberHoldsItsGroups: a restart restores every instance that
// holds a session token, and each holds the floor of its groups until it
// resumes or three heartbeats drop it. A and B mint tokens, the server
// restarts, and only A resumes: A's event is denied while B may still come
// back with the state it had. Once the window closes B departs as a silent
// member does — a KindDisconnect record, its link's removal told to A, a
// liveness timeout — and its late resume finds it dropped.
func TestRestoredMemberHoldsItsGroups(t *testing.T) {
	clk := clock.NewManual()
	d := newDurableLog(t, server.Options{Clock: clk}, eventlog.Options{Sync: eventlog.SyncAlways, Clock: clk})
	join := func(user string) (*testbed.Peer, string) {
		p := d.bed.Raw(wire.Register{AppType: "app", User: user})
		p.MustOK(wire.Declare{Path: "/x", Class: "textfield"})
		return p, mint(t, p)
	}
	a, tokA := join("u1")
	b, tokB := join("u2")
	link := couple.Link{From: couple.ObjectRef{Instance: a.ID, Path: "/x"}, To: couple.ObjectRef{Instance: b.ID, Path: "/x"}}
	a.MustOK(wire.Couple{From: link.From, To: link.To})

	d.restart()
	a = d.bed.Raw(wire.Resume{Token: tokA})
	if reg, _ := a.Hello.Msg.(wire.Registered); !reg.Kept {
		t.Fatalf("A's resume answered %+v, want kept", a.Hello.Msg)
	}
	event := wire.Event{Path: "/x", Name: widget.EventChanged, Args: []attr.Value{attr.String("v")}}
	if res, _ := a.Call(event).Msg.(wire.EventResult); res.OK || res.Reason != "a member is resuming" {
		t.Fatalf("A's event while B may resume: %+v, want it denied because a member is resuming", res)
	}
	// A state transfer takes the same floor: a copy onto A's coupled /x, and
	// an undo of it, are refused too, so B cannot resume diverged.
	copied := widget.TreeState{Class: "textfield", Name: "x", Attrs: attr.Set{widget.AttrValue: attr.String("copied")}}
	if e, _ := a.Call(wire.CopyTo{FromPath: "/x", To: link.From, State: copied}).Msg.(wire.Err); e.Text != "a member is resuming" {
		t.Errorf("A's copy onto its coupled /x while B may resume: %q, want it refused because a member is resuming", e.Text)
	}
	if e, _ := a.Call(wire.Undo{Path: "/x"}).Msg.(wire.Err); e.Text != "a member is resuming" {
		t.Errorf("A's undo while B may resume: %q, want it refused because a member is resuming", e.Text)
	}
	if n := d.srv.Stats().Copies; n != 0 {
		t.Errorf("%d state copies during the window, want none", n)
	}

	testbed.AdvanceUntil(t, clk, sweepStep, "B declared dead", func() bool { return d.srv.Stats().LivenessTimeouts > 0 })
	if got := testbed.Next[wire.LinkRemoved](a).Link; got.From != link.From || got.To != link.To {
		t.Errorf("A was told %v went, want %v", got, link)
	}
	if st := d.srv.Stats(); st.LivenessTimeouts != 1 || st.Instances != 1 || st.Links != 0 {
		t.Errorf("after the window: %d liveness timeouts, %d instances, %d links; want 1, 1, 0",
			st.LivenessTimeouts, st.Instances, st.Links)
	}
	if err := d.srv.CheckInvariants(); err != nil {
		t.Errorf("after the window: %v", err)
	}
	var gone []string // the log syncs every append, so the live directory is complete
	if err := eventlog.ReplayDir(d.dir, func(rec eventlog.Record) error {
		if rec.Kind == eventlog.KindDisconnect {
			gone = append(gone, rec.Origin)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(gone, []string{string(b.ID)}) {
		t.Errorf("the log holds departures of %v, want only B's (%s)", gone, b.ID)
	}
	if res, _ := a.Call(event).Msg.(wire.EventResult); !res.OK {
		t.Errorf("A's event after B was dropped: %+v, want it accepted", res)
	}
	late := d.bed.Raw(wire.Resume{Token: tokB})
	if reg, ok := late.Hello.Msg.(wire.Registered); !ok || reg.ID != b.ID || reg.Kept {
		t.Errorf("B's late resume answered %+v, want %s dropped", late.Hello.Msg, b.ID)
	}
}

// TestPullOutwaitsARestoredFloor: a dropped member's pull meets a group whose
// restored member R holds the floor for the whole restore window, and keeps
// trying until the window closes, however many retries that takes, and then
// lands. B is dropped while it cannot dial, the server restarts with P and R
// restored, P resumes and R does not; B resumes dropped, re-couples and pulls,
// refused "a member is resuming" until the sweep drops R.
func TestPullOutwaitsARestoredFloor(t *testing.T) {
	clk := clock.NewManual()
	d := newDurableLog(t, server.Options{Clock: clk}, eventlog.Options{Sync: eventlog.SyncAlways, Clock: clk})
	resynced := make(chan error, 1)
	b := d.bed.Dial(testbed.Member{AppType: "app", User: "bob", Spec: `textfield x value=""`,
		Reconnect: &client.ReconnectOptions{OnResync: func(err error) { resynced <- err }}})
	p, px := rawMember(d.bed, "p")
	r, rx := rawMember(d.bed, "r")
	tokP := mint(t, p)
	mint(t, r)
	mustOK(t, b.Declare("/x"))
	mustOK(t, b.Couple("/x", px))
	p.MustOK(wire.Couple{From: px, To: rx})
	testbed.Wait(t, "B mirrors the group", func() bool { return len(b.CO("/x")) == 2 })

	d.bed.Retarget(nil) // B's redials are refused until the restart
	d.bed.Fault(b).Blackhole()
	testbed.AdvanceUntil(t, clk, sweepStep, "B declared dead", func() bool { return d.srv.Stats().LivenessTimeouts > 0 })
	d.restart()
	p = d.bed.Raw(wire.Resume{Token: tokP})
	if reg, _ := p.Hello.Msg.(wire.Registered); !reg.Kept {
		t.Fatalf("P's resume answered %+v, want kept", p.Hello.Msg)
	}
	// Small steps, so B's retries keep pace with the clock: eight attempts
	// of the reconnect schedule wait 7.2 s at most, half the window.
	const step = 10 * time.Millisecond
	testbed.AdvanceUntil(t, clk, step, "B's pull refused", func() bool { return d.srv.Stats().LockFailures > 0 })
	testbed.AdvanceUntil(t, clk, step, "R dropped at the window's close", func() bool { return d.srv.Stats().LivenessTimeouts > 0 })
	testbed.AdvanceUntil(t, clk, step, "B's pull tried again", func() bool { return d.srv.Stats().PendingEvents > 0 })
	p.ServeState(textState("p-edit"))
	if err := resyncErr(t, resynced); err != nil {
		t.Fatalf("B's resync: %v, want its pull to land once R's floor went", err)
	}
	if got := attrOf(t, b, "/x", widget.AttrValue).AsString(); got != "p-edit" {
		t.Errorf("B holds %q after its pull, want P's %q", got, "p-edit")
	}
}

// TestChaosRestartSoak (make chaos-restart) kills and restarts the server
// repeatedly under live traffic. Clients ride through on session-token
// resume; afterwards every client must still be functional under its
// original ID, no event ID may be issued twice — a raw member of the group,
// resumed by the test after every restart, records each Exec ID it is sent —
// and every event acknowledged to any client must be in the log. Over 0.5 s,
// its traffic: it alone restarts the server while members dispatch at once.
func TestChaosRestartSoak(t *testing.T) {
	const restarts = 4
	d := newDurable(t, server.Options{})

	specs := []struct{ user, val string }{{"u1", "a"}, {"u2", "b"}, {"u3", "c"}}
	clients := make([]*client.Client, len(specs))
	for i, sp := range specs {
		clients[i] = d.dial("app", sp.user, `textfield x value=""`)
		mustOK(t, clients[i].Declare("/x"))
	}
	for i := 1; i < len(clients); i++ {
		mustOK(t, clients[0].Couple("/x", clients[i].Ref("/x")))
	}
	rec := d.bed.Raw(wire.Register{AppType: "raw", User: "rec", Host: "h"})
	rec.MustOK(wire.Declare{Path: "/x", Class: "textfield"})
	rec.MustOK(wire.Couple{From: couple.ObjectRef{Instance: rec.ID, Path: "/x"}, To: clients[0].Ref("/x")})
	testbed.Wait(t, "group formed", func() bool {
		for _, c := range clients {
			if len(c.CO("/x")) != len(clients) {
				return false
			}
		}
		return true
	})
	// record acknowledges every Exec the raw member is sent on this
	// connection and files its ID under the server's incarnation.
	var idMu sync.Mutex
	execIDs := make([][]uint64, restarts+1)
	record := func(p *testbed.Peer, inc int) {
		go func() {
			for env := range p.Events {
				if m, ok := env.Msg.(wire.Exec); ok {
					p.Send(wire.ExecAck{EventID: m.EventID})
					idMu.Lock()
					execIDs[inc] = append(execIDs[inc], m.EventID)
					idMu.Unlock()
				}
			}
		}()
	}
	tok := mint(t, rec)
	record(rec, 0)
	ids := make([]couple.InstanceID, len(clients))
	for i, c := range clients {
		ids[i] = c.ID()
	}

	// Traffic: every client dispatches as fast as rejections and restarts
	// allow; only server-acknowledged events count.
	var acked atomic.Uint64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i, c := range clients {
		i, c := i, c
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				err := c.DispatchChecked(&widget.Event{
					Path: "/x", Name: widget.EventChanged,
					Args: []attr.Value{attr.String(specs[i].val)},
				})
				if err == nil {
					acked.Add(1)
				}
				time.Sleep(2 * time.Millisecond)
			}
		}()
	}

	for i := 0; i < restarts; i++ {
		time.Sleep(120 * time.Millisecond)
		d.restart()
		rec = d.bed.Raw(wire.Resume{Token: tok})
		if resumed(t, rec) == "" {
			t.Fatalf("restart %d: the raw member's resume was refused", i+1)
		}
		tok = mint(t, rec)
		record(rec, i+1)
	}
	time.Sleep(150 * time.Millisecond)
	close(stop)
	wg.Wait()

	// Every client must still be alive under its original identity.
	for i, c := range clients {
		i, c := i, c
		testbed.Wait(t, "client functional after soak", func() bool {
			return c.DispatchChecked(&widget.Event{
				Path: "/x", Name: widget.EventChanged,
				Args: []attr.Value{attr.String("final-" + specs[i].user)},
			}) == nil
		})
		acked.Add(1)
		if c.ID() != ids[i] {
			t.Fatalf("client %d changed identity: %s -> %s", i, ids[i], c.ID())
		}
	}

	// No event ID issued twice: every ID an incarnation issued exceeds every
	// one its predecessors did.
	d.stop()
	idMu.Lock()
	var last uint64
	seen := 0
	for inc, got := range execIDs {
		if len(got) == 0 {
			continue // the member resumed after the incarnation's traffic
		}
		seen++
		for _, id := range got {
			if id <= last {
				t.Fatalf("incarnation %d issued event ID %d; an earlier one issued up to %d", inc, id, last)
			}
		}
		last = slices.Max(got)
	}
	idMu.Unlock()
	if seen < 2 {
		t.Fatalf("the raw member recorded Execs under %d incarnations; the check needs two", seen)
	}

	// Zero acked events lost: every acknowledged event has a log record.
	// Records are written behind their events, but each restart closes the
	// server and then its log, and closing the log writes what is queued.
	logged := uint64(0)
	if err := eventlog.ReplayDir(d.dir, func(rec eventlog.Record) error {
		if rec.Kind == eventlog.KindEvent {
			logged++
		}
		return nil
	}); err != nil {
		t.Fatalf("replay after soak: %v", err)
	}
	if got := acked.Load(); logged < got {
		t.Fatalf("acked %d events but only %d are in the log — acked events lost", got, logged)
	}
	t.Logf("soak: %d restarts, %d acked events, %d logged", restarts, acked.Load(), logged)
}
