package server_test

// Durable-log end-to-end tests: server restarts that are invisible to
// resuming clients, the session-token lifecycle across a restart, and a
// chaos soak that kills and restarts the server repeatedly under live
// traffic.

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cosoft/internal/attr"
	"cosoft/internal/client"
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
	if opts.Shards == 0 {
		opts.Shards = server.HarnessShards
	}
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
		Reconnect: &client.ReconnectOptions{MaxAttempts: 50, BaseDelay: 2 * time.Millisecond, MaxDelay: 50 * time.Millisecond}})
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

// TestSessionTokenLifecycleAcrossRestart covers satellite S3: a pre-crash
// token is honored exactly once after replay, a resumed session can re-mint,
// and a token dropped by Deregister before the crash is rejected after it.
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

	// The resumed session re-mints and the new token survives the next crash.
	tok2 := mint(t, r1)
	d.restart()
	if got := resumed(t, d.bed.Raw(wire.Resume{Token: tok2})); got != id {
		t.Fatalf("resume with re-minted token: got %q, want %q", got, id)
	}
}

// TestChaosRestartSoak (make chaos-restart) kills and restarts the server
// repeatedly under live traffic. Clients ride through on session-token
// resume; afterwards every client must still be functional under its
// original ID, and every event acknowledged to any client must be in the
// durable log — zero acked events lost.
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
	testbed.Wait(t, "group formed", func() bool {
		for _, c := range clients {
			if len(c.CO("/x")) != len(clients)-1 {
				return false
			}
		}
		return true
	})
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

	// Zero acked events lost: every acknowledged event has a log record.
	d.stop()
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
