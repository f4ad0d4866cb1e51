package server_test

// Durable-log end-to-end tests: server restarts that are invisible to
// resuming clients, the session-token lifecycle across a restart, and a
// chaos soak that kills and restarts the server repeatedly under live
// traffic.

import (
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cosoft/internal/attr"
	"cosoft/internal/client"
	"cosoft/internal/couple"
	"cosoft/internal/eventlog"
	"cosoft/internal/netsim"
	"cosoft/internal/server"
	"cosoft/internal/widget"
	"cosoft/internal/wire"
)

// durableServer runs a restartable durable server: each incarnation opens
// the same log directory, replays it, and serves in-process connections.
// Dial targets whichever incarnation is current, so reconnecting clients
// ride through a restart.
type durableServer struct {
	t       *testing.T
	dir     string
	opts    server.Options
	logOpts eventlog.Options
	inc     int

	mu   sync.Mutex
	srv  *server.Server
	elog *eventlog.Log
	wg   sync.WaitGroup

	checked sync.Once
}

func newDurableServer(t *testing.T, opts server.Options) *durableServer {
	return newDurableLogServer(t, opts, eventlog.Options{Sync: eventlog.SyncAlways})
}

// newDurableLogServer is newDurableServer with explicit event-log options
// (segment size, metrics sink, sync policy) that every incarnation reuses.
func newDurableLogServer(t *testing.T, opts server.Options, logOpts eventlog.Options) *durableServer {
	t.Helper()
	if opts.Shards == 0 {
		opts.Shards = server.HarnessShards
	}
	d := &durableServer{t: t, dir: t.TempDir(), opts: opts, logOpts: logOpts}
	d.start()
	t.Cleanup(func() {
		d.stop()
		d.wg.Wait()
	})
	return d
}

func (d *durableServer) start() {
	d.t.Helper()
	logOpts := d.logOpts
	logOpts.Dir = d.dir
	elog, err := eventlog.Open(logOpts)
	if err != nil {
		d.t.Fatalf("open event log: %v", err)
	}
	opts := d.opts
	opts.EventLog = elog
	d.mu.Lock()
	d.inc++
	if opts.Logger != nil {
		opts.Logger = opts.Logger.With("inc", d.inc)
	}
	d.srv = server.New(opts)
	d.elog = elog
	d.mu.Unlock()
}

// stop tears down the current incarnation: server first (its shutdown drops
// are not logged — the instances did not leave, the server did), then the
// log, which flushes and closes the segment files.
func (d *durableServer) stop() {
	d.mu.Lock()
	srv, elog := d.srv, d.elog
	d.srv, d.elog = nil, nil
	d.mu.Unlock()
	if srv != nil {
		srv.Close()
	}
	if elog != nil {
		elog.Close()
	}
}

func (d *durableServer) restart() {
	d.stop()
	d.start()
}

// current returns the running incarnation (nil between stop and start).
func (d *durableServer) current() *server.Server {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.srv
}

// dialConn opens an in-process connection to the current incarnation. During
// the instant between stop and start the old server still answers (and
// immediately drops the conn), which is exactly the refused-dial window a
// reconnecting client retries through.
func (d *durableServer) dialConn() (net.Conn, error) {
	srv := d.current()
	link := netsim.NewLink(0)
	if srv == nil {
		link.B.Close()
		return link.A, nil
	}
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		srv.HandleConn(wire.NewConn(link.B))
	}()
	return link.A, nil
}

// dial connects a reconnect-enabled client that resumes by session token
// across restarts; batching says whether it opts into the batch extension.
func (d *durableServer) dial(appType, user, spec string, batching bool) *client.Client {
	d.t.Helper()
	reg := widget.NewRegistry()
	if spec != "" {
		widget.MustBuild(reg, "/", spec)
	}
	conn, _ := d.dialConn()
	c, err := client.New(conn, client.Options{
		AppType: appType, User: user, Host: "durable", Registry: reg,
		RPCTimeout: 5 * time.Second,
		Batching:   batching,
		Reconnect: &client.ReconnectOptions{
			Dial:        d.dialConn,
			MaxAttempts: 50,
			BaseDelay:   2 * time.Millisecond,
			MaxDelay:    50 * time.Millisecond,
		},
	})
	if err != nil {
		d.t.Fatalf("dial %s: %v", user, err)
	}
	d.t.Cleanup(c.Close)
	// The teardown invariant checks, ahead of the first client Close.
	d.t.Cleanup(func() {
		d.checked.Do(func() {
			if srv := d.current(); srv != nil {
				checkInvariants(d.t, srv)
			}
		})
	})
	return c
}

// rawConn speaks the wire protocol directly against a durable server, for
// token-lifecycle steps a full client would hide.
type rawConn struct {
	t    *testing.T
	conn *wire.Conn
	seq  uint64
}

func newRawConn(t *testing.T, d *durableServer) *rawConn {
	t.Helper()
	c, _ := d.dialConn()
	conn := wire.NewConn(c)
	// Unregistered (or refused) connections are not in the server's client
	// map, so Close never reaches them; close from this side or the
	// HandleConn goroutine outlives the test.
	t.Cleanup(func() { conn.Close() })
	return &rawConn{t: t, conn: conn}
}

// call writes msg and returns the next reply envelope (these flows have no
// server-initiated traffic interleaved).
func (rc *rawConn) call(msg wire.Message) wire.Message {
	rc.t.Helper()
	rc.seq++
	if err := rc.conn.Write(wire.Envelope{Seq: rc.seq, Msg: msg}); err != nil {
		rc.t.Fatalf("raw write %s: %v", msg.MsgType(), err)
	}
	env, err := rc.conn.Read()
	if err != nil {
		rc.t.Fatalf("raw read after %s: %v", msg.MsgType(), err)
	}
	return env.Msg
}

func (rc *rawConn) register(appType, user string) couple.InstanceID {
	rc.t.Helper()
	m, ok := rc.call(wire.Register{AppType: appType, User: user, Host: "raw"}).(wire.Registered)
	if !ok {
		rc.t.Fatal("registration refused")
	}
	return m.ID
}

func (rc *rawConn) token() string {
	rc.t.Helper()
	m, ok := rc.call(wire.SessionToken{}).(wire.SessionToken)
	if !ok {
		rc.t.Fatal("token mint refused")
	}
	return m.Token
}

// resume attempts a Resume handshake, returning the reclaimed ID or "" when
// the server refused the token.
func (rc *rawConn) resume(tok string) couple.InstanceID {
	rc.t.Helper()
	switch m := rc.call(wire.Resume{Token: tok}).(type) {
	case wire.Registered:
		return m.ID
	case wire.Err:
		return ""
	default:
		rc.t.Fatalf("unexpected resume reply %T", m)
		return ""
	}
}

// TestRestartResumeInvisible kills the server mid-session and restarts it
// from the log: both clients resume by token, their declarations, coupling
// and event flow intact — no re-registration.
func TestRestartResumeInvisible(t *testing.T) {
	d := newDurableServer(t, server.Options{})
	a := d.dial("editor", "alice", `textfield note value=""`, true)
	b := d.dial("editor", "bob", `textfield note value=""`, true)
	mustOK(t, a.Declare("/note"))
	mustOK(t, b.Declare("/note"))
	mustOK(t, a.Couple("/note", b.Ref("/note")))
	waitFor(t, "coupled", func() bool { return a.Coupled("/note") && b.Coupled("/note") })

	mustOK(t, a.Registry().Dispatch(&widget.Event{
		Path: "/note", Name: widget.EventChanged, Args: []attr.Value{attr.String("before restart")},
	}))
	waitFor(t, "replicated before restart", func() bool {
		return attrOf(t, b, "/note", widget.AttrValue).AsString() == "before restart"
	})
	idA, idB := a.ID(), b.ID()

	d.restart()

	// Both clients must ride through: same IDs, coupling intact, events flow.
	waitFor(t, "A dispatches after restart", func() bool {
		return a.DispatchChecked(&widget.Event{
			Path: "/note", Name: widget.EventChanged, Args: []attr.Value{attr.String("after restart")},
		}) == nil
	})
	waitFor(t, "replicated after restart", func() bool {
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
	d := newDurableServer(t, server.Options{})

	// Mint a token, then "crash".
	rc := newRawConn(t, d)
	id := rc.register("app", "u1")
	tok := rc.token()

	// A deregistered instance's token is revoked durably before the crash.
	rcGone := newRawConn(t, d)
	rcGone.register("app", "u2")
	tokGone := rcGone.token()
	rc2 := rcGone.call(wire.Deregister{})
	if _, isErr := rc2.(wire.Err); isErr {
		t.Fatalf("deregister failed: %v", rc2)
	}

	d.restart()

	// The pre-crash token is honored exactly once.
	r1 := newRawConn(t, d)
	if got := r1.resume(tok); got != id {
		t.Fatalf("resume with pre-crash token: got %q, want %q", got, id)
	}
	r2 := newRawConn(t, d)
	if got := r2.resume(tok); got != "" {
		t.Fatalf("second resume with consumed token succeeded as %q", got)
	}
	// The token dropped by Deregister before the crash stays dead.
	r3 := newRawConn(t, d)
	if got := r3.resume(tokGone); got != "" {
		t.Fatalf("deregistered token resumed as %q after restart", got)
	}

	// The resumed session re-mints and the new token survives the next crash.
	tok2 := r1.token()
	d.restart()
	r4 := newRawConn(t, d)
	if got := r4.resume(tok2); got != id {
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
	d := newDurableServer(t, server.Options{})

	specs := []struct{ user, val string }{{"u1", "a"}, {"u2", "b"}, {"u3", "c"}}
	clients := make([]*client.Client, len(specs))
	for i, sp := range specs {
		clients[i] = d.dial("app", sp.user, `textfield x value=""`, i > 0) // one plain peer
		mustOK(t, clients[i].Declare("/x"))
	}
	for i := 1; i < len(clients); i++ {
		mustOK(t, clients[0].Couple("/x", clients[i].Ref("/x")))
	}
	waitFor(t, "group formed", func() bool {
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
		waitFor(t, "client functional after soak", func() bool {
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
