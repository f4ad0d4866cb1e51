package server_test

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"cosoft/internal/attr"
	"cosoft/internal/client"
	"cosoft/internal/compat"
	"cosoft/internal/couple"
	"cosoft/internal/eventlog"
	"cosoft/internal/netsim"
	"cosoft/internal/perm"
	"cosoft/internal/server"
	"cosoft/internal/widget"
	"cosoft/internal/wire"
)

// harness runs one server and dials clients over in-process links. The
// server is the product configuration with durability on — N shard loops,
// batching, and an event log of its own whose segments are small enough and
// whose snapshot cadence tight enough that the suite's scenarios run over a
// log that rotates, snapshots and compacts underneath them — and every dialed
// client opts into the batch extension; dialPlain and the raw clients are the
// peers that did not, mixed into the larger groups as the benchmark's probe
// member is.
type harness struct {
	t   *testing.T
	srv *server.Server
	wg  sync.WaitGroup
	// checked makes the teardown invariant checks run once, ahead of the
	// first client Close (see checkInvariants).
	checked sync.Once
}

func newHarness(t *testing.T, opts server.Options) *harness {
	t.Helper()
	if opts.Shards == 0 {
		opts.Shards = server.HarnessShards
	}
	if opts.EventLog == nil {
		elog, err := eventlog.Open(eventlog.Options{Dir: t.TempDir(), SegmentBytes: 4096, Metrics: opts.Metrics})
		if err != nil {
			t.Fatalf("open event log: %v", err)
		}
		// Registered before the server cleanup below, so (LIFO) the server
		// closes — and finishes its in-flight appends — before the log does.
		t.Cleanup(func() { elog.Close() })
		opts.EventLog = elog
		opts.SnapshotBytes = 4096
		if opts.SnapshotInterval == 0 {
			opts.SnapshotInterval = 20 * time.Millisecond
		}
	}
	h := &harness{t: t, srv: server.New(opts)}
	t.Cleanup(func() {
		h.srv.Close()
		h.wg.Wait()
	})
	return h
}

// checkInvariants runs at teardown, at quiescence and before the first
// client Close: every dial registers it after its client's Close, so
// (cleanups run last-in first-out) it runs while the groups still exist. A
// test that ends with an ack deliberately withheld never drains and is not
// judged.
//
// Floor lock: once nothing is pending, no coupling group may still report a
// lock holder — a lock without a live pending event behind it would deny the
// group forever.
//
// Live = fold(log): a fresh state restored from the server's log directory
// must equal the live one (see Server.FoldDivergence). The loops may still be
// finishing what the last reply did not wait for and the snapshotter may be
// compacting under the reader, so a difference counts once it has outlasted
// a deadline. A server whose log lost an append holds more than its log by
// design and is not judged.
func checkInvariants(t *testing.T, srv *server.Server) {
	if t.Failed() {
		return
	}
	deadline := time.Now().Add(time.Second)
	for srv.Stats().PendingEvents != 0 {
		if time.Now().After(deadline) {
			return
		}
		time.Sleep(time.Millisecond)
	}
	for _, g := range srv.Health().Groups {
		if g.LockHolder != "" && g.PendingEvents == 0 {
			t.Errorf("group %v on shard %d: lock held by %s with no pending event",
				g.Refs, g.Shard, g.LockHolder)
		}
	}
	if srv.Stats().LogAppendErrors != 0 {
		return
	}
	deadline = time.Now().Add(2 * time.Second)
	for diff := srv.FoldDivergence(); diff != ""; diff = srv.FoldDivergence() {
		if time.Now().After(deadline) {
			t.Errorf("live state is not the fold of its log: %s", diff)
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// onTeardown registers the invariant checks; call it after registering the
// new client's Close.
func (h *harness) onTeardown() {
	h.t.Cleanup(func() { h.checked.Do(func() { checkInvariants(h.t, h.srv) }) })
}

// dial connects a new batching client with its own widget registry built
// from spec.
func (h *harness) dial(appType, user, spec string, copts client.Options) *client.Client {
	h.t.Helper()
	copts.Batching = true
	return h.dialPlain(appType, user, spec, copts)
}

// dialPlain is dial with the batch opt-in taken verbatim from copts.
func (h *harness) dialPlain(appType, user, spec string, copts client.Options) *client.Client {
	h.t.Helper()
	reg := widget.NewRegistry()
	if spec != "" {
		widget.MustBuild(reg, "/", spec)
	}
	link := netsim.NewLink(0)
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		h.srv.HandleConn(wire.NewConn(link.B))
	}()
	copts.AppType = appType
	copts.User = user
	copts.Host = "testhost"
	copts.Registry = reg
	if copts.RPCTimeout == 0 {
		copts.RPCTimeout = 5 * time.Second
	}
	c, err := client.New(link.A, copts)
	if err != nil {
		h.t.Fatalf("dial %s: %v", appType, err)
	}
	h.t.Cleanup(c.Close)
	h.onTeardown()
	return c
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func attrOf(t *testing.T, c *client.Client, path, name string) attr.Value {
	t.Helper()
	w, err := c.Registry().Lookup(path)
	if err != nil {
		t.Fatalf("lookup %s: %v", path, err)
	}
	return w.Attr(name)
}

func TestCoupleAndEventPropagation(t *testing.T) {
	h := newHarness(t, server.Options{})
	a := h.dial("editor", "alice", `textfield note value=""`, client.Options{})
	b := h.dial("editor", "bob", `textfield note value=""`, client.Options{})

	mustOK(t, a.Declare("/note"))
	mustOK(t, b.Declare("/note"))
	mustOK(t, a.Couple("/note", b.Ref("/note")))

	waitFor(t, "coupling mirrored at A", func() bool { return a.Coupled("/note") })
	waitFor(t, "coupling mirrored at B", func() bool { return b.Coupled("/note") })

	mustOK(t, a.Registry().Dispatch(&widget.Event{
		Path: "/note", Name: widget.EventChanged, Args: []attr.Value{attr.String("shared text")},
	}))
	if got := attrOf(t, a, "/note", widget.AttrValue).AsString(); got != "shared text" {
		t.Errorf("origin value = %q", got)
	}
	waitFor(t, "value replicated to B", func() bool {
		return attrOf(t, b, "/note", widget.AttrValue).AsString() == "shared text"
	})

	stats := h.srv.Stats()
	if stats.Events != 1 || stats.ExecsSent != 1 || stats.Links != 1 {
		t.Errorf("stats = %+v", stats)
	}
}

func TestTransitiveClosurePropagation(t *testing.T) {
	h := newHarness(t, server.Options{})
	spec := `scale s min=0 max=100`
	a := h.dial("app", "u1", spec, client.Options{})
	b := h.dial("app", "u2", spec, client.Options{})
	c := h.dialPlain("app", "u3", spec, client.Options{})
	for _, cl := range []*client.Client{a, b, c} {
		mustOK(t, cl.Declare("/s"))
	}
	// Chain a—b—c: CO(a) must include c through the closure.
	mustOK(t, a.Couple("/s", b.Ref("/s")))
	mustOK(t, b.Couple("/s", c.Ref("/s")))
	waitFor(t, "closure at A", func() bool { return len(a.CO("/s")) == 2 })

	mustOK(t, a.Registry().Dispatch(&widget.Event{
		Path: "/s", Name: widget.EventMoved, Args: []attr.Value{attr.Int(42)},
	}))
	for name, cl := range map[string]*client.Client{"B": b, "C": c} {
		cl := cl
		waitFor(t, "position at "+name, func() bool {
			return attrOf(t, cl, "/s", widget.AttrPosition).AsInt() == 42
		})
	}
}

func TestHeterogeneousCouplingWithCorrespondence(t *testing.T) {
	corr := compat.NewCorrespondences()
	corr.Declare("textfield", "label", map[string]string{widget.AttrValue: widget.AttrLabel})
	h := newHarness(t, server.Options{Correspondences: corr})
	// Note: events across heterogeneous classes re-execute the *event*; a
	// textfield 'changed' cannot re-execute on a label, so heterogeneous
	// coupling is exercised through state copies here (as TORI does for
	// result forms).
	a := h.dial("editor", "alice", `textfield src value="hello"`, client.Options{Correspondences: corr})
	b := h.dial("viewer", "bob", `label dst label=""`, client.Options{Correspondences: corr})
	mustOK(t, a.Declare("/src"))
	mustOK(t, b.Declare("/dst"))

	mustOK(t, a.CopyTo("/src", b.Ref("/dst"), false))
	waitFor(t, "translated state at B", func() bool {
		return attrOf(t, b, "/dst", widget.AttrLabel).AsString() == "hello"
	})

	// Coupling heterogeneous-but-compatible classes is permitted.
	mustOK(t, a.Couple("/src", b.Ref("/dst")))
}

func TestIncompatibleCouplingRejected(t *testing.T) {
	h := newHarness(t, server.Options{})
	a := h.dial("app", "u1", `textfield x`, client.Options{})
	b := h.dial("app", "u2", `canvas c`, client.Options{})
	mustOK(t, a.Declare("/x"))
	mustOK(t, b.Declare("/c"))
	err := a.Couple("/x", b.Ref("/c"))
	if err == nil || !strings.Contains(err.Error(), "not compatible") {
		t.Fatalf("err = %v", err)
	}
	// Undeclared objects cannot be coupled either.
	if err := a.Couple("/x", b.Ref("/nowhere")); err == nil {
		t.Fatal("coupling undeclared object must fail")
	}
}

func TestCopyFromAndUndoRedo(t *testing.T) {
	h := newHarness(t, server.Options{})
	a := h.dial("app", "u1", `textfield x value="mine"`, client.Options{})
	b := h.dial("app", "u2", `textfield x value="theirs"`, client.Options{})
	mustOK(t, a.Declare("/x"))
	mustOK(t, b.Declare("/x"))

	// Active synchronization: A pulls B's state.
	mustOK(t, a.CopyFrom(b.Ref("/x"), "/x", false))
	waitFor(t, "pulled state", func() bool {
		return attrOf(t, a, "/x", widget.AttrValue).AsString() == "theirs"
	})

	// The overwritten state is in the historical database: undo restores it.
	mustOK(t, a.Undo("/x"))
	waitFor(t, "undone state", func() bool {
		return attrOf(t, a, "/x", widget.AttrValue).AsString() == "mine"
	})
	mustOK(t, a.Redo("/x"))
	waitFor(t, "redone state", func() bool {
		return attrOf(t, a, "/x", widget.AttrValue).AsString() == "theirs"
	})
	// Undo past the bottom fails cleanly.
	mustOK(t, a.Undo("/x"))
	waitFor(t, "second undo", func() bool {
		return attrOf(t, a, "/x", widget.AttrValue).AsString() == "mine"
	})
	if err := a.Undo("/x"); err == nil {
		t.Fatal("undo past bottom must fail")
	}
}

func TestRemoteCopyByThirdInstance(t *testing.T) {
	h := newHarness(t, server.Options{})
	a := h.dial("student", "s1", `textfield answer value="42"`, client.Options{})
	b := h.dial("student", "s2", `textfield answer value=""`, client.Options{})
	teacher := h.dial("teacher", "t", "", client.Options{})
	mustOK(t, a.Declare("/answer"))
	mustOK(t, b.Declare("/answer"))

	mustOK(t, teacher.RemoteCopy(a.Ref("/answer"), b.Ref("/answer"), false))
	waitFor(t, "state copied s1→s2", func() bool {
		return attrOf(t, b, "/answer", widget.AttrValue).AsString() == "42"
	})
}

const queryFormSpec = `form query title="Query"
  textfield author value=""
  menu op items=[eq,substring] selection="eq"
  button go label="Search"`

func TestCoupleTreeWithInitialPush(t *testing.T) {
	h := newHarness(t, server.Options{})
	a := h.dial("tori", "u1", queryFormSpec, client.Options{})
	// B's form has identical structure but different names and states.
	bSpec := `form query title="Other"
  textfield writer value="old"
  menu operator items=[eq,substring] selection="substring"
  button submit label="Go"`
	b := h.dial("tori", "u2", bSpec, client.Options{})
	mustOK(t, a.DeclareTree("/query"))
	mustOK(t, b.DeclareTree("/query"))

	n, err := a.CoupleTree("/query", b.Ref("/query"), client.SyncPush)
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Errorf("links created = %d, want 4", n)
	}
	// Initial push aligned the relevant state.
	waitFor(t, "initial push", func() bool {
		return attrOf(t, b, "/query/writer", widget.AttrValue).AsString() == "" &&
			attrOf(t, b, "/query/operator", widget.AttrSelection).AsString() == "eq"
	})
	// Events on a child now propagate to the mapped child.
	mustOK(t, a.Registry().Dispatch(&widget.Event{
		Path: "/query/author", Name: widget.EventChanged, Args: []attr.Value{attr.String("knuth")},
	}))
	waitFor(t, "child event propagated", func() bool {
		return attrOf(t, b, "/query/writer", widget.AttrValue).AsString() == "knuth"
	})

	// DecoupleTree removes all pair links.
	removed, err := a.DecoupleTree("/query", b.Ref("/query"))
	if err != nil {
		t.Fatal(err)
	}
	if removed != 4 {
		t.Errorf("links removed = %d, want 4", removed)
	}
	waitFor(t, "decoupled", func() bool { return !a.Coupled("/query/author") })
	// Objects persist after decoupling, with their last state.
	if got := attrOf(t, b, "/query/writer", widget.AttrValue).AsString(); got != "knuth" {
		t.Errorf("decoupled object state = %q", got)
	}
}

func TestDecoupleStopsPropagation(t *testing.T) {
	h := newHarness(t, server.Options{})
	a := h.dial("app", "u1", `toggle t`, client.Options{})
	b := h.dial("app", "u2", `toggle t`, client.Options{})
	mustOK(t, a.Declare("/t"))
	mustOK(t, b.Declare("/t"))
	mustOK(t, a.Couple("/t", b.Ref("/t")))
	waitFor(t, "coupled", func() bool { return b.Coupled("/t") })

	mustOK(t, a.Registry().Dispatch(&widget.Event{Path: "/t", Name: widget.EventToggled}))
	waitFor(t, "toggle replicated", func() bool {
		return attrOf(t, b, "/t", widget.AttrState).AsBool()
	})

	mustOK(t, a.Decouple("/t", b.Ref("/t")))
	waitFor(t, "decoupled", func() bool { return !a.Coupled("/t") && !b.Coupled("/t") })

	mustOK(t, a.Registry().Dispatch(&widget.Event{Path: "/t", Name: widget.EventToggled}))
	time.Sleep(20 * time.Millisecond)
	if !attrOf(t, b, "/t", widget.AttrState).AsBool() {
		t.Error("B's toggle must keep its last state after decoupling")
	}
	if attrOf(t, a, "/t", widget.AttrState).AsBool() {
		t.Error("A's local toggle must have flipped back off")
	}
}

func TestDestroyAutoDecouples(t *testing.T) {
	h := newHarness(t, server.Options{})
	a := h.dial("app", "u1", `form f
  textfield x`, client.Options{})
	b := h.dial("app", "u2", `textfield x`, client.Options{})
	mustOK(t, a.DeclareTree("/f"))
	mustOK(t, b.Declare("/x"))
	mustOK(t, a.Couple("/f/x", b.Ref("/x")))
	waitFor(t, "coupled", func() bool { return b.Coupled("/x") })

	mustOK(t, a.Registry().Destroy("/f/x"))
	waitFor(t, "auto-decoupled", func() bool { return !b.Coupled("/x") })
}

func TestDisconnectAutoDecouples(t *testing.T) {
	h := newHarness(t, server.Options{})
	a := h.dial("app", "u1", `textfield x`, client.Options{})
	b := h.dial("app", "u2", `textfield x`, client.Options{})
	mustOK(t, a.Declare("/x"))
	mustOK(t, b.Declare("/x"))
	mustOK(t, a.Couple("/x", b.Ref("/x")))
	waitFor(t, "coupled", func() bool { return b.Coupled("/x") })

	a.Close()
	waitFor(t, "auto-decoupled on disconnect", func() bool { return !b.Coupled("/x") })
	waitFor(t, "deregistered", func() bool { return h.srv.Stats().Instances == 1 })
}

func TestCommands(t *testing.T) {
	h := newHarness(t, server.Options{})
	a := h.dial("app", "u1", "", client.Options{})
	b := h.dial("app", "u2", "", client.Options{})
	c := h.dial("app", "u3", "", client.Options{})

	type rcvd struct {
		from    couple.InstanceID
		payload string
	}
	var mu sync.Mutex
	got := map[string][]rcvd{}
	record := func(name string) client.CommandHandler {
		return func(from couple.InstanceID, payload []byte) {
			mu.Lock()
			defer mu.Unlock()
			got[name] = append(got[name], rcvd{from, string(payload)})
		}
	}
	b.OnCommand("refresh", record("b"))
	c.OnCommand("refresh", record("c"))

	// Broadcast reaches both.
	mustOK(t, a.SendCommand("refresh", []byte("all")))
	waitFor(t, "broadcast", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got["b"]) == 1 && len(got["c"]) == 1
	})
	// Targeted reaches only b.
	mustOK(t, a.SendCommand("refresh", []byte("only-b"), b.ID()))
	waitFor(t, "targeted", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got["b"]) == 2 && len(got["c"]) == 1
	})
	mu.Lock()
	if got["b"][1].payload != "only-b" || got["b"][1].from != a.ID() {
		t.Errorf("targeted = %+v", got["b"][1])
	}
	mu.Unlock()
	// Unknown target errors.
	if err := a.SendCommand("refresh", nil, couple.InstanceID("ghost")); err == nil {
		t.Error("unknown target must fail")
	}
}

func TestPermissions(t *testing.T) {
	h := newHarness(t, server.Options{})
	teacher := h.dial("teacher", "teacher", `textfield board value="lesson"`, client.Options{})
	student := h.dial("student", "student", `textfield desk value="hw"`, client.Options{})
	mustOK(t, teacher.Declare("/board"))
	mustOK(t, student.Declare("/desk"))

	// Install a restrictive rule set: teacher may do everything on student
	// objects; the student gets nothing on the teacher's.
	for _, right := range []perm.Right{perm.RightView, perm.RightCopy, perm.RightCouple, perm.RightControl} {
		mustOK(t, teacher.GrantPerm("teacher", "*", uint8(right)))
	}

	// Student cannot copy onto the teacher's board...
	if err := student.CopyTo("/desk", teacher.Ref("/board"), false); err == nil {
		t.Fatal("student CopyTo must be denied")
	}
	// ...nor read it, nor couple to it.
	if _, err := student.FetchState(teacher.Ref("/board"), true); err == nil {
		t.Fatal("student FetchState must be denied")
	}
	if err := student.Couple("/desk", teacher.Ref("/board")); err == nil {
		t.Fatal("student Couple must be denied")
	}
	// The teacher can do all three.
	mustOK(t, teacher.CopyFrom(student.Ref("/desk"), "/board", false))
	waitFor(t, "teacher pulled student state", func() bool {
		return attrOf(t, teacher, "/board", widget.AttrValue).AsString() == "hw"
	})
	// Granting the student view access opens exactly that.
	mustOK(t, teacher.GrantPerm("student", string(teacher.ID())+":*", uint8(perm.RightView)))
	if _, err := student.FetchState(teacher.Ref("/board"), true); err != nil {
		t.Fatalf("student FetchState after grant: %v", err)
	}
	if err := student.Couple("/desk", teacher.Ref("/board")); err == nil {
		t.Fatal("view grant must not allow coupling")
	}
}

func TestInstancesListing(t *testing.T) {
	h := newHarness(t, server.Options{})
	a := h.dial("tori", "u1", `textfield x`, client.Options{})
	_ = h.dial("cosoft", "u2", "", client.Options{})
	mustOK(t, a.Declare("/x"))
	infos, err := a.Instances()
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 2 {
		t.Fatalf("instances = %d", len(infos))
	}
	byType := map[string]wire.InstanceInfo{}
	for _, info := range infos {
		byType[info.AppType] = info
	}
	if len(byType["tori"].Objects) != 1 || byType["tori"].Objects[0].Class != "textfield" {
		t.Errorf("tori objects = %+v", byType["tori"].Objects)
	}
	if byType["cosoft"].User != "u2" {
		t.Errorf("cosoft info = %+v", byType["cosoft"])
	}
}

// rawClient speaks the wire protocol directly, to create protocol-level
// conditions a real client never would (held acks, malformed traffic).
type rawClient struct {
	t    *testing.T
	conn *wire.Conn
	id   couple.InstanceID
	seq  uint64
	mu   sync.Mutex
	// inbox of server-initiated messages; replies keyed by RefSeq.
	events  chan wire.Envelope
	replies map[uint64]chan wire.Envelope
	done    chan struct{}
}

func newRawClient(t *testing.T, h *harness, appType, user string) *rawClient {
	t.Helper()
	link := netsim.NewLink(0)
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		h.srv.HandleConn(wire.NewConn(link.B))
	}()
	rc := &rawClient{
		t:       t,
		conn:    wire.NewConn(link.A),
		seq:     1,
		events:  make(chan wire.Envelope, 64),
		replies: make(map[uint64]chan wire.Envelope),
		done:    make(chan struct{}),
	}
	if err := rc.conn.Write(wire.Envelope{Seq: 1, Msg: wire.Register{AppType: appType, User: user, Host: "raw"}}); err != nil {
		t.Fatal(err)
	}
	env, err := rc.conn.Read()
	if err != nil {
		t.Fatal(err)
	}
	rc.id = env.Msg.(wire.Registered).ID
	go func() {
		for {
			env, err := rc.conn.Read()
			if err != nil {
				close(rc.events)
				return
			}
			if env.RefSeq != 0 {
				rc.mu.Lock()
				ch := rc.replies[env.RefSeq]
				delete(rc.replies, env.RefSeq)
				rc.mu.Unlock()
				if ch != nil {
					ch <- env
					continue
				}
			}
			select {
			case rc.events <- env:
			case <-rc.done:
				return
			}
		}
	}()
	t.Cleanup(func() {
		close(rc.done)
		rc.conn.Close()
	})
	h.onTeardown()
	return rc
}

func (rc *rawClient) call(msg wire.Message) wire.Envelope {
	rc.t.Helper()
	rc.mu.Lock()
	rc.seq++
	seq := rc.seq
	ch := make(chan wire.Envelope, 1)
	rc.replies[seq] = ch
	rc.mu.Unlock()
	if err := rc.conn.Write(wire.Envelope{Seq: seq, Msg: msg}); err != nil {
		rc.t.Fatalf("raw write: %v", err)
	}
	select {
	case env := <-ch:
		return env
	case <-time.After(5 * time.Second):
		rc.t.Fatalf("raw call %s timed out", msg.MsgType())
		return wire.Envelope{}
	}
}

// send fires an uncorrelated message (no reply expected). Safe concurrently
// with call: wire.Conn serializes writers.
func (rc *rawClient) send(msg wire.Message) {
	rc.t.Helper()
	if err := rc.conn.Write(wire.Envelope{Msg: msg}); err != nil {
		rc.t.Errorf("raw send: %v", err)
	}
}

func (rc *rawClient) mustOK(msg wire.Message) {
	rc.t.Helper()
	env := rc.call(msg)
	if e, bad := env.Msg.(wire.Err); bad {
		rc.t.Fatalf("raw %s: %s", msg.MsgType(), e.Text)
	}
}

// nextEvent returns the next server-initiated message of the wanted type,
// discarding others.
func nextEvent[T wire.Message](rc *rawClient) T {
	rc.t.Helper()
	deadline := time.After(5 * time.Second)
	for {
		select {
		case env, ok := <-rc.events:
			if !ok {
				rc.t.Fatal("raw connection closed")
			}
			if m, isWanted := env.Msg.(T); isWanted {
				return m
			}
		case <-deadline:
			var zero T
			rc.t.Fatalf("timed out waiting for %T", zero)
			return zero
		}
	}
}

func TestFloorControlLockRejection(t *testing.T) {
	h := newHarness(t, server.Options{})
	a := h.dial("app", "u1", `textfield x value="init"`, client.Options{})
	// The raw client holds its Exec ack, keeping the group locked.
	rc := newRawClient(t, h, "app", "u2")
	rc.mustOK(wire.Declare{Path: "/x", Class: "textfield"})
	mustOK(t, a.Declare("/x"))
	mustOK(t, a.Couple("/x", couple.ObjectRef{Instance: rc.id, Path: "/x"}))

	// A's event locks rc's object; rc never acks, so the lock stays held.
	mustOK(t, a.Registry().Dispatch(&widget.Event{
		Path: "/x", Name: widget.EventChanged, Args: []attr.Value{attr.String("first")},
	}))
	exec := nextEvent[wire.Exec](rc)
	if exec.Name != widget.EventChanged || exec.TargetPath != "/x" {
		t.Fatalf("exec = %+v", exec)
	}

	// rc now fires its own event on the group: CO(rc:/x) = {a:/x}, which is
	// NOT locked (the lock covers rc:/x only), so it succeeds — but an
	// event from a THIRD member coupled to the locked object must fail.
	third := h.dial("app", "u3", `textfield x`, client.Options{})
	mustOK(t, third.Declare("/x"))
	mustOK(t, third.Couple("/x", couple.ObjectRef{Instance: rc.id, Path: "/x"}))
	waitFor(t, "third coupled", func() bool { return len(third.CO("/x")) == 2 })

	err := third.DispatchChecked(&widget.Event{
		Path: "/x", Name: widget.EventChanged, Args: []attr.Value{attr.String("conflict")},
	})
	if !errors.Is(err, client.ErrRejected) {
		t.Fatalf("expected rejection, got %v", err)
	}
	// The rejected event's feedback was undone.
	if got := attrOf(t, third, "/x", widget.AttrValue).AsString(); got != "" {
		t.Errorf("feedback not undone: %q", got)
	}

	// Now rc acks; the group unlocks and the third event goes through.
	if err := rc.conn.Write(wire.Envelope{Msg: wire.ExecAck{EventID: exec.EventID}}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "lock released", func() bool {
		return third.DispatchChecked(&widget.Event{
			Path: "/x", Name: widget.EventChanged, Args: []attr.Value{attr.String("after unlock")},
		}) == nil
	})
	stats := h.srv.Stats()
	if stats.LockFailures == 0 {
		t.Error("expected recorded lock failures")
	}
}

func TestSetLocksDisablesWidgets(t *testing.T) {
	h := newHarness(t, server.Options{})
	a := h.dial("app", "u1", `textfield x`, client.Options{})
	b := h.dial("app", "u2", `textfield x`, client.Options{})
	rc := newRawClient(t, h, "app", "u3")
	rc.mustOK(wire.Declare{Path: "/x", Class: "textfield"})
	mustOK(t, a.Declare("/x"))
	mustOK(t, b.Declare("/x"))
	mustOK(t, a.Couple("/x", b.Ref("/x")))
	mustOK(t, a.Couple("/x", couple.ObjectRef{Instance: rc.id, Path: "/x"}))
	waitFor(t, "group of three", func() bool { return len(a.CO("/x")) == 2 })

	mustOK(t, a.Registry().Dispatch(&widget.Event{
		Path: "/x", Name: widget.EventChanged, Args: []attr.Value{attr.String("v")},
	}))
	exec := nextEvent[wire.Exec](rc)
	// While rc holds the ack, B's widget is disabled by SetLocks.
	waitFor(t, "B disabled", func() bool {
		w, err := b.Registry().Lookup("/x")
		return err == nil && w.Disabled()
	})
	if err := rc.conn.Write(wire.Envelope{Msg: wire.ExecAck{EventID: exec.EventID}}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "B re-enabled", func() bool {
		w, err := b.Registry().Lookup("/x")
		return err == nil && !w.Disabled()
	})
}

func TestRawClientDisconnectReleasesLocks(t *testing.T) {
	h := newHarness(t, server.Options{})
	a := h.dial("app", "u1", `textfield x`, client.Options{})
	rc := newRawClient(t, h, "app", "u2")
	rc.mustOK(wire.Declare{Path: "/x", Class: "textfield"})
	mustOK(t, a.Declare("/x"))
	mustOK(t, a.Couple("/x", couple.ObjectRef{Instance: rc.id, Path: "/x"}))
	mustOK(t, a.Registry().Dispatch(&widget.Event{
		Path: "/x", Name: widget.EventChanged, Args: []attr.Value{attr.String("v")},
	}))
	nextEvent[wire.Exec](rc)
	// rc vanishes without acking: the pending event must resolve and the
	// coupling must dissolve.
	rc.conn.Close()
	waitFor(t, "link removed", func() bool { return !a.Coupled("/x") })
	waitFor(t, "instance dropped", func() bool { return h.srv.Stats().Instances == 1 })
	// New events on the now-uncoupled object run locally without error.
	mustOK(t, a.Registry().Dispatch(&widget.Event{
		Path: "/x", Name: widget.EventChanged, Args: []attr.Value{attr.String("solo")},
	}))
}

func TestMalformedFirstMessageRejected(t *testing.T) {
	h := newHarness(t, server.Options{})
	link := netsim.NewLink(0)
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		h.srv.HandleConn(wire.NewConn(link.B))
	}()
	conn := wire.NewConn(link.A)
	defer conn.Close()
	if err := conn.Write(wire.Envelope{Seq: 1, Msg: wire.Declare{Path: "/x", Class: "button"}}); err != nil {
		t.Fatal(err)
	}
	env, err := conn.Read()
	if err != nil {
		t.Fatal(err)
	}
	if _, isErr := env.Msg.(wire.Err); !isErr {
		t.Fatalf("expected Err, got %s", env.Msg.MsgType())
	}
}

func TestServerOverTCP(t *testing.T) {
	srv := server.New(server.Options{})
	defer srv.Close()
	lis, err := netListen(t)
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(lis) //nolint:errcheck
	defer lis.Close()

	dial := func(user, spec string) *client.Client {
		conn, err := netDial(lis.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		reg := widget.NewRegistry()
		widget.MustBuild(reg, "/", spec)
		c, err := client.New(conn, client.Options{
			AppType: "tcpapp", User: user, Host: "local", Registry: reg,
			RPCTimeout: 5 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.Close)
		return c
	}
	a := dial("u1", `textfield x`)
	b := dial("u2", `textfield x`)
	mustOK(t, a.Declare("/x"))
	mustOK(t, b.Declare("/x"))
	mustOK(t, a.Couple("/x", b.Ref("/x")))
	waitFor(t, "coupled over TCP", func() bool { return b.Coupled("/x") })
	mustOK(t, a.Registry().Dispatch(&widget.Event{
		Path: "/x", Name: widget.EventChanged, Args: []attr.Value{attr.String("tcp")},
	}))
	waitFor(t, "replicated over TCP", func() bool {
		return attrOf(t, b, "/x", widget.AttrValue).AsString() == "tcp"
	})
}

func TestSemanticStoreLoad(t *testing.T) {
	h := newHarness(t, server.Options{})
	a := h.dial("app", "u1", `textfield x value="ui"`, client.Options{})
	b := h.dial("app", "u2", `textfield x`, client.Options{})
	mustOK(t, a.Declare("/x"))
	mustOK(t, b.Declare("/x"))

	a.RegisterSemantics("/x", client.Semantics{
		Store: func() ([]byte, error) { return []byte("internal-model-v7"), nil },
	})
	var mu sync.Mutex
	var loaded string
	b.RegisterSemantics("/x", client.Semantics{
		Load: func(p []byte) error {
			mu.Lock()
			defer mu.Unlock()
			loaded = string(p)
			return nil
		},
	})
	mustOK(t, a.CopyTo("/x", b.Ref("/x"), false))
	waitFor(t, "semantic data transferred", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return loaded == "internal-model-v7"
	})
	// The hidden attribute never lands in the widget state.
	w, err := b.Registry().Lookup("/x")
	if err != nil {
		t.Fatal(err)
	}
	if w.State().Has("_semantic") {
		t.Error("semantic attribute leaked into widget state")
	}
	if got := attrOf(t, b, "/x", widget.AttrValue).AsString(); got != "ui" {
		t.Errorf("UI state = %q", got)
	}
}

func mustOK(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}
