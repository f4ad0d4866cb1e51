package server_test

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"cosoft/internal/attr"
	"cosoft/internal/client"
	"cosoft/internal/compat"
	"cosoft/internal/couple"
	"cosoft/internal/eventlog"
	"cosoft/internal/perm"
	"cosoft/internal/server"
	"cosoft/internal/testbed"
	"cosoft/internal/widget"
	"cosoft/internal/wire"
)

// newBed returns the server every test in the suite runs — the product
// configuration with durability on: N shard loops, batching, and an event log
// of its own whose segments are small enough and whose snapshot cadence tight
// enough that the scenarios run over a log that rotates, snapshots and
// compacts underneath them — on a test bed whose teardown also judges live =
// fold(log).
func newBed(t *testing.T, opts server.Options) (*server.Server, *testbed.Bed) {
	t.Helper()
	if opts.Shards == 0 {
		opts.Shards = server.HarnessShards
	}
	if opts.EventLog == nil {
		elog, err := eventlog.Open(eventlog.Options{Dir: t.TempDir(), SegmentBytes: 4096, Metrics: opts.Metrics})
		if err != nil {
			t.Fatalf("open event log: %v", err)
		}
		// Registered before the bed, so (LIFO) the server closes — and
		// finishes its in-flight appends — before the log does.
		t.Cleanup(func() { elog.Close() })
		opts.EventLog = elog
		opts.SnapshotBytes = 4096
		if opts.SnapshotInterval == 0 {
			opts.SnapshotInterval = 20 * time.Millisecond
		}
	}
	srv := server.New(opts)
	return srv, testbed.New(t, srv, testbed.Options{Check: foldCheck})
}

// foldCheck is the suite's teardown invariant next to the floor lock, live =
// fold(log): a fresh state restored from the server's log directory must equal
// the live one (see Server.FoldDivergence). The loops may still be finishing
// what the last reply did not wait for and the snapshotter may be compacting
// under the reader, so a difference counts once it has outlasted a deadline. A
// server that never drained its pending events is not judged, nor is one whose
// log lost an append: it holds more than its log by design.
func foldCheck(s testbed.Server) error {
	srv := s.(*server.Server)
	if st := srv.Stats(); st.PendingEvents != 0 || st.LogAppendErrors != 0 {
		return nil
	}
	deadline := time.Now().Add(2 * time.Second)
	for diff := srv.FoldDivergence(); diff != ""; diff = srv.FoldDivergence() {
		if time.Now().After(deadline) {
			return fmt.Errorf("live state is not the fold of its log: %s", diff)
		}
		time.Sleep(5 * time.Millisecond)
	}
	return nil
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
	srv, bed := newBed(t, server.Options{})
	a := bed.Dial(testbed.Member{AppType: "editor", User: "alice", Spec: `textfield note value=""`})
	b := bed.Dial(testbed.Member{AppType: "editor", User: "bob", Spec: `textfield note value=""`})

	mustOK(t, a.Declare("/note"))
	mustOK(t, b.Declare("/note"))
	mustOK(t, a.Couple("/note", b.Ref("/note")))

	testbed.Wait(t, "coupling mirrored at A", func() bool { return a.Coupled("/note") })
	testbed.Wait(t, "coupling mirrored at B", func() bool { return b.Coupled("/note") })

	mustOK(t, a.Registry().Dispatch(&widget.Event{
		Path: "/note", Name: widget.EventChanged, Args: []attr.Value{attr.String("shared text")},
	}))
	if got := attrOf(t, a, "/note", widget.AttrValue).AsString(); got != "shared text" {
		t.Errorf("origin value = %q", got)
	}
	testbed.Wait(t, "value replicated to B", func() bool {
		return attrOf(t, b, "/note", widget.AttrValue).AsString() == "shared text"
	})

	stats := srv.Stats()
	if stats.Events != 1 || stats.ExecsSent != 1 || stats.Links != 1 {
		t.Errorf("stats = %+v", stats)
	}
}

func TestTransitiveClosurePropagation(t *testing.T) {
	_, bed := newBed(t, server.Options{})
	spec := `scale s min=0 max=100`
	a := bed.Dial(testbed.Member{AppType: "app", User: "u1", Spec: spec})
	b := bed.Dial(testbed.Member{AppType: "app", User: "u2", Spec: spec})
	c := bed.Dial(testbed.Member{AppType: "app", User: "u3", Spec: spec})
	for _, cl := range []*client.Client{a, b, c} {
		mustOK(t, cl.Declare("/s"))
	}
	// Chain a—b—c: CO(a) must include c through the closure.
	mustOK(t, a.Couple("/s", b.Ref("/s")))
	mustOK(t, b.Couple("/s", c.Ref("/s")))
	testbed.Wait(t, "closure at A", func() bool { return len(a.CO("/s")) == 2 })

	mustOK(t, a.Registry().Dispatch(&widget.Event{
		Path: "/s", Name: widget.EventMoved, Args: []attr.Value{attr.Int(42)},
	}))
	for name, cl := range map[string]*client.Client{"B": b, "C": c} {
		cl := cl
		testbed.Wait(t, "position at "+name, func() bool {
			return attrOf(t, cl, "/s", widget.AttrPosition).AsInt() == 42
		})
	}
}

func TestHeterogeneousCouplingWithCorrespondence(t *testing.T) {
	corr := compat.NewCorrespondences()
	corr.Declare("textfield", "label", map[string]string{widget.AttrValue: widget.AttrLabel})
	_, bed := newBed(t, server.Options{Correspondences: corr})
	// Note: events across heterogeneous classes re-execute the *event*; a
	// textfield 'changed' cannot re-execute on a label, so heterogeneous
	// coupling is exercised through state copies here (as TORI does for
	// result forms).
	a := bed.Dial(testbed.Member{AppType: "editor", User: "alice", Spec: `textfield src value="hello"`, Options: client.Options{Correspondences: corr}})
	b := bed.Dial(testbed.Member{AppType: "viewer", User: "bob", Spec: `label dst label=""`, Options: client.Options{Correspondences: corr}})
	mustOK(t, a.Declare("/src"))
	mustOK(t, b.Declare("/dst"))

	mustOK(t, a.CopyTo("/src", b.Ref("/dst"), false))
	testbed.Wait(t, "translated state at B", func() bool {
		return attrOf(t, b, "/dst", widget.AttrLabel).AsString() == "hello"
	})

	// Coupling heterogeneous-but-compatible classes is permitted.
	mustOK(t, a.Couple("/src", b.Ref("/dst")))
}

func TestIncompatibleCouplingRejected(t *testing.T) {
	_, bed := newBed(t, server.Options{})
	a := bed.Dial(testbed.Member{AppType: "app", User: "u1", Spec: `textfield x`})
	b := bed.Dial(testbed.Member{AppType: "app", User: "u2", Spec: `canvas c`})
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
	_, bed := newBed(t, server.Options{})
	a := bed.Dial(testbed.Member{AppType: "app", User: "u1", Spec: `textfield x value="mine"`})
	b := bed.Dial(testbed.Member{AppType: "app", User: "u2", Spec: `textfield x value="theirs"`})
	mustOK(t, a.Declare("/x"))
	mustOK(t, b.Declare("/x"))

	// Active synchronization: A pulls B's state.
	mustOK(t, a.CopyFrom(b.Ref("/x"), "/x", false))
	testbed.Wait(t, "pulled state", func() bool {
		return attrOf(t, a, "/x", widget.AttrValue).AsString() == "theirs"
	})

	// The overwritten state is in the historical database: undo restores it.
	mustOK(t, a.Undo("/x"))
	testbed.Wait(t, "undone state", func() bool {
		return attrOf(t, a, "/x", widget.AttrValue).AsString() == "mine"
	})
	mustOK(t, a.Redo("/x"))
	testbed.Wait(t, "redone state", func() bool {
		return attrOf(t, a, "/x", widget.AttrValue).AsString() == "theirs"
	})
	// Undo past the bottom fails cleanly.
	mustOK(t, a.Undo("/x"))
	testbed.Wait(t, "second undo", func() bool {
		return attrOf(t, a, "/x", widget.AttrValue).AsString() == "mine"
	})
	if err := a.Undo("/x"); err == nil {
		t.Fatal("undo past bottom must fail")
	}
}

// A copy's backup survives its object's group moving to another shard: undo
// and redo still find it after the hand-off.
func TestUndoRedoAcrossMigration(t *testing.T) {
	srv, bed := newBed(t, server.Options{})
	a := bed.Dial(testbed.Member{AppType: "app", User: "u1", Spec: `textfield x value="copied"`})
	b := bed.Dial(testbed.Member{AppType: "app", User: "u2", Spec: `textfield x value="before"`})
	c := bed.Dial(testbed.Member{AppType: "app", User: "u3", Spec: `textfield x value=""`})
	d := bed.Dial(testbed.Member{AppType: "app", User: "u4", Spec: `textfield x value=""`})
	for _, cl := range []*client.Client{a, b, c, d} {
		mustOK(t, cl.Declare("/x"))
	}
	mustOK(t, c.Couple("/x", d.Ref("/x")))
	value := func() string { return attrOf(t, b, "/x", widget.AttrValue).AsString() }

	mustOK(t, a.CopyTo("/x", b.Ref("/x"), false))
	testbed.Wait(t, "copied state at B", func() bool { return value() == "copied" })

	// B alone is the smaller group, so coupling it to C's moves it to C's shard.
	from, handoffs := srv.ShardOf(b.Ref("/x")), srv.Stats().CrossShardHandoffs
	if to := srv.ShardOf(c.Ref("/x")); to == from {
		t.Fatalf("B and C's group already share shard %d: nothing would migrate", from)
	}
	mustOK(t, b.Couple("/x", c.Ref("/x")))
	if got := srv.Stats().CrossShardHandoffs; got != handoffs+1 {
		t.Fatalf("cross-shard hand-offs went from %d to %d, want one more", handoffs, got)
	}
	if srv.ShardOf(b.Ref("/x")) == from {
		t.Fatalf("B is still on shard %d after the hand-off", from)
	}

	mustOK(t, b.Undo("/x"))
	testbed.Wait(t, "undo restores the pre-copy state", func() bool { return value() == "before" })
	mustOK(t, b.Redo("/x"))
	testbed.Wait(t, "redo restores the copied state", func() bool { return value() == "copied" })
}

func TestRemoteCopyByThirdInstance(t *testing.T) {
	_, bed := newBed(t, server.Options{})
	a := bed.Dial(testbed.Member{AppType: "student", User: "s1", Spec: `textfield answer value="42"`})
	b := bed.Dial(testbed.Member{AppType: "student", User: "s2", Spec: `textfield answer value=""`})
	teacher := bed.Dial(testbed.Member{AppType: "teacher", User: "t"})
	mustOK(t, a.Declare("/answer"))
	mustOK(t, b.Declare("/answer"))

	mustOK(t, teacher.RemoteCopy(a.Ref("/answer"), b.Ref("/answer"), false))
	testbed.Wait(t, "state copied s1→s2", func() bool {
		return attrOf(t, b, "/answer", widget.AttrValue).AsString() == "42"
	})
}

const queryFormSpec = `form query title="Query"
  textfield author value=""
  menu op items=[eq,substring] selection="eq"
  button go label="Search"`

func TestCoupleTreeWithInitialPush(t *testing.T) {
	_, bed := newBed(t, server.Options{})
	a := bed.Dial(testbed.Member{AppType: "tori", User: "u1", Spec: queryFormSpec})
	// B's form has identical structure but different names and states.
	bSpec := `form query title="Other"
  textfield writer value="old"
  menu operator items=[eq,substring] selection="substring"
  button submit label="Go"`
	b := bed.Dial(testbed.Member{AppType: "tori", User: "u2", Spec: bSpec})
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
	testbed.Wait(t, "initial push", func() bool {
		return attrOf(t, b, "/query/writer", widget.AttrValue).AsString() == "" &&
			attrOf(t, b, "/query/operator", widget.AttrSelection).AsString() == "eq"
	})
	// Events on a child now propagate to the mapped child.
	mustOK(t, a.Registry().Dispatch(&widget.Event{
		Path: "/query/author", Name: widget.EventChanged, Args: []attr.Value{attr.String("knuth")},
	}))
	testbed.Wait(t, "child event propagated", func() bool {
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
	testbed.Wait(t, "decoupled", func() bool { return !a.Coupled("/query/author") })
	// Objects persist after decoupling, with their last state.
	if got := attrOf(t, b, "/query/writer", widget.AttrValue).AsString(); got != "knuth" {
		t.Errorf("decoupled object state = %q", got)
	}
}

func TestDecoupleStopsPropagation(t *testing.T) {
	_, bed := newBed(t, server.Options{})
	a := bed.Dial(testbed.Member{AppType: "app", User: "u1", Spec: `toggle t`})
	b := bed.Dial(testbed.Member{AppType: "app", User: "u2", Spec: `toggle t`})
	mustOK(t, a.Declare("/t"))
	mustOK(t, b.Declare("/t"))
	mustOK(t, a.Couple("/t", b.Ref("/t")))
	testbed.Wait(t, "coupled", func() bool { return b.Coupled("/t") })

	mustOK(t, a.Registry().Dispatch(&widget.Event{Path: "/t", Name: widget.EventToggled}))
	testbed.Wait(t, "toggle replicated", func() bool {
		return attrOf(t, b, "/t", widget.AttrState).AsBool()
	})

	mustOK(t, a.Decouple("/t", b.Ref("/t")))
	testbed.Wait(t, "decoupled", func() bool { return !a.Coupled("/t") && !b.Coupled("/t") })

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
	_, bed := newBed(t, server.Options{})
	a := bed.Dial(testbed.Member{AppType: "app", User: "u1", Spec: `form f
  textfield x`})
	b := bed.Dial(testbed.Member{AppType: "app", User: "u2", Spec: `textfield x`})
	mustOK(t, a.DeclareTree("/f"))
	mustOK(t, b.Declare("/x"))
	mustOK(t, a.Couple("/f/x", b.Ref("/x")))
	testbed.Wait(t, "coupled", func() bool { return b.Coupled("/x") })

	mustOK(t, a.Registry().Destroy("/f/x"))
	testbed.Wait(t, "auto-decoupled", func() bool { return !b.Coupled("/x") })
}

func TestDisconnectAutoDecouples(t *testing.T) {
	srv, bed := newBed(t, server.Options{})
	a := bed.Dial(testbed.Member{AppType: "app", User: "u1", Spec: `textfield x`})
	b := bed.Dial(testbed.Member{AppType: "app", User: "u2", Spec: `textfield x`})
	mustOK(t, a.Declare("/x"))
	mustOK(t, b.Declare("/x"))
	mustOK(t, a.Couple("/x", b.Ref("/x")))
	testbed.Wait(t, "coupled", func() bool { return b.Coupled("/x") })

	a.Close()
	testbed.Wait(t, "auto-decoupled on disconnect", func() bool { return !b.Coupled("/x") })
	testbed.Wait(t, "deregistered", func() bool { return srv.Stats().Instances == 1 })
}

func TestCommands(t *testing.T) {
	_, bed := newBed(t, server.Options{})
	a := bed.Dial(testbed.Member{AppType: "app", User: "u1"})
	b := bed.Dial(testbed.Member{AppType: "app", User: "u2"})
	c := bed.Dial(testbed.Member{AppType: "app", User: "u3"})

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
	testbed.Wait(t, "broadcast", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got["b"]) == 1 && len(got["c"]) == 1
	})
	// Targeted reaches only b.
	mustOK(t, a.SendCommand("refresh", []byte("only-b"), b.ID()))
	testbed.Wait(t, "targeted", func() bool {
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
	_, bed := newBed(t, server.Options{})
	teacher := bed.Dial(testbed.Member{AppType: "teacher", User: "teacher", Spec: `textfield board value="lesson"`})
	student := bed.Dial(testbed.Member{AppType: "student", User: "student", Spec: `textfield desk value="hw"`})
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
	testbed.Wait(t, "teacher pulled student state", func() bool {
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
	_, bed := newBed(t, server.Options{})
	a := bed.Dial(testbed.Member{AppType: "tori", User: "u1", Spec: `textfield x`})
	_ = bed.Dial(testbed.Member{AppType: "cosoft", User: "u2"})
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

func TestFloorControlLockRejection(t *testing.T) {
	srv, bed := newBed(t, server.Options{})
	a := bed.Dial(testbed.Member{AppType: "app", User: "u1", Spec: `textfield x value="init"`})
	// The raw client holds its Exec ack, keeping the group locked.
	rc := bed.Raw(wire.Register{AppType: "app", User: "u2"})
	rc.MustOK(wire.Declare{Path: "/x", Class: "textfield"})
	mustOK(t, a.Declare("/x"))
	mustOK(t, a.Couple("/x", couple.ObjectRef{Instance: rc.ID, Path: "/x"}))

	// A's event locks rc's object; rc never acks, so the lock stays held.
	mustOK(t, a.Registry().Dispatch(&widget.Event{
		Path: "/x", Name: widget.EventChanged, Args: []attr.Value{attr.String("first")},
	}))
	exec := testbed.Next[wire.Exec](rc)
	if exec.Name != widget.EventChanged || exec.TargetPath != "/x" {
		t.Fatalf("exec = %+v", exec)
	}

	// rc now fires its own event on the group: CO(rc:/x) = {a:/x}, which is
	// NOT locked (the lock covers rc:/x only), so it succeeds — but an
	// event from a THIRD member coupled to the locked object must fail.
	third := bed.Dial(testbed.Member{AppType: "app", User: "u3", Spec: `textfield x`})
	mustOK(t, third.Declare("/x"))
	mustOK(t, third.Couple("/x", couple.ObjectRef{Instance: rc.ID, Path: "/x"}))
	testbed.Wait(t, "third coupled", func() bool { return len(third.CO("/x")) == 2 })

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
	if err := rc.Send(wire.ExecAck{EventID: exec.EventID}); err != nil {
		t.Fatal(err)
	}
	testbed.Wait(t, "lock released", func() bool {
		return third.DispatchChecked(&widget.Event{
			Path: "/x", Name: widget.EventChanged, Args: []attr.Value{attr.String("after unlock")},
		}) == nil
	})
	stats := srv.Stats()
	if stats.LockFailures == 0 {
		t.Error("expected recorded lock failures")
	}
}

func TestSetLocksDisablesWidgets(t *testing.T) {
	_, bed := newBed(t, server.Options{})
	a := bed.Dial(testbed.Member{AppType: "app", User: "u1", Spec: `textfield x`})
	b := bed.Dial(testbed.Member{AppType: "app", User: "u2", Spec: `textfield x`})
	rc := bed.Raw(wire.Register{AppType: "app", User: "u3"})
	rc.MustOK(wire.Declare{Path: "/x", Class: "textfield"})
	mustOK(t, a.Declare("/x"))
	mustOK(t, b.Declare("/x"))
	mustOK(t, a.Couple("/x", b.Ref("/x")))
	mustOK(t, a.Couple("/x", couple.ObjectRef{Instance: rc.ID, Path: "/x"}))
	testbed.Wait(t, "group of three", func() bool { return len(a.CO("/x")) == 2 })

	mustOK(t, a.Registry().Dispatch(&widget.Event{
		Path: "/x", Name: widget.EventChanged, Args: []attr.Value{attr.String("v")},
	}))
	exec := testbed.Next[wire.Exec](rc)
	// While rc holds the ack, B's widget is disabled by SetLocks.
	testbed.Wait(t, "B disabled", func() bool {
		w, err := b.Registry().Lookup("/x")
		return err == nil && w.Disabled()
	})
	if err := rc.Send(wire.ExecAck{EventID: exec.EventID}); err != nil {
		t.Fatal(err)
	}
	testbed.Wait(t, "B re-enabled", func() bool {
		w, err := b.Registry().Lookup("/x")
		return err == nil && !w.Disabled()
	})
}

func TestRawClientDisconnectReleasesLocks(t *testing.T) {
	srv, bed := newBed(t, server.Options{})
	a := bed.Dial(testbed.Member{AppType: "app", User: "u1", Spec: `textfield x`})
	rc := bed.Raw(wire.Register{AppType: "app", User: "u2"})
	rc.MustOK(wire.Declare{Path: "/x", Class: "textfield"})
	mustOK(t, a.Declare("/x"))
	mustOK(t, a.Couple("/x", couple.ObjectRef{Instance: rc.ID, Path: "/x"}))
	mustOK(t, a.Registry().Dispatch(&widget.Event{
		Path: "/x", Name: widget.EventChanged, Args: []attr.Value{attr.String("v")},
	}))
	testbed.Next[wire.Exec](rc)
	// rc vanishes without acking: the pending event must resolve and the
	// coupling must dissolve.
	rc.Close()
	testbed.Wait(t, "link removed", func() bool { return !a.Coupled("/x") })
	testbed.Wait(t, "instance dropped", func() bool { return srv.Stats().Instances == 1 })
	// New events on the now-uncoupled object run locally without error.
	mustOK(t, a.Registry().Dispatch(&widget.Event{
		Path: "/x", Name: widget.EventChanged, Args: []attr.Value{attr.String("solo")},
	}))
}

func TestMalformedFirstMessageRejected(t *testing.T) {
	_, bed := newBed(t, server.Options{})
	env := bed.Raw(wire.Declare{Path: "/x", Class: "button"}).Hello
	if _, isErr := env.Msg.(wire.Err); !isErr {
		t.Fatalf("expected Err, got %s", env.Msg.MsgType())
	}
}

func TestServerOverTCP(t *testing.T) {
	srv := server.New(server.Options{})
	defer srv.Close()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(lis) //nolint:errcheck
	defer lis.Close()

	dial := func(user, spec string) *client.Client {
		conn, err := net.Dial("tcp", lis.Addr().String())
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
	testbed.Wait(t, "coupled over TCP", func() bool { return b.Coupled("/x") })
	mustOK(t, a.Registry().Dispatch(&widget.Event{
		Path: "/x", Name: widget.EventChanged, Args: []attr.Value{attr.String("tcp")},
	}))
	testbed.Wait(t, "replicated over TCP", func() bool {
		return attrOf(t, b, "/x", widget.AttrValue).AsString() == "tcp"
	})
}

func TestSemanticStoreLoad(t *testing.T) {
	_, bed := newBed(t, server.Options{})
	a := bed.Dial(testbed.Member{AppType: "app", User: "u1", Spec: `textfield x value="ui"`})
	b := bed.Dial(testbed.Member{AppType: "app", User: "u2", Spec: `textfield x`})
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
	testbed.Wait(t, "semantic data transferred", func() bool {
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
