package server

// The control plane's failure policy: a record the log refuses refuses the
// request that needed it and changes nothing, so the live state stays the
// fold of the log whatever the log refuses.

import (
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"cosoft/internal/attr"
	"cosoft/internal/couple"
	"cosoft/internal/eventlog"
	"cosoft/internal/faultdisk"
	"cosoft/internal/testbed"
	"cosoft/internal/widget"
	"cosoft/internal/wire"
)

// refusalBed is a logged server with three raw members: each has declared
// /x and /y, the /x objects form one group (a–b, b–c), a holds a session
// token, and b's /x has a history with one undo and one redo step.
type refusalBed struct {
	t       *testing.T
	srv     *Server
	elog    *eventlog.Log
	disk    *faultdisk.Disk
	bed     *testbed.Bed
	a, b, c *testbed.Peer
	tok     string
}

func newRefusalBed(t *testing.T) *refusalBed {
	t.Helper()
	disk := &faultdisk.Disk{}
	elog, err := eventlog.Open(eventlog.Options{Dir: t.TempDir(), Sync: eventlog.SyncAlways, FS: disk})
	if err != nil {
		t.Fatal(err)
	}
	// Registered before the bed, so the server closes before its log does.
	t.Cleanup(func() { elog.Close() })
	srv := New(Options{EventLog: elog})
	f := &refusalBed{t: t, srv: srv, elog: elog, disk: disk, bed: testbed.New(t, srv, testbed.Options{})}
	join := func(user string) *testbed.Peer {
		p := f.bed.Raw(wire.Register{AppType: "app", Host: "raw", User: user})
		for _, path := range []string{"/x", "/y"} {
			p.MustOK(wire.Declare{Path: path, Class: "textfield"})
		}
		return p
	}
	f.a, f.b, f.c = join("u1"), join("u2"), join("u3")
	f.a.MustOK(wire.Couple{From: f.ref(f.a, "/x"), To: f.ref(f.b, "/x")})
	f.b.MustOK(wire.Couple{From: f.ref(f.b, "/x"), To: f.ref(f.c, "/x")})
	f.tok = f.a.Call(wire.SessionToken{}).Msg.(wire.SessionToken).Token
	for _, v := range []string{"one", "two"} {
		f.a.Send(wire.CopyTo{FromPath: "/x", To: f.ref(f.b, "/x"), State: text(v)})
		f.b.ServeState(text("before " + v))
		f.b.ApplyState()
		testbed.Next[wire.OK](f.a)
	}
	f.b.Send(wire.Undo{Path: "/x"})
	f.b.ServeState(text("two"))
	f.b.ApplyState()
	testbed.Next[wire.OK](f.b)
	// Every append so far was a blocking one, so the log is idle: the next
	// segment operation is the next request's write, and its fsync the one
	// after.
	return f
}

func (f *refusalBed) ref(p *testbed.Peer, path string) couple.ObjectRef {
	return couple.ObjectRef{Instance: p.ID, Path: path}
}

func text(v string) widget.TreeState {
	return widget.TreeState{Class: "textfield", Name: "x", Attrs: attr.Set{widget.AttrValue: attr.String(v)}}
}

// refused fails the test unless reply is the dead log's refusal.
func (f *refusalBed) refused(what string, reply wire.Message) {
	f.t.Helper()
	e, ok := reply.(wire.Err)
	if !ok || !strings.Contains(e.Text, "event log append failed") {
		f.t.Fatalf("%s: answered %#v, want the log's refusal", what, reply)
	}
}

// gone waits until p's connection has left the server. It looks under gmu,
// which a drop holds throughout, so the drop's append is over too.
func (f *refusalBed) gone(p *testbed.Peer) {
	f.t.Helper()
	testbed.Wait(f.t, string(p.ID)+" dropped", func() bool {
		connected := true
		f.srv.withGlobal(func() { _, connected = f.srv.clientOf(p.ID) })
		return !connected
	})
}

// refusalCase is one request whose record the disk fails.
type refusalCase struct {
	name string
	// before runs before the fault is armed.
	before func(f *refusalBed)
	// request sends the request whose append fails and checks its answer.
	request func(f *refusalBed)
}

// controlPlaneCases has one case for every kind of control-plane request
// that writes a record. A departure has no one to refuse: its connection
// goes, and the instance stays registered, linked and resumable, as a
// restart would find it.
func controlPlaneCases() []refusalCase {
	return []refusalCase{
		{name: "register", request: func(f *refusalBed) {
			f.refused("register", f.bed.Raw(wire.Register{AppType: "app", Host: "raw", User: "u4"}).Hello.Msg)
		}},
		{name: "resume", before: func(f *refusalBed) {
			f.a.Close()
			f.gone(f.a)
		}, request: func(f *refusalBed) {
			f.refused("resume", f.bed.Raw(wire.Resume{Token: f.tok}).Hello.Msg)
		}},
		{name: "declare", request: func(f *refusalBed) {
			f.refused("declare", f.a.Call(wire.Declare{Path: "/z", Class: "textfield"}).Msg)
		}},
		{name: "couple", request: func(f *refusalBed) {
			f.refused("couple", f.a.Call(wire.Couple{From: f.ref(f.a, "/y"), To: f.ref(f.c, "/y")}).Msg)
		}},
		{name: "decouple", request: func(f *refusalBed) {
			f.refused("decouple", f.a.Call(wire.Decouple{From: f.ref(f.a, "/x"), To: f.ref(f.b, "/x")}).Msg)
		}},
		{name: "retract", request: func(f *refusalBed) {
			f.refused("retract", f.a.Call(wire.Retract{Path: "/x"}).Msg)
		}},
		{name: "perm", request: func(f *refusalBed) {
			f.refused("perm", f.a.Call(wire.GrantPerm{User: "u3", State: "*", Right: 1}).Msg)
		}},
		{name: "session token", request: func(f *refusalBed) {
			f.refused("session token", f.a.Call(wire.SessionToken{}).Msg)
		}},
		{name: "copy", request: func(f *refusalBed) {
			f.a.Send(wire.CopyTo{FromPath: "/x", To: f.ref(f.b, "/x"), State: text("three")})
			f.b.ServeState(text("one"))
			f.refused("copy", testbed.Next[wire.Err](f.a))
		}},
		{name: "undo", request: func(f *refusalBed) {
			f.b.Send(wire.Undo{Path: "/x"})
			f.b.ServeState(text("one"))
			f.refused("undo", testbed.Next[wire.Err](f.b))
		}},
		{name: "redo", request: func(f *refusalBed) {
			f.b.Send(wire.Redo{Path: "/x"})
			f.b.ServeState(text("one"))
			f.refused("redo", testbed.Next[wire.Err](f.b))
		}},
		{name: "deregister", request: func(f *refusalBed) {
			f.refused("deregister", f.a.Call(wire.Deregister{}).Msg)
		}},
		{name: "disconnect", request: func(f *refusalBed) {
			f.a.Close()
			f.gone(f.a)
			f.srv.withGlobal(func() {
				sess, resumable := f.srv.st.sessions[f.tok]
				_, err := f.srv.st.reg.Lookup(f.a.ID)
				if !resumable || sess.id != f.a.ID || err != nil || len(f.srv.st.graph.LinksOf(f.ref(f.a, "/x"))) == 0 {
					f.t.Errorf("after a refused departure: session %v (%v), registration %v, links %v; want it registered, linked and resumable",
						sess, resumable, err, f.srv.st.graph.LinksOf(f.ref(f.a, "/x")))
				}
			})
		}},
	}
}

// TestControlPlaneAppendRefused arms the disk to fail the write of one
// control-plane request's record, once abandoning it and once tearing it,
// for every kind of request that writes one. The request must be refused, the
// live state must still be the fold of the log, and the next control-plane
// request and the next event must be refused too: the log fails closed.
func TestControlPlaneAppendRefused(t *testing.T) {
	for _, tc := range controlPlaneCases() {
		for _, mode := range []struct {
			name    string
			partial int
		}{{"clean", 0}, {"torn", 5}} {
			t.Run(tc.name+"/"+mode.name, func(t *testing.T) {
				f := newRefusalBed(t)
				if tc.before != nil {
					tc.before(f)
				}
				f.disk.Arm(faultdisk.Fault{Class: faultdisk.Segment, At: 1, Partial: mode.partial})
				tc.request(f)
				if n := f.srv.Stats().LogAppendErrors; n != 1 {
					t.Fatalf("%d appends refused, want the request's one", n)
				}
				if d := f.srv.FoldDivergence(); d != "" {
					t.Fatalf("after the refused %s: %s", tc.name, d)
				}
				f.refused("the next request", f.c.Call(wire.GrantPerm{User: "u1", State: "*", Right: 1}).Msg)
				f.c.Send(wire.Event{Path: "/x", Name: widget.EventChanged, Args: []attr.Value{attr.String("v")}})
				if res := testbed.Next[wire.EventResult](f.c); res.OK || res.Reason != "event log append failed" {
					t.Fatalf("the next event: %+v, want the log's refusal", res)
				}
				if d := f.srv.FoldDivergence(); d != "" {
					t.Fatalf("after the requests behind it: %s", d)
				}
			})
		}
	}
}

// TestSelfCoupleRefused: a Couple of an object to itself is refused before
// anything is logged — the graph would refuse the link, and a record the
// state refuses must never reach the log.
func TestSelfCoupleRefused(t *testing.T) {
	f := newRefusalBed(t)
	count := func() int {
		n := 0
		if err := eventlog.ReplayDir(f.elog.Dir(), func(eventlog.Record) error { n++; return nil }); err != nil {
			t.Fatal(err)
		}
		return n
	}
	before := count()
	x := f.ref(f.c, "/y")
	if _, ok := f.c.Call(wire.Couple{From: x, To: x}).Msg.(wire.Err); !ok {
		t.Fatal("a self couple was accepted")
	}
	// A request behind it writes a record, so a stray one would be on disk.
	f.c.MustOK(wire.GrantPerm{User: "u1", State: "*", Right: 1})
	if n := count(); n != before+1 {
		t.Fatalf("the log gained %d records for a refused self couple and a grant, want 1", n-before)
	}
}

// TestDiskFullRefused fills the disk under the record of every control-plane
// request, and under the ID lease of an event, once as a write that tears
// part way and once as an fsync that reports ENOSPC with the whole record in
// the file. The request or event is refused, nothing of its record stays in
// the log, the live state is the fold of the log, and the next request is
// refused: the log has failed closed.
func TestDiskFullRefused(t *testing.T) {
	lease := refusalCase{name: "lease", before: func(f *refusalBed) {
		// The bed's copies and undo took the first lease: run the sequence
		// to the end of its block, so the event takes the next lease.
		f.srv.ev.lock()
		f.srv.ev.seq = f.srv.ev.ceiling - 1
		f.srv.ev.unlock()
	}, request: func(f *refusalBed) {
		f.c.Send(wire.Event{Path: "/x", Name: widget.EventChanged, Args: []attr.Value{attr.String("v")}})
		if res := testbed.Next[wire.EventResult](f.c); res != eventUnlogged {
			f.t.Fatalf("the event: %+v, want %+v", res, eventUnlogged)
		}
	}}
	for _, tc := range append(controlPlaneCases(), lease) {
		for _, at := range []struct {
			name        string
			op, partial int
		}{{"write", 1, 5}, {"fsync", 2, 0}} {
			t.Run(tc.name+"/"+at.name, func(t *testing.T) {
				f := newRefusalBed(t)
				if tc.before != nil {
					tc.before(f)
				}
				size := f.segmentBytes()
				f.disk.Arm(faultdisk.Fault{Class: faultdisk.Segment, At: at.op, Err: syscall.ENOSPC, Partial: at.partial})
				tc.request(f)
				if n := f.srv.Stats().LogAppendErrors; n != 1 || !f.disk.Fired() {
					t.Fatalf("%d appends refused (disk full injected: %v), want the request's one", n, f.disk.Fired())
				}
				if got := f.segmentBytes(); got != size {
					t.Fatalf("the log holds %d bytes after the refusal, %d before it", got, size)
				}
				if d := f.srv.FoldDivergence(); d != "" {
					t.Fatalf("after the refused %s: %s", tc.name, d)
				}
				f.refused("the next request", f.c.Call(wire.GrantPerm{User: "u1", State: "*", Right: 1}).Msg)
			})
		}
	}
}

// segmentBytes is the size of the log's segment files.
func (f *refusalBed) segmentBytes() int64 {
	f.t.Helper()
	segs, err := filepath.Glob(filepath.Join(f.elog.Dir(), "*.seg"))
	if err != nil {
		f.t.Fatal(err)
	}
	var n int64
	for _, seg := range segs {
		st, err := os.Stat(seg)
		if err != nil {
			f.t.Fatal(err)
		}
		n += st.Size()
	}
	return n
}
