package server

// Crash-point recovery harness: a scripted session runs against a durable
// server whose event log is armed to "crash" — abandon an I/O operation
// mid-flight and fail every later append — at one exact write or fsync
// boundary. The log directory is then reopened and replayed into a fresh
// server, whose databases must equal those of a shadow server driven live
// with exactly the operations the log managed to make durable. Sweeping the
// crash point across every boundary of the script proves no append site
// acknowledges state the replay cannot rebuild.
//
// The record⇄operation correspondence the harness relies on: every scripted
// operation appends exactly one log record before its acknowledgement (the
// clients do not enable Reconnect, so no token records interleave), and under
// the `always` sync policy each record costs one write plus one fsync
// boundary. A crash at a write boundary loses that record (torn or absent
// tail); a crash at an fsync boundary leaves the record fully written — the
// harness does not model page-cache loss — so the durable prefix is always
// ops[0:R] with R read back by Fsck, never an interior gap.

import (
	"strings"
	"testing"

	"cosoft/internal/attr"
	coclient "cosoft/internal/client"
	"cosoft/internal/eventlog"
	"cosoft/internal/perm"
	"cosoft/internal/testbed"
	"cosoft/internal/widget"
)

// crashScript is one run of the scripted session: a server on a test bed and
// the clients the ops have dialed so far, by name.
type crashScript struct {
	t   *testing.T
	srv *Server
	bed *testbed.Bed
	cl  map[string]*coclient.Client
}

func newCrashScript(t *testing.T, opts Options) *crashScript {
	t.Helper()
	if opts.Shards == 0 {
		opts.Shards = HarnessShards
	}
	srv := New(opts)
	return &crashScript{t: t, srv: srv, bed: testbed.New(t, srv, testbed.Options{}), cl: make(map[string]*coclient.Client)}
}

func (r *crashScript) dial(name, user string) {
	r.t.Helper()
	r.cl[name] = r.bed.Dial(testbed.Member{AppType: "app", User: user, Spec: `textfield x value=""`})
}

// shutdown judges the server and closes it before the bed closes the
// clients — its shutdown-provoked drops are not logged — so no Deregister can
// reach the log and the record stream stays exactly the scripted operations.
func (r *crashScript) shutdown() {
	r.t.Helper()
	if err := r.srv.CheckInvariants(); err != nil {
		r.t.Fatal(err)
	}
	r.srv.Close()
	r.bed.Close()
}

func (r *crashScript) mustOK(err error) {
	r.t.Helper()
	if err != nil {
		r.t.Fatal(err)
	}
}

func (r *crashScript) value(name string) string {
	r.t.Helper()
	w, err := r.cl[name].Registry().Lookup("/x")
	if err != nil {
		r.t.Fatalf("lookup /x at %s: %v", name, err)
	}
	return w.Attr(widget.AttrValue).AsString()
}

// dispatchTo fires a changed event at origin and waits until every member in
// peers mirrors the value and the event has resolved — the quiesce point that
// makes the next operation's server-side inputs (fetched states, group
// membership, the floor) deterministic.
func (r *crashScript) dispatchTo(origin, val string, peers ...string) {
	r.t.Helper()
	// The previous event's SetLocks re-enable notification is asynchronous;
	// dispatching from a still-disabled widget would fail locally.
	testbed.Wait(r.t, origin+" re-enabled", func() bool {
		w, err := r.cl[origin].Registry().Lookup("/x")
		return err == nil && !w.Disabled()
	})
	err := r.cl[origin].DispatchChecked(&widget.Event{
		Path: "/x", Name: widget.EventChanged, Args: []attr.Value{attr.String(val)},
	})
	if err != nil && r.srv.elog != nil && r.srv.elog.CrashFired() {
		// The log died under the event: it is refused, and no member hears
		// of it.
		if !strings.Contains(err.Error(), "event log append failed") {
			r.t.Fatalf("event %s refused for another reason: %v", val, err)
		}
		peers = nil
	} else {
		r.mustOK(err)
	}
	for _, p := range peers {
		p := p
		testbed.Wait(r.t, p+" mirrors "+val, func() bool { return r.value(p) == val })
	}
	// A member mirrors the value before its ack lands; the next op's event
	// must not meet this one still holding the floor.
	testbed.Wait(r.t, val+" resolved", func() bool { return r.srv.Stats().PendingEvents == 0 })
}

// crashOps is the scripted session. Each op appends exactly one log record
// (kind in the comment) and leaves the system quiescent, so the durable
// record count R maps back to the op prefix ops[0:R].
func crashOps() []func(r *crashScript) {
	return []func(r *crashScript){
		func(r *crashScript) { r.dial("A", "u1") },                 // Register
		func(r *crashScript) { r.dial("B", "u2") },                 // Register
		func(r *crashScript) { r.mustOK(r.cl["A"].Declare("/x")) }, // Declare
		func(r *crashScript) { r.mustOK(r.cl["B"].Declare("/x")) }, // Declare
		func(r *crashScript) { // Couple
			r.mustOK(r.cl["A"].Couple("/x", r.cl["B"].Ref("/x")))
			testbed.Wait(r.t, "A coupled", func() bool { return r.cl["A"].Coupled("/x") })
			testbed.Wait(r.t, "B coupled", func() bool { return r.cl["B"].Coupled("/x") })
		},
		func(r *crashScript) { r.dispatchTo("A", "one", "B") }, // Event
		func(r *crashScript) { r.dispatchTo("B", "two", "A") }, // Event
		func(r *crashScript) { // Hist (CopyTo backs up B's state)
			r.mustOK(r.cl["A"].CopyTo("/x", r.cl["B"].Ref("/x"), false))
		},
		func(r *crashScript) { r.mustOK(r.cl["B"].Undo("/x")) },    // Undo
		func(r *crashScript) { r.mustOK(r.cl["B"].Redo("/x")) },    // Redo
		func(r *crashScript) { r.dial("C", "u3") },                 // Register
		func(r *crashScript) { r.mustOK(r.cl["C"].Declare("/x")) }, // Declare
		func(r *crashScript) { // Couple (second group merge; migrates when sharded)
			r.mustOK(r.cl["C"].Couple("/x", r.cl["A"].Ref("/x")))
			testbed.Wait(r.t, "C sees group of 3", func() bool { return len(r.cl["C"].CO("/x")) == 2 })
		},
		func(r *crashScript) { r.dispatchTo("C", "three", "A", "B") }, // Event
		func(r *crashScript) { // Decouple
			r.mustOK(r.cl["A"].Decouple("/x", r.cl["B"].Ref("/x")))
		},
		func(r *crashScript) { // Perm
			r.mustOK(r.cl["A"].GrantPerm("u3", "*", uint8(perm.RightControl)))
		},
		func(r *crashScript) { // Retract (Destroy auto-retracts)
			r.mustOK(r.cl["C"].Registry().Destroy("/x"))
		},
	}
}

// TestCrashPointRecovery sweeps the crash point across every write and fsync
// boundary the scripted session generates. For each boundary: run the script
// (the server keeps serving after the log dies: its events are refused,
// its control-plane operations acknowledged unlogged), reopen the log
// directory (truncating any torn
// tail), replay it into a fresh server, and require its digest to equal a
// shadow server driven live with exactly the durable op prefix.
func TestCrashPointRecovery(t *testing.T) {
	ops := crashOps()
	for op := 1; ; op++ {
		// Alternate a clean abandon (nothing reaches the file) with a torn
		// partial write, so both tail signatures are recovered from.
		partial := 0
		if op%2 == 0 {
			partial = 5
		}
		dir := t.TempDir()
		elog, err := eventlog.Open(eventlog.Options{Dir: dir, Sync: eventlog.SyncAlways})
		if err != nil {
			t.Fatal(err)
		}
		elog.CrashPoint(op, partial)

		rig := newCrashScript(t, Options{EventLog: elog})
		for _, run := range ops {
			run(rig)
		}
		rig.shutdown()
		fired := elog.CrashFired()
		if err := elog.Close(); err != nil && !fired {
			t.Fatalf("boundary %d: close: %v", op, err)
		}

		rep, err := eventlog.Fsck(dir)
		if err != nil {
			t.Fatalf("boundary %d: fsck: %v", op, err)
		}
		if rep.Records > len(ops) {
			t.Fatalf("boundary %d: %d durable records for %d ops", op, rep.Records, len(ops))
		}
		if !fired && rep.Records != len(ops) {
			t.Fatalf("no crash, yet %d records for %d ops — an op logged more or less than one record", rep.Records, len(ops))
		}

		// Replay into a fresh server.
		elog2, err := eventlog.Open(eventlog.Options{Dir: dir, Sync: eventlog.SyncAlways})
		if err != nil {
			t.Fatalf("boundary %d: reopen: %v", op, err)
		}
		recovered := newCrashScript(t, Options{EventLog: elog2})
		got := liveDigest(recovered.srv)
		recovered.shutdown()
		if err := elog2.Close(); err != nil {
			t.Fatalf("boundary %d: close reopened: %v", op, err)
		}

		// Shadow: a plain in-memory server driven with the durable prefix.
		shadow := newCrashScript(t, Options{})
		for _, run := range ops[:rep.Records] {
			run(shadow)
		}
		want := liveDigest(shadow.srv)
		shadow.shutdown()

		if got != want {
			t.Fatalf("boundary %d (partial=%d, fired=%v, durable=%d/%d):\nreplayed state:\n%s\nshadow state:\n%s",
				op, partial, fired, rep.Records, len(ops), got, want)
		}
		if !fired {
			t.Logf("swept %d crash boundaries (%d ops, %d records)", op-1, len(ops), rep.Records)
			return
		}
	}
}
