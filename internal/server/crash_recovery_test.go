package server

// Crash-point recovery harness: a scripted session runs against a durable
// server whose event log writes through a fault disk armed to fail one exact
// write or fsync — abandoned, or torn part way — after which the log fails
// closed by itself. The script stops at the first operation the dead log
// refuses.
// The log directory is then reopened and replayed into a fresh server, whose
// databases must equal those of a shadow server driven live with exactly the
// operations the log managed to make durable, and those of the crashed
// server as it stood when the script stopped. Sweeping the crash point
// across every boundary of the script proves no append site acknowledges
// state the replay cannot rebuild, and none holds state the log refused.
//
// The record⇄operation correspondence the harness relies on: every scripted
// operation appends exactly one log record (the clients do not enable
// Reconnect, so no token records interleave), except that the first event
// first appends the ID lease, which is not an operation (see durableOps). Records reach the file in operation order: a control-plane
// record is durable before its acknowledgement, and an event's record is
// queued before the event is acked, ahead of the next operation's. A crash at
// a write or an fsync boundary loses that drain's records: the log cuts a
// failed drain back off its segment before it fails closed. So the durable
// prefix is always ops[0:R] with R read back from the directory, never an
// interior gap.

import (
	"errors"
	"strings"
	"testing"
	"time"

	"cosoft/internal/attr"
	coclient "cosoft/internal/client"
	"cosoft/internal/eventlog"
	"cosoft/internal/faultdisk"
	"cosoft/internal/perm"
	"cosoft/internal/testbed"
	"cosoft/internal/widget"
)

// crashScript is one run of the scripted session: a server on a test bed,
// the disk its log writes through (nil: one that never fails) and the
// clients the ops have dialed so far, by name.
type crashScript struct {
	t    *testing.T
	srv  *Server
	bed  *testbed.Bed
	disk *faultdisk.Disk
	cl   map[string]*coclient.Client
}

// crashOp is one scripted operation. It returns the server's refusal, if any;
// every other failure fails the test.
type crashOp func(r *crashScript) error

func newCrashScript(t *testing.T, opts Options) *crashScript {
	t.Helper()
	srv := New(opts)
	return &crashScript{t: t, srv: srv, bed: testbed.New(t, srv, testbed.Options{}), cl: make(map[string]*coclient.Client)}
}

// dial registers a client, returning the refusal of its registration: the
// bed's own Dial fails the test on one.
func (r *crashScript) dial(name, user string) error {
	r.t.Helper()
	reg := widget.NewRegistry()
	if _, err := widget.Build(reg, "/", `textfield x value=""`); err != nil {
		r.t.Fatal(err)
	}
	c, err := coclient.New(r.bed.Conn(), coclient.Options{
		AppType: "app", User: user, Host: "testhost", Registry: reg, RPCTimeout: 5 * time.Second,
	})
	if err != nil {
		return err
	}
	r.cl[name] = c
	return nil
}

// run drives ops in order and returns how many the server acknowledged. A
// refusal must be the dead log's, and the first one ends the script: the
// refused op changed nothing, and the log refuses every op behind it too.
func (r *crashScript) run(ops []crashOp) int {
	r.t.Helper()
	for i, op := range ops {
		if err := op(r); err != nil {
			if r.disk == nil || !r.disk.Fired() || !strings.Contains(err.Error(), "event log append failed") {
				r.t.Fatalf("op %d: %v", i, err)
			}
			return i
		}
	}
	return len(ops)
}

// shutdown judges the server and closes it before the clients — its
// shutdown-provoked drops are not logged — so no Deregister can reach the log
// and the record stream stays exactly the scripted operations.
func (r *crashScript) shutdown() {
	r.t.Helper()
	if err := r.srv.CheckInvariants(); err != nil {
		r.t.Fatal(err)
	}
	r.srv.Close()
	for _, c := range r.cl {
		c.Close()
	}
	r.bed.Close()
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
func (r *crashScript) dispatchTo(origin, val string, peers ...string) error {
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
	if err != nil {
		return err
	}
	for _, p := range peers {
		p := p
		testbed.Wait(r.t, p+" mirrors "+val, func() bool { return r.value(p) == val })
	}
	// A member mirrors the value before its ack lands; the next op's event
	// must not meet this one still holding the floor.
	testbed.Wait(r.t, val+" resolved", func() bool { return r.srv.Stats().PendingEvents == 0 })
	return nil
}

// retract destroys name's /x, which retracts it. The client only logs a
// refused Retract, so the refusal is read off the server's count of refused
// appends.
func (r *crashScript) retract(name string) error {
	r.t.Helper()
	refused := r.srv.mLogAppendErrs.Value()
	if err := r.cl[name].Registry().Destroy("/x"); err != nil {
		r.t.Fatal(err)
	}
	if r.srv.mLogAppendErrs.Value() != refused {
		return errors.New("retract refused: event log append failed")
	}
	return nil
}

// crashOps is the scripted session. Each op appends exactly one log record
// (kind in the comment) and leaves the system quiescent, so the durable
// record count R maps back to the op prefix ops[0:R].
func crashOps() []crashOp {
	return []crashOp{
		func(r *crashScript) error { return r.dial("A", "u1") },       // Register
		func(r *crashScript) error { return r.dial("B", "u2") },       // Register
		func(r *crashScript) error { return r.cl["A"].Declare("/x") }, // Declare
		func(r *crashScript) error { return r.cl["B"].Declare("/x") }, // Declare
		func(r *crashScript) error { // Couple
			if err := r.cl["A"].Couple("/x", r.cl["B"].Ref("/x")); err != nil {
				return err
			}
			testbed.Wait(r.t, "A coupled", func() bool { return r.cl["A"].Coupled("/x") })
			testbed.Wait(r.t, "B coupled", func() bool { return r.cl["B"].Coupled("/x") })
			return nil
		},
		func(r *crashScript) error { return r.dispatchTo("A", "one", "B") }, // Event
		func(r *crashScript) error { return r.dispatchTo("B", "two", "A") }, // Event
		func(r *crashScript) error { // Hist (CopyTo backs up B's state)
			return r.cl["A"].CopyTo("/x", r.cl["B"].Ref("/x"), false)
		},
		func(r *crashScript) error { return r.cl["B"].Undo("/x") },    // Undo
		func(r *crashScript) error { return r.cl["B"].Redo("/x") },    // Redo
		func(r *crashScript) error { return r.dial("C", "u3") },       // Register
		func(r *crashScript) error { return r.cl["C"].Declare("/x") }, // Declare
		func(r *crashScript) error { // Couple (second group merge)
			if err := r.cl["C"].Couple("/x", r.cl["A"].Ref("/x")); err != nil {
				return err
			}
			testbed.Wait(r.t, "C sees group of 3", func() bool { return len(r.cl["C"].CO("/x")) == 2 })
			return nil
		},
		func(r *crashScript) error { return r.dispatchTo("C", "three", "A", "B") }, // Event
		func(r *crashScript) error { // Decouple
			return r.cl["A"].Decouple("/x", r.cl["B"].Ref("/x"))
		},
		func(r *crashScript) error { // Perm
			return r.cl["A"].GrantPerm("u3", "*", uint8(perm.RightControl))
		},
		func(r *crashScript) error { return r.retract("C") }, // Retract
	}
}

// TestCrashPointRecovery sweeps the crash point across every write and fsync
// boundary the scripted session generates. For each boundary: run the script
// until the dead log refuses an op, read the crashed server's state, reopen
// the log directory (truncating any torn tail), replay it into a fresh
// server, and require its digest to equal a shadow server driven live with
// exactly the durable op prefix — and to equal the crashed server's, so what
// was acknowledged is what was durable, at fsync boundaries too: a drain
// whose fsync failed is cut back off the segment, so a restart never finds
// an op the server refused. Over 0.5 s: it alone crashes the log at every
// boundary of a session that writes every record kind.
func TestCrashPointRecovery(t *testing.T) {
	ops := crashOps()
	for op := 1; ; op++ {
		// Alternate a clean abandon (nothing reaches the file) with a torn
		// partial write, which the log must cut back off. They alternate in
		// pairs: boundaries alternate between a write and its fsync, where
		// partial means nothing.
		partial := 0
		if op/2%2 == 1 {
			partial = 5
		}
		dir := t.TempDir()
		disk := &faultdisk.Disk{}
		elog, err := eventlog.Open(eventlog.Options{Dir: dir, Sync: eventlog.SyncAlways, FS: disk})
		if err != nil {
			t.Fatal(err)
		}
		disk.Arm(faultdisk.Fault{Class: faultdisk.Segment, At: op, Partial: partial})

		rig := newCrashScript(t, Options{EventLog: elog})
		rig.disk = disk
		acked := rig.run(ops)
		live := liveDigest(rig.srv)
		rig.shutdown()
		fired := disk.Fired()
		if err := elog.Close(); err != nil && !fired {
			t.Fatalf("boundary %d: close: %v", op, err)
		}

		durable, leases := durableOps(t, dir)
		if durable > len(ops) {
			t.Fatalf("boundary %d: %d durable ops for %d ops", op, durable, len(ops))
		}
		if !fired && (durable != len(ops) || leases == 0) {
			t.Fatalf("no crash, yet %d durable ops for %d, and %d leases — an op logged more or less than one record", durable, len(ops), leases)
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

		want := shadowDigest(t, Options{}, ops[:durable])
		if got != want {
			t.Fatalf("boundary %d (partial=%d, fired=%v, durable=%d/%d):\nreplayed state:\n%s\nshadow state:\n%s",
				op, partial, fired, durable, len(ops), got, want)
		}
		if live != got {
			t.Fatalf("boundary %d (partial=%d, acked=%d, durable=%d/%d): the crashed server holds\n%s\nreplay rebuilt\n%s",
				op, partial, acked, durable, len(ops), live, got)
		}
		if !fired {
			t.Logf("swept %d crash boundaries (%d ops, %d leases)", op-1, len(ops), leases)
			return
		}
	}
}

// durableOps reads back how many of the script's ops the log in dir holds,
// and how many ID leases. Every op logs one record, but a lease is not an op:
// it stands for the event it was taken for. A durable lease with no record of
// its event behind it leaves the fold where the event would (an event record
// only restates the floor the lease already raised), whether the event was
// acked and its record lost or the event was refused because the lease's
// fsync failed.
func durableOps(t *testing.T, dir string) (ops, leases int) {
	t.Helper()
	leased := false
	if err := eventlog.ReplayDir(dir, func(rec eventlog.Record) error {
		leased = rec.Kind == eventlog.KindLease
		if leased {
			leases++
		} else {
			ops++
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if leased {
		ops++
	}
	return ops, leases
}

// shadowDigest drives a fresh server through ops and returns its live digest.
// The shadow logs to a directory of its own, so it leases event IDs at the
// events the scripted run leased them at.
func shadowDigest(t *testing.T, opts Options, ops []crashOp) string {
	t.Helper()
	elog, err := eventlog.Open(eventlog.Options{Dir: t.TempDir(), Sync: eventlog.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	opts.EventLog = elog
	shadow := newCrashScript(t, opts)
	shadow.run(ops)
	digest := liveDigest(shadow.srv)
	shadow.shutdown()
	if err := elog.Close(); err != nil {
		t.Fatal(err)
	}
	return digest
}
