package server

// Snapshot equivalence harness. Four angles on the same invariant — a
// snapshot at offset N is *defined* as fold(records[0:N)), so snapshotting
// must never change what a restart reconstructs:
//
//   - a testing/quick property at the fold level: for a generated record
//     script and an arbitrary cut point, (snapshot at the cut + tail replay)
//     rebuilds byte-for-byte the state of a full replay from zero;
//   - a crash-point sweep over every snapshot-write, snapshot-rename and
//     segment-delete boundary of a live server's snapshot+compaction cycle,
//     requiring the replayed digest to ALWAYS equal the full-script shadow
//     (snapshots sit beside the log; crashing one may only lose the
//     shortcut, never an acked record);
//   - a restart-equivalence check that a post-snapshot restart replays zero
//     log records yet lands on the same digest as a live server driven with
//     the whole script;
//   - a restart of a directory a striped server wrote, from a snapshot and
//     from the log alone, whose event IDs run on past every leased ceiling.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
	"testing"
	"testing/quick"

	"cosoft/internal/attr"
	"cosoft/internal/couple"
	"cosoft/internal/eventlog"
	"cosoft/internal/faultdisk"
	"cosoft/internal/obs"
	"cosoft/internal/testbed"
	"cosoft/internal/widget"
	"cosoft/internal/wire"
)

// genRecords derives a deterministic record script from rng: a weighted walk
// over every replayable record kind, tracking registered instances and
// declared refs so most records are valid while some deliberately dangle
// (reference disconnected instances, undo empty stacks, couple a ref to
// itself) — replay must skip those identically on both sides of the cut.
func genRecords(rng *rand.Rand) []eventlog.Record {
	var (
		recs    []eventlog.Record
		insts   []couple.InstanceID
		refs    []couple.ObjectRef
		tokens  []string
		seq     int
		eventID uint64
	)
	paths := []string{"/a", "/b", "/c"}
	pickInst := func() couple.InstanceID { return insts[rng.Intn(len(insts))] }
	pickRef := func() couple.ObjectRef { return refs[rng.Intn(len(refs))] }
	state := func() widget.TreeState {
		return widget.TreeState{Class: "textfield", Name: "x",
			Attrs: attr.Set{widget.AttrValue: attr.String(fmt.Sprintf("v%d", rng.Intn(100)))}}
	}
	rec := func(kind eventlog.Kind, origin couple.InstanceID, msg wire.Message) {
		recs = append(recs, eventlog.Record{
			Kind: kind, Origin: string(origin), Env: wire.Envelope{Msg: msg},
		})
	}
	n := 20 + rng.Intn(60)
	for len(recs) < n {
		switch k := rng.Intn(20); {
		case k < 3 || len(insts) == 0:
			seq++
			id := couple.InstanceID(fmt.Sprintf("app-%d", seq))
			insts = append(insts, id)
			rec(eventlog.KindRegister, id,
				wire.Register{AppType: "app", Host: "h", User: fmt.Sprintf("u%d", seq%3)})
		case k < 6 || len(refs) == 0:
			id := pickInst()
			p := paths[rng.Intn(len(paths))]
			refs = append(refs, couple.ObjectRef{Instance: id, Path: p})
			rec(eventlog.KindDeclare, id, wire.Declare{Path: p, Class: "textfield"})
		case k < 9:
			a, c := pickRef(), pickRef()
			rec(eventlog.KindCouple, a.Instance, wire.Couple{From: a, To: c})
		case k < 10:
			a, c := pickRef(), pickRef()
			rec(eventlog.KindDecouple, a.Instance, wire.Decouple{From: a, To: c})
		case k < 14:
			eventID++
			ref := pickRef()
			rec(eventlog.KindEvent, ref.Instance, wire.Exec{
				EventID: eventID, TargetPath: ref.Path, Name: "changed",
				Args:   []attr.Value{attr.String(fmt.Sprintf("e%d", eventID))},
				Origin: ref,
			})
		case k < 16:
			ref := pickRef()
			rec(eventlog.KindHist, ref.Instance, wire.CopyTo{To: ref, State: state()})
		case k < 17:
			kind := eventlog.KindUndo
			if rng.Intn(2) == 0 {
				kind = eventlog.KindRedo
			}
			ref := pickRef()
			rec(kind, ref.Instance, wire.CopyTo{To: ref, State: state()})
		case k < 18:
			user := fmt.Sprintf("u%d", rng.Intn(3))
			if rng.Intn(3) == 0 {
				rec(eventlog.KindPerm, "", wire.RevokePerm{User: user, State: "*", Right: 1})
			} else {
				rec(eventlog.KindPerm, "", wire.GrantPerm{User: user, State: "*", Right: uint8(1 + rng.Intn(3))})
			}
		case k < 19:
			if len(tokens) > 0 && rng.Intn(2) == 0 {
				rec(eventlog.KindResume, "", wire.Resume{Token: tokens[rng.Intn(len(tokens))]})
			} else {
				tok := fmt.Sprintf("tok-%d", len(tokens)+1)
				tokens = append(tokens, tok)
				rec(eventlog.KindToken, pickInst(), wire.SessionToken{Token: tok})
			}
		default:
			switch rng.Intn(3) {
			case 0:
				ref := pickRef()
				rec(eventlog.KindRetract, ref.Instance, wire.Retract{Path: ref.Path})
			case 1:
				rec(eventlog.KindTokenDrop, pickInst(), nil)
			default:
				rec(eventlog.KindDisconnect, pickInst(), nil)
			}
		}
	}
	return recs
}

// TestSnapshotCutEquivalence is the quick property: for any generated record
// script and any cut point, folding the prefix, round-tripping it through
// the snapshot codec, and replaying the tail yields exactly the state of a
// full replay from zero — same digest, same canonical encoding bytes. The
// prefix goes through the codec both as the version-3 payload encode writes
// and as the version-2 payload a server of one or three shards wrote,
// which deployed directories still hold.
func TestSnapshotCutEquivalence(t *testing.T) {
	for _, shards := range []int{1, 3} {
		shards := shards
		t.Run(fmt.Sprintf("shards-%d", shards), func(t *testing.T) {
			prop := func(seed int64, rawCut uint16) bool {
				rng := rand.New(rand.NewSource(seed))
				recs := genRecords(rng)
				cut := int(rawCut) % (len(recs) + 1)
				fold := func(st *state, recs []eventlog.Record) *state {
					for _, r := range recs {
						_ = st.apply(r) // the script dangles on purpose
					}
					return st
				}

				full := fold(newState(0, nil), recs)

				base := fold(newState(0, nil), recs[:cut])
				for _, payload := range [][]byte{base.encode(), encodeV2(base, shards)} {
					restored, err := decodeState(payload, 0)
					if err != nil {
						t.Logf("seed %d cut %d/%d: decode v%d: %v", seed, cut, len(recs), payload[0], err)
						return false
					}
					fold(restored, recs[cut:])

					if got, want := restored.digest(), full.digest(); got != want {
						t.Logf("seed %d cut %d/%d:\nv%d snapshot+tail:\n%s\nfull replay:\n%s",
							seed, cut, len(recs), payload[0], got, want)
						return false
					}
					if !bytes.Equal(restored.encode(), full.encode()) {
						t.Logf("seed %d cut %d/%d: v%d digests match but canonical encodings differ", seed, cut, len(recs), payload[0])
						return false
					}
				}
				return true
			}
			if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// encodeV2 writes st as the version-2 payload a server of n shards
// wrote: the shard count, each shard's sequence — shard i allocated the IDs
// i+1, i+1+n, …, so it stands at the count of those up to the floor — and a
// route override per link, around the sections version 3 kept.
func encodeV2(st *state, n int) []byte {
	v3 := st.encode()
	// The history section closes both layouts: a state that holds only st's
	// history encodes to the empty state's header followed by that section.
	h := newState(0, nil)
	for _, ref := range st.history.Refs() {
		undo, redo := st.history.Stacks(ref)
		h.history.Restore(ref, undo, redo)
	}
	empty := newState(0, nil).encode()
	history := h.encode()[len(empty)-1:]
	head := binary.AppendUvarint(binary.AppendUvarint([]byte{stateVersion}, st.reg.Seq()), st.floor)

	v2 := binary.AppendUvarint([]byte{2}, uint64(n))
	v2 = binary.AppendUvarint(v2, st.reg.Seq())
	for i := uint64(0); i < uint64(n); i++ {
		var q uint64
		if st.floor > i {
			q = (st.floor-i-1)/uint64(n) + 1
		}
		v2 = binary.AppendUvarint(v2, q)
	}
	v2 = append(v2, v3[len(head):len(v3)-len(history)]...)
	links := st.graph.Links()
	v2 = binary.AppendUvarint(v2, uint64(len(links)))
	for i, l := range links {
		v2 = appendSnapRef(v2, l.From)
		v2 = binary.AppendUvarint(v2, uint64(i%n))
	}
	return append(v2, history...)
}

// TestSnapshotCrashPointRecovery sweeps a crash across every snapshot-write,
// snapshot-rename, segment-delete and directory-sync boundary of a live
// server's forced snapshot+compaction cycle. The scripted session has fully
// acked before the cycle starts, so whatever boundary dies, the reopened
// directory must never be corrupt and must replay to the full script's
// state: a crashed snapshot may lose the replay shortcut, never a record.
// Over 0.5 s in tier-1: it alone crashes inside a snapshot and compaction.
func TestSnapshotCrashPointRecovery(t *testing.T) {
	ops := crashOps()
	for op := 1; ; op++ {
		partial := 0
		if op%2 == 0 {
			partial = 5
		}
		dir := t.TempDir()
		// Small segments so the post-snapshot compaction has several
		// segment-delete boundaries to die at.
		disk := &faultdisk.Disk{}
		elog, err := eventlog.Open(eventlog.Options{Dir: dir, Sync: eventlog.SyncAlways, SegmentBytes: 256, FS: disk})
		if err != nil {
			t.Fatal(err)
		}

		rig := newCrashScript(t, Options{EventLog: elog})
		rig.run(ops)
		disk.Arm(faultdisk.Fault{Class: faultdisk.Dir, At: op, Partial: partial, Crash: true})
		snapErr := rig.srv.Snapshot()
		rig.shutdown()
		fired := disk.Fired()
		if err := elog.Close(); err != nil && !fired {
			t.Fatalf("boundary %d: close: %v", op, err)
		}
		if !fired && snapErr != nil {
			t.Fatalf("boundary %d: snapshot failed without a crash: %v", op, snapErr)
		}

		rep, err := eventlog.Fsck(dir)
		if err != nil {
			t.Fatalf("boundary %d: fsck: %v", op, err)
		}
		if rep.Corrupt {
			t.Fatalf("boundary %d (partial=%d): directory corrupt after snapshot crash: %s", op, partial, rep.Detail)
		}

		elog2, err := eventlog.Open(eventlog.Options{Dir: dir, Sync: eventlog.SyncAlways, SegmentBytes: 256})
		if err != nil {
			t.Fatalf("boundary %d: reopen: %v", op, err)
		}
		recovered := newCrashScript(t, Options{EventLog: elog2})
		got := liveDigest(recovered.srv)
		recovered.shutdown()
		if err := elog2.Close(); err != nil {
			t.Fatalf("boundary %d: close reopened: %v", op, err)
		}

		want := shadowDigest(t, Options{}, ops)
		if got != want {
			t.Fatalf("boundary %d (partial=%d, fired=%v, snapshots=%d, segments=%d):\nreplayed state:\n%s\nshadow state:\n%s",
				op, partial, fired, rep.Snapshots, rep.Segments, got, want)
		}
		if !fired {
			t.Logf("swept %d snapshot crash boundaries (%d snapshots, %d segments survive a clean cycle)",
				op-1, rep.Snapshots, rep.Segments)
			return
		}
	}
}

// TestSnapshotDiskFull: a disk that fills under a snapshot's temp write costs
// that snapshot and nothing else. The temp file is removed, the previous
// snapshot is still the one a reopen selects, the log keeps serving appends,
// and once space returns the next snapshot succeeds.
func TestSnapshotDiskFull(t *testing.T) {
	ops := crashOps()
	dir := t.TempDir()
	disk := &faultdisk.Disk{}
	elog, err := eventlog.Open(eventlog.Options{Dir: dir, Sync: eventlog.SyncAlways, FS: disk})
	if err != nil {
		t.Fatal(err)
	}
	defer elog.Close()
	rig := newCrashScript(t, Options{EventLog: elog})
	defer rig.shutdown()
	newest := func() int64 {
		t.Helper()
		snaps, err := eventlog.Snapshots(dir)
		if err != nil || len(snaps) == 0 {
			t.Fatalf("snapshots: %v, %v", snaps, err)
		}
		return snaps[0].Offset
	}
	half := len(ops) / 2
	if n := rig.run(ops[:half]); n != half {
		t.Fatalf("%d of %d ops acked", n, half)
	}
	if err := rig.srv.Snapshot(); err != nil {
		t.Fatal(err)
	}
	prev := newest()

	rig.run(ops[half : half+1])
	disk.Arm(faultdisk.Fault{Class: faultdisk.Dir, At: 1, Err: syscall.ENOSPC, Partial: 5})
	if err := rig.srv.Snapshot(); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("snapshot on a full disk: %v, want ENOSPC", err)
	}
	if tmps, _ := filepath.Glob(filepath.Join(dir, "*.snap.tmp")); len(tmps) != 0 {
		t.Fatalf("the failed snapshot left %v", tmps)
	}
	if got := newest(); got != prev {
		t.Fatalf("a reopen would start from the snapshot at %d, want the previous one at %d", got, prev)
	}
	if n := rig.run(ops[half+1:]); n != len(ops)-half-1 {
		t.Fatalf("after the failed snapshot %d of %d ops acked", n, len(ops)-half-1)
	}
	if err := rig.srv.Snapshot(); err != nil {
		t.Fatalf("snapshot once space returned: %v", err)
	}
	if got := newest(); got <= prev {
		t.Fatalf("newest snapshot at %d after the retry, want past %d", got, prev)
	}
	if d := rig.srv.FoldDivergence(); d != "" {
		t.Fatal(d)
	}
}

// TestSnapshotRestartEquivalence restarts a snapshotted server and requires
// the replay to start from the snapshot — zero log records read — while
// landing on exactly the digest of a live server driven with the whole
// script. The second generation has the restarted server snapshot the state
// it restored and restarts once more, so a snapshot written from a snapshot
// restores the same state too.
func TestSnapshotRestartEquivalence(t *testing.T) {
	ops := crashOps()
	want := shadowDigest(t, Options{}, ops)
	for _, generations := range []int{1, 2} {
		t.Run(fmt.Sprintf("generations-%d", generations), func(t *testing.T) {
			dir := t.TempDir()
			elog, err := eventlog.Open(eventlog.Options{Dir: dir, Sync: eventlog.SyncAlways})
			if err != nil {
				t.Fatal(err)
			}
			rig := newCrashScript(t, Options{EventLog: elog})
			rig.run(ops)
			if err := rig.srv.Snapshot(); err != nil {
				t.Fatal(err)
			}
			rig.shutdown()
			if err := elog.Close(); err != nil {
				t.Fatal(err)
			}

			for g := 1; g <= generations; g++ {
				reg := obs.NewRegistry()
				elog, err := eventlog.Open(eventlog.Options{Dir: dir, Sync: eventlog.SyncAlways, Metrics: reg})
				if err != nil {
					t.Fatal(err)
				}
				recovered := newCrashScript(t, Options{EventLog: elog})
				got := liveDigest(recovered.srv)
				if g < generations {
					if err := recovered.srv.Snapshot(); err != nil {
						t.Fatalf("generation %d: snapshot of the restored state: %v", g, err)
					}
				}
				recovered.shutdown()
				if err := elog.Close(); err != nil {
					t.Fatal(err)
				}

				counters := reg.Snapshot().Counters
				if n := counters["server.log.replay_from_snapshot"]; n < 1 {
					t.Fatalf("generation %d: restart did not replay from the snapshot (replay_from_snapshot=%d)", g, n)
				}
				if n := counters["server.log.replayed"]; n != 0 {
					t.Fatalf("generation %d: snapshot restart replayed %d log records; want 0 (snapshot covers the whole log)", g, n)
				}
				if got != want {
					t.Fatalf("generation %d: snapshot restart diverged:\nreplayed state:\n%s\nshadow state:\n%s", g, got, want)
				}
			}
		})
	}
}

// TestSnapshotV1PayloadRefused feeds a version-1 payload (the layout that
// still carried a late-join tail section) through recovery: it must be
// refused like any unknown version and the restart must fall back to full
// replay, landing on the same digest as a live server driven with the script.
func TestSnapshotV1PayloadRefused(t *testing.T) {
	ops := crashOps()
	dir := t.TempDir()
	elog, err := eventlog.Open(eventlog.Options{Dir: dir, Sync: eventlog.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	rig := newCrashScript(t, Options{EventLog: elog})
	rig.run(ops)
	rig.shutdown()
	// A v1 snapshot of the whole log: today's sections, the old version tag,
	// and an empty tail section.
	fold := newState(0, nil)
	end, _, err := fold.restore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	v1 := append(fold.encode(), 0)
	v1[0] = 1
	if _, err := decodeState(v1, 0); err == nil || !strings.Contains(err.Error(), "unknown state version 1") {
		t.Fatalf("decodeState(v1) = %v, want unknown-version error", err)
	}
	if err := elog.WriteSnapshot(end, v1); err != nil {
		t.Fatal(err)
	}
	if err := elog.Close(); err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	elog2, err := eventlog.Open(eventlog.Options{Dir: dir, Sync: eventlog.SyncAlways, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	recovered := newCrashScript(t, Options{EventLog: elog2})
	got := liveDigest(recovered.srv)
	recovered.shutdown()
	if err := elog2.Close(); err != nil {
		t.Fatal(err)
	}
	if n := reg.Snapshot().Counters["server.log.replayed"]; n == 0 {
		t.Fatal("restart replayed no log records: the v1 snapshot was not refused")
	}

	want := shadowDigest(t, Options{}, ops)
	if got != want {
		t.Fatalf("fallback replay diverged:\nreplayed state:\n%s\nshadow state:\n%s", got, want)
	}
}

// TestRestartOfAStripedDirectory restarts a directory that a server of one,
// three or four event-state stripes wrote, once from a snapshot and once
// from the log alone. Such a server leased event IDs per stripe, each lease
// naming a ceiling leaseBlock·N IDs past an interleaved ID of its stripe, and
// its leases landed in whatever order the stripes took them. The restart
// must bring every group back, issue every new Exec ID above every leased
// ceiling, consecutively from the highest, still redo an undone copy, and be
// the fold of its log.
func TestRestartOfAStripedDirectory(t *testing.T) {
	for _, stripes := range []uint64{1, 3, 4} {
		for _, snapshot := range []bool{true, false} {
			t.Run(fmt.Sprintf("stripes-%d/snapshot-%v", stripes, snapshot), func(t *testing.T) {
				testRestartOfStripes(t, stripes, snapshot)
			})
		}
	}
}

func testRestartOfStripes(t *testing.T, stripes uint64, snapshot bool) {
	dir := t.TempDir()
	open := func(metrics obs.Sink) *eventlog.Log {
		t.Helper()
		elog, err := eventlog.Open(eventlog.Options{Dir: dir, Metrics: metrics})
		if err != nil {
			t.Fatal(err)
		}
		return elog
	}
	start := func(metrics obs.Sink) (*Server, *testbed.Bed, *eventlog.Log) {
		t.Helper()
		elog := open(metrics)
		srv := New(Options{EventLog: elog})
		return srv, testbed.New(t, srv, testbed.Options{}), elog
	}
	// stop judges the server and closes it before its peers, as
	// crashScript.shutdown does, so no departure reaches the log.
	stop := func(srv *Server, bed *testbed.Bed, elog *eventlog.Log) {
		t.Helper()
		testbed.Wait(t, "events resolved", func() bool { return srv.Stats().PendingEvents == 0 })
		if diff := srv.FoldDivergence(); diff != "" {
			t.Fatalf("live state is not the fold of its log: %s", diff)
		}
		if err := srv.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		srv.Close()
		bed.Close()
		if err := elog.Close(); err != nil {
			t.Fatal(err)
		}
	}
	text := func(v string) widget.TreeState {
		return widget.TreeState{Class: "textfield", Name: "x", Attrs: attr.Set{widget.AttrValue: attr.String(v)}}
	}
	x := func(p *testbed.Peer) couple.ObjectRef { return couple.ObjectRef{Instance: p.ID, Path: "/x"} }
	applied := func(p *testbed.Peer) string {
		return p.ApplyState().State.Attrs[widget.AttrValue].AsString()
	}
	// fire has origin dispatch one event, which every member acks, and
	// returns its ID.
	fire := func(srv *Server, origin *testbed.Peer, members ...*testbed.Peer) uint64 {
		t.Helper()
		origin.Send(wire.Event{Path: "/x", Name: widget.EventChanged, Args: []attr.Value{attr.String("v")}})
		var id uint64
		for _, m := range members {
			id = testbed.Next[wire.Exec](m).EventID
			m.Send(wire.ExecAck{EventID: id})
		}
		if res := testbed.Next[wire.EventResult](origin); !res.OK {
			t.Fatalf("event from %s denied: %s", origin.ID, res.Reason)
		}
		testbed.Wait(t, "event resolved", func() bool { return srv.Stats().PendingEvents == 0 })
		return id
	}

	srv, bed, elog := start(nil)
	peers := make([]*testbed.Peer, 5)
	for i := range peers {
		peers[i] = bed.Raw(wire.Register{AppType: "app", Host: "h", User: fmt.Sprintf("u%d", i)})
		peers[i].MustOK(wire.Declare{Path: "/x", Class: "textfield"})
	}
	a, b, c, d, e := peers[0], peers[1], peers[2], peers[3], peers[4]
	a.MustOK(wire.Couple{From: x(a), To: x(b)})
	c.MustOK(wire.Couple{From: x(c), To: x(a)})
	d.MustOK(wire.Couple{From: x(d), To: x(e)})

	// A copy onto b backs up "before"; undoing it parks "copied" on the redo
	// stack.
	a.Send(wire.CopyTo{FromPath: "/x", To: x(b), State: text("copied")})
	b.ServeState(text("before"))
	if v := applied(b); v != "copied" {
		t.Fatalf("copy applied %q at b", v)
	}
	testbed.Next[wire.OK](a)
	b.Send(wire.Undo{Path: "/x"})
	b.ServeState(text("copied"))
	if v := applied(b); v != "before" {
		t.Fatalf("undo applied %q at b", v)
	}
	testbed.Next[wire.OK](b)
	fire(srv, a, b, c)
	fire(srv, d, e)
	tokens := make([]string, len(peers))
	for i, p := range peers {
		tokens[i] = p.Call(wire.SessionToken{}).Msg.(wire.SessionToken).Token
	}
	stop(srv, bed, elog)

	// The stripes' leases: stripe i of N, whose IDs are seq·N + i + 1, leased
	// at its ID i+1 and then at i+1+N·leaseBlock, each time leaseBlock·N
	// further on. Every stripe took its first lease; stripes 1 and 0 (stripe
	// 0 alone, with one stripe) then took a second, stripe 1 first, so with
	// more than one stripe the highest ceiling is not the last.
	var ceilings []uint64
	for i := uint64(0); i < stripes; i++ {
		ceilings = append(ceilings, i+1+stripes*leaseBlock)
	}
	for i := min(1, stripes-1) + 1; i > 0; i-- {
		ceilings = append(ceilings, i+2*stripes*leaseBlock)
	}
	elog = open(nil)
	for _, ceiling := range ceilings {
		if err := elog.Append(eventlog.Record{Kind: eventlog.KindLease, Env: wire.Envelope{Msg: wire.Exec{EventID: ceiling}}}); err != nil {
			t.Fatal(err)
		}
	}
	if snapshot {
		fold := newState(0, nil)
		end, _, err := fold.restore(dir, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := elog.WriteSnapshot(end, fold.encode()); err != nil {
			t.Fatal(err)
		}
	}
	if err := elog.Close(); err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	srv, bed, elog = start(reg)
	if n := reg.Snapshot().Counters["server.log.replay_from_snapshot"]; (n > 0) != snapshot {
		t.Fatalf("replay_from_snapshot=%d with snapshot=%v", n, snapshot)
	}
	for i, p := range peers {
		peers[i] = bed.Raw(wire.Resume{Token: tokens[i]})
		if peers[i].ID != p.ID {
			t.Fatalf("resumed as %s, want %s", peers[i].ID, p.ID)
		}
	}
	a, b, c, d, e = peers[0], peers[1], peers[2], peers[3], peers[4]
	for _, g := range [][]*testbed.Peer{{a, b, c}, {d, e}} {
		if n := len(srv.UncachedCO(x(g[0]))); n != len(g)-1 {
			t.Fatalf("%s is coupled to %d objects after the restart, want %d", g[0].ID, n, len(g)-1)
		}
	}
	floor := slices.Max(ceilings)
	for i, id := range []uint64{fire(srv, d, e), fire(srv, a, b, c), fire(srv, d, e)} {
		if want := floor + uint64(i) + 1; id != want {
			t.Fatalf("event %d after the restart got ID %d, want %d: the IDs run on from the highest leased ceiling %d (leases %v)",
				i, id, want, floor, ceilings)
		}
	}

	b.Send(wire.Redo{Path: "/x"})
	b.ServeState(text("before"))
	if v := applied(b); v != "copied" {
		t.Fatalf("redo after the restart applied %q at b, want the undone copy", v)
	}
	testbed.Next[wire.OK](b)
	stop(srv, bed, elog)
}
