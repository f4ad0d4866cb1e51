package server

// Snapshot equivalence harness. Three angles on the same invariant — a
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
//   - a restart-equivalence check, at one and four shard loops, that a
//     post-snapshot restart replays zero log records yet lands on the same
//     digest as a live server driven with the whole script.

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"cosoft/internal/attr"
	"cosoft/internal/couple"
	"cosoft/internal/eventlog"
	"cosoft/internal/obs"
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
// full replay from zero — same digest, same canonical encoding bytes.
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

				full := fold(newState(shards, 0, nil), recs)

				base := fold(newState(shards, 0, nil), recs[:cut])
				restored, err := decodeState(base.encode(), shards, 0)
				if err != nil {
					t.Logf("seed %d cut %d/%d: decode: %v", seed, cut, len(recs), err)
					return false
				}
				fold(restored, recs[cut:])

				if got, want := restored.digest(), full.digest(); got != want {
					t.Logf("seed %d cut %d/%d:\nsnapshot+tail:\n%s\nfull replay:\n%s",
						seed, cut, len(recs), got, want)
					return false
				}
				if !bytes.Equal(restored.encode(), full.encode()) {
					t.Logf("seed %d cut %d/%d: digests match but canonical encodings differ", seed, cut, len(recs))
					return false
				}
				return true
			}
			if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSnapshotCrashPointRecovery sweeps a crash across every snapshot-write,
// snapshot-rename, segment-delete and directory-sync boundary of a live
// server's forced snapshot+compaction cycle. The scripted session has fully
// acked before the cycle starts, so whatever boundary dies, the reopened
// directory must never be corrupt and must replay to the full script's
// state: a crashed snapshot may lose the replay shortcut, never a record.
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
		elog, err := eventlog.Open(eventlog.Options{Dir: dir, Sync: eventlog.SyncAlways, SegmentBytes: 256})
		if err != nil {
			t.Fatal(err)
		}

		rig := newCrashScript(t, Options{EventLog: elog})
		for _, run := range ops {
			run(rig)
		}
		elog.SnapCrashPoint(op, partial)
		snapErr := rig.srv.Snapshot()
		rig.shutdown()
		fired := elog.SnapCrashFired()
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

		shadow := newCrashScript(t, Options{})
		for _, run := range ops {
			run(shadow)
		}
		want := liveDigest(shadow.srv)
		shadow.shutdown()

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

// TestSnapshotRestartEquivalence restarts a snapshotted server, at one and
// four shard loops, and requires the replay to start from the snapshot —
// zero log records read — while landing on exactly the digest of a live
// server driven with the whole script.
func TestSnapshotRestartEquivalence(t *testing.T) {
	ops := crashOps()
	for _, shards := range []int{1, 4} {
		shards := shards
		t.Run(fmt.Sprintf("shards-%d", shards), func(t *testing.T) {
			dir := t.TempDir()
			elog, err := eventlog.Open(eventlog.Options{Dir: dir, Sync: eventlog.SyncAlways})
			if err != nil {
				t.Fatal(err)
			}
			rig := newCrashScript(t, Options{EventLog: elog, Shards: shards})
			for _, run := range ops {
				run(rig)
			}
			rig.mustOK(rig.srv.Snapshot())
			rig.shutdown()
			if err := elog.Close(); err != nil {
				t.Fatal(err)
			}

			reg := obs.NewRegistry()
			elog2, err := eventlog.Open(eventlog.Options{Dir: dir, Sync: eventlog.SyncAlways, Metrics: reg})
			if err != nil {
				t.Fatal(err)
			}
			recovered := newCrashScript(t, Options{EventLog: elog2, Shards: shards})
			got := liveDigest(recovered.srv)
			recovered.shutdown()
			if err := elog2.Close(); err != nil {
				t.Fatal(err)
			}

			counters := reg.Snapshot().Counters
			if n := counters["server.log.replay_from_snapshot"]; n < 1 {
				t.Fatalf("restart did not replay from the snapshot (replay_from_snapshot=%d)", n)
			}
			if n := counters["server.log.replayed"]; n != 0 {
				t.Fatalf("snapshot restart replayed %d log records; want 0 (snapshot covers the whole log)", n)
			}

			shadow := newCrashScript(t, Options{Shards: shards})
			for _, run := range ops {
				run(shadow)
			}
			want := liveDigest(shadow.srv)
			shadow.shutdown()

			if got != want {
				t.Fatalf("snapshot restart diverged:\nreplayed state:\n%s\nshadow state:\n%s", got, want)
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
	for _, run := range ops {
		run(rig)
	}
	rig.shutdown()
	// A v1 snapshot of the whole log: today's sections, the old version tag,
	// and an empty tail section.
	fold := newState(HarnessShards, 0, nil)
	end, _, err := fold.restore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	v1 := append(fold.encode(), 0)
	v1[0] = 1
	if _, err := decodeState(v1, HarnessShards, 0); err == nil || !strings.Contains(err.Error(), "unknown state version 1") {
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

	shadow := newCrashScript(t, Options{})
	for _, run := range ops {
		run(shadow)
	}
	want := liveDigest(shadow.srv)
	shadow.shutdown()
	if got != want {
		t.Fatalf("fallback replay diverged:\nreplayed state:\n%s\nshadow state:\n%s", got, want)
	}
}
