package eventlog

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"cosoft/internal/obs"
)

// durableEnd returns the byte offset just past the last valid record — the
// offset a snapshot of the whole log would capture.
func durableEnd(t *testing.T, dir string) int64 {
	t.Helper()
	end, err := ReplayDirFrom(dir, 0, func(Record) error { return nil })
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	return end
}

func mustAppend(t *testing.T, l *Log, recs ...Record) {
	t.Helper()
	for _, r := range recs {
		if err := l.Append(r); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, l, sampleRecords()...)
	off := durableEnd(t, dir)
	if err := l.WriteSnapshot(off, []byte("state-v1")); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	snaps, err := Snapshots(l.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 1 || snaps[0].Offset != off || string(snaps[0].Payload) != "state-v1" {
		t.Fatalf("snapshots = %+v, want one at %d with payload state-v1", snaps, off)
	}
	// Newer snapshots list first.
	mustAppend(t, l, sampleRecords()...)
	off2 := durableEnd(t, dir)
	if err := l.WriteSnapshot(off2, []byte("state-v2")); err != nil {
		t.Fatal(err)
	}
	snaps, err = Snapshots(l.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 2 || snaps[0].Offset != off2 || snaps[1].Offset != off {
		t.Fatalf("snapshots = %+v, want newest-first [%d %d]", snaps, off2, off)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen: snapshots survive, replay-from-snapshot counter ticks.
	reg := obs.NewRegistry()
	l2, err := Open(Options{Dir: dir, Sync: SyncAlways, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	snaps, err = Snapshots(l2.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 2 || snaps[0].Offset != off2 {
		t.Fatalf("after reopen snapshots = %+v", snaps)
	}
	if got := reg.Snapshot().Counters["server.log.replay_from_snapshot"]; got != 1 {
		t.Fatalf("replay_from_snapshot = %d, want 1", got)
	}
}

// A CRC-damaged newest snapshot is skipped: Snapshots falls back to the
// older one, and replay from its offset still reaches every record.
func TestSnapshotFallbackOnDamage(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, l, sampleRecords()...)
	off1 := durableEnd(t, dir)
	if err := l.WriteSnapshot(off1, []byte("good")); err != nil {
		t.Fatal(err)
	}
	mustAppend(t, l, sampleRecords()...)
	off2 := durableEnd(t, dir)
	if err := l.WriteSnapshot(off2, []byte("soon-damaged")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte in the newest snapshot.
	path := snapPath(dir, off2)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(Options{Dir: dir, Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	snaps, err := Snapshots(l2.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 1 || snaps[0].Offset != off1 || string(snaps[0].Payload) != "good" {
		t.Fatalf("snapshots = %+v, want only the older valid one at %d", snaps, off1)
	}
	var n int
	end, err := l2.ReplayFrom(off1, func(Record) error { n++; return nil })
	if err != nil {
		t.Fatal(err)
	}
	if end != off2 || n != len(sampleRecords()) {
		t.Fatalf("ReplayFrom(%d) = (%d, %d records), want (%d, %d)", off1, end, n, off2, len(sampleRecords()))
	}
}

// ReplayFrom skips segments wholly below the offset and starts mid-segment
// when the offset lands inside one.
func TestReplayFromSkipsCoveredBytes(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments force rotation so the log spans several files.
	l, err := Open(Options{Dir: dir, Sync: SyncAlways, SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var wantTotal int
	for i := 0; i < 12; i++ {
		mustAppend(t, l, sampleRecords()...)
		wantTotal += len(sampleRecords())
	}
	end := durableEnd(t, dir)
	// Reconstruct every record boundary (encodeRecord includes framing),
	// then replay from each: counts must telescope down to zero.
	bounds := []int64{0}
	if _, err := l.ReplayFrom(0, func(r Record) error {
		bounds = append(bounds, bounds[len(bounds)-1]+int64(len(encodeRecord(r))))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if bounds[len(bounds)-1] != end {
		t.Fatalf("boundary reconstruction drifted: %d vs end %d", bounds[len(bounds)-1], end)
	}
	for i, b := range bounds {
		n := 0
		got, err := l.ReplayFrom(b, func(Record) error { n++; return nil })
		if err != nil {
			t.Fatalf("ReplayFrom(%d): %v", b, err)
		}
		if got != end || n != wantTotal-i {
			t.Fatalf("ReplayFrom(%d) = (%d, %d records), want (%d, %d)", b, got, n, end, wantTotal-i)
		}
	}
}

// Compact keeps the two newest snapshots, deletes segments wholly covered by
// the older retained one, and never deletes the segment the writer holds.
func TestCompactRetention(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, Sync: SyncAlways, SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var offs []int64
	for i := 0; i < 4; i++ {
		mustAppend(t, l, sampleRecords()...)
		off := durableEnd(t, dir)
		if err := l.WriteSnapshot(off, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		offs = append(offs, off)
	}
	removed, err := l.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if removed == 0 {
		t.Fatal("Compact removed no segments; expected covered segments to go")
	}
	snaps, err := Snapshots(l.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 2 || snaps[0].Offset != offs[3] || snaps[1].Offset != offs[2] {
		t.Fatalf("snapshots after compact = %+v, want the two newest (%d, %d)", snaps, offs[3], offs[2])
	}
	bases, err := segments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(bases) == 0 {
		t.Fatal("compaction deleted every segment including the writer's open one")
	}
	// Every remaining byte is needed: first remaining segment must cover the
	// older retained snapshot's offset.
	if bases[0] > offs[2] {
		t.Fatalf("first remaining segment %d starts past retained snapshot %d", bases[0], offs[2])
	}
	// Replay from the retained fallback snapshot still works.
	if _, err := l.ReplayFrom(offs[2], func(Record) error { return nil }); err != nil {
		t.Fatalf("ReplayFrom(retained): %v", err)
	}
	// Appends continue fine after compaction, and the dir passes fsck.
	mustAppend(t, l, sampleRecords()...)
	rep, err := Fsck(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Corrupt || rep.TornTail {
		t.Fatalf("fsck after compact: %+v", rep)
	}
}

// The snapshot crash sweep at the log level: arm every snapshot/compaction
// I/O boundary in turn; whatever boundary the crash hits, reopening the
// directory must reach the full durable record set — from the newest valid
// snapshot when one exists, from offset zero otherwise — and fsck must
// never report corruption. Snapshot/compaction failure never loses data.
func TestSnapshotCrashPointSweep(t *testing.T) {
	round := len(sampleRecords())
	for op := 1; ; op++ {
		partial := 0
		if op%2 == 0 {
			partial = 3
		}
		dir := t.TempDir()
		l, err := Open(Options{Dir: dir, Sync: SyncAlways, SegmentBytes: 128})
		if err != nil {
			t.Fatal(err)
		}
		// Pre-existing snapshot so compaction has work to do.
		for i := 0; i < 3; i++ {
			mustAppend(t, l, sampleRecords()...)
		}
		preOff := durableEnd(t, dir)
		if err := l.WriteSnapshot(preOff, []byte("pre")); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			mustAppend(t, l, sampleRecords()...)
		}
		off := durableEnd(t, dir)
		l.SnapCrashPoint(op, partial)
		snapErr := l.WriteSnapshot(off, []byte("new"))
		var compErr error
		if snapErr == nil {
			_, compErr = l.Compact()
		}
		fired := l.SnapCrashFired()
		if !fired {
			if snapErr != nil || compErr != nil {
				t.Fatalf("op %d: unexpected errors without crash: snap=%v compact=%v", op, snapErr, compErr)
			}
			l.Close()
			break
		}
		l.Close()

		rep, err := Fsck(dir)
		if err != nil {
			t.Fatalf("op %d: fsck: %v", op, err)
		}
		if rep.Corrupt {
			t.Fatalf("op %d: fsck corrupt after snapshot crash: %+v", op, rep)
		}
		// Reopen and replay through the snapshot chain: every record below
		// the newest valid snapshot plus the tail must be reachable — i.e.
		// the recovered record set must always equal the full set.
		l2, err := Open(Options{Dir: dir, Sync: SyncAlways})
		if err != nil {
			t.Fatalf("op %d: reopen: %v", op, err)
		}
		snaps, err := Snapshots(l2.Dir())
		if err != nil {
			t.Fatalf("op %d: %v", op, err)
		}
		from := int64(0)
		if len(snaps) > 0 {
			from = snaps[0].Offset
		}
		n := 0
		end, err := l2.ReplayFrom(from, func(Record) error { n++; return nil })
		if err != nil {
			t.Fatalf("op %d: replay: %v", op, err)
		}
		// Every append was durable before the crash was armed, so replay
		// must always reach the pre-crash end offset, and the record count
		// between the chosen snapshot and the end is exact: 6 rounds from
		// zero, 3 from the pre snapshot, 0 from the just-written one.
		if end != off {
			t.Fatalf("op %d: replay from %d reached %d, want %d", op, from, end, off)
		}
		want := map[int64]int{0: 6 * round, preOff: 3 * round, off: 0}[from]
		if from != 0 && from != preOff && from != off {
			t.Fatalf("op %d: replay starts at unexpected offset %d", op, from)
		}
		if n != want {
			t.Fatalf("op %d: replayed %d records from offset %d, want %d", op, n, from, want)
		}
		// No temp files may survive recovery.
		tmps, _ := filepath.Glob(filepath.Join(dir, "*.snap.tmp"))
		if len(tmps) != 0 {
			t.Fatalf("op %d: stale temp snapshot files after reopen: %v", op, tmps)
		}
		l2.Close()
	}
}

// Satellite: Close during an in-flight snapshot write. The blocked writer is
// abandoned cleanly — its temp file is removed, Close returns, and the older
// valid snapshot is still the one a reopen selects.
func TestCloseAbandonsInFlightSnapshot(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, l, sampleRecords()...)
	off1 := durableEnd(t, dir)
	if err := l.WriteSnapshot(off1, []byte("older-valid")); err != nil {
		t.Fatal(err)
	}
	mustAppend(t, l, sampleRecords()...)
	off2 := durableEnd(t, dir)

	gate := make(chan struct{})
	l.SnapshotGate(gate)
	writeDone := make(chan error, 1)
	go func() { writeDone <- l.WriteSnapshot(off2, []byte("in-flight")) }()
	// Wait until the writer is parked at the gate (temp file fully written).
	tmp := snapPath(dir, off2) + ".tmp"
	deadline := time.Now().Add(2 * time.Second)
	for {
		if _, err := os.Stat(tmp); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("snapshot writer never reached the gate")
		}
		time.Sleep(time.Millisecond)
	}
	closeDone := make(chan error, 1)
	go func() { closeDone <- l.Close() }()
	select {
	case err := <-closeDone:
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung on the in-flight snapshot writer")
	}
	if err := <-writeDone; err != ErrClosed {
		t.Fatalf("in-flight WriteSnapshot returned %v, want ErrClosed", err)
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("abandoned temp snapshot still on disk: %v", err)
	}
	// The half-finished snapshot never shadows the older valid one.
	l2, err := Open(Options{Dir: dir, Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	snaps, err := Snapshots(l2.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 1 || snaps[0].Offset != off1 || string(snaps[0].Payload) != "older-valid" {
		t.Fatalf("snapshots after abandon = %+v, want only the older valid one", snaps)
	}
}

// Satellite: Fsck exit paths over the snapshot-era directory shapes.
func TestFsckSnapshotShapes(t *testing.T) {
	mkLog := func(t *testing.T, dir string, snapAt []int, extraAfter int) (offs []int64) {
		t.Helper()
		l, err := Open(Options{Dir: dir, Sync: SyncAlways, SegmentBytes: 128})
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		next := 0
		for _, rounds := range snapAt {
			for i := 0; i < rounds; i++ {
				mustAppend(t, l, sampleRecords()...)
			}
			off := durableEnd(t, dir)
			if err := l.WriteSnapshot(off, []byte{byte(next)}); err != nil {
				t.Fatal(err)
			}
			offs = append(offs, off)
			next++
		}
		for i := 0; i < extraAfter; i++ {
			mustAppend(t, l, sampleRecords()...)
		}
		return offs
	}

	t.Run("empty-dir", func(t *testing.T) {
		rep, err := Fsck(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if rep.Corrupt || rep.TornTail || rep.Segments != 0 || rep.Snapshots != 0 || rep.SnapshotOffset != -1 {
			t.Fatalf("empty dir: %+v", rep)
		}
	})

	t.Run("snap-only", func(t *testing.T) {
		dir := t.TempDir()
		offs := mkLog(t, dir, []int{2}, 0)
		// Simulate full compaction: remove every segment (the log is closed).
		bases, err := segments(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range bases {
			if err := os.Remove(segPath(dir, b)); err != nil {
				t.Fatal(err)
			}
		}
		rep, err := Fsck(dir)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Corrupt || rep.TornTail || rep.Snapshots != 1 || rep.SnapshotOffset != offs[0] {
			t.Fatalf("snap-only dir must be clean: %+v", rep)
		}
		// And it must reopen: appends resume at the snapshot offset.
		l, err := Open(Options{Dir: dir, Sync: SyncAlways})
		if err != nil {
			t.Fatalf("reopen snap-only dir: %v", err)
		}
		mustAppend(t, l, sampleRecords()...)
		l.Close()
		bases, err = segments(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(bases) != 1 || bases[0] != offs[0] {
			t.Fatalf("appends after snap-only reopen landed at %v, want [%d]", bases, offs[0])
		}
	})

	t.Run("torn-snap", func(t *testing.T) {
		dir := t.TempDir()
		offs := mkLog(t, dir, []int{1, 1}, 1)
		// Truncate the newest snapshot mid-payload.
		path := snapPath(dir, offs[1])
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data[:len(data)-1], 0o644); err != nil {
			t.Fatal(err)
		}
		rep, err := Fsck(dir)
		if err != nil {
			t.Fatal(err)
		}
		// Segments still cover everything: torn snapshot is a fallback note,
		// not corruption.
		if rep.Corrupt || rep.TornTail {
			t.Fatalf("torn snapshot with full segment chain must be clean: %+v", rep)
		}
		if rep.Snapshots != 1 || rep.BadSnapshots != 1 || rep.SnapshotOffset != offs[0] {
			t.Fatalf("torn snapshot accounting: %+v", rep)
		}
	})

	t.Run("snap-plus-segments", func(t *testing.T) {
		dir := t.TempDir()
		offs := mkLog(t, dir, []int{2}, 2)
		rep, err := Fsck(dir)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Corrupt || rep.TornTail || rep.Snapshots != 1 || rep.SnapshotOffset != offs[0] {
			t.Fatalf("snap+segments: %+v", rep)
		}
		if rep.Records != len(sampleRecords())*4 {
			t.Fatalf("records = %d, want %d", rep.Records, len(sampleRecords())*4)
		}
	})

	t.Run("orphaned-pre-snapshot-segment", func(t *testing.T) {
		dir := t.TempDir()
		// Two snapshots then compact: segments wholly below the older
		// retained snapshot are gone, but some pre-snapshot segments may
		// survive (they end past the retained offset). Those orphans are
		// clean — replay simply starts at the snapshot.
		l, err := Open(Options{Dir: dir, Sync: SyncAlways, SegmentBytes: 128})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			mustAppend(t, l, sampleRecords()...)
		}
		off := durableEnd(t, dir)
		if err := l.WriteSnapshot(off, []byte("a")); err != nil {
			t.Fatal(err)
		}
		if err := l.WriteSnapshot(off, []byte("a")); err != nil { // same offset twice: retain==newest
			t.Fatal(err)
		}
		if _, err := l.Compact(); err != nil {
			t.Fatal(err)
		}
		mustAppend(t, l, sampleRecords()...)
		l.Close()
		bases, err := segments(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(bases) == 0 || bases[0] == 0 {
			t.Fatalf("compaction should have deleted the leading segments: %v", bases)
		}
		rep, err := Fsck(dir)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Corrupt || rep.TornTail {
			t.Fatalf("compacted dir with covering snapshot must be clean: %+v", rep)
		}
		if rep.SnapshotOffset != off {
			t.Fatalf("snapshot offset = %d, want %d", rep.SnapshotOffset, off)
		}
	})

	t.Run("compacted-past-coverage", func(t *testing.T) {
		dir := t.TempDir()
		offs := mkLog(t, dir, []int{2}, 2)
		// Delete the snapshot: segments now start at a nonzero base with no
		// covering snapshot — acked state is unreachable.
		l, err := Open(Options{Dir: dir, Sync: SyncAlways, SegmentBytes: 128})
		if err != nil {
			t.Fatal(err)
		}
		if err := l.WriteSnapshot(offs[0], []byte("again")); err != nil {
			t.Fatal(err)
		}
		if _, err := l.Compact(); err != nil {
			t.Fatal(err)
		}
		l.Close()
		for _, p := range [](string){snapPath(dir, offs[0])} {
			if err := os.Remove(p); err != nil {
				t.Fatal(err)
			}
		}
		bases, err := segments(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(bases) == 0 || bases[0] == 0 {
			t.Skip("compaction left a full chain; nothing to orphan")
		}
		rep, err := Fsck(dir)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Corrupt {
			t.Fatalf("segments starting past zero with no snapshot must be corrupt: %+v", rep)
		}
		// Open must refuse too.
		if _, err := Open(Options{Dir: dir, Sync: SyncAlways}); err == nil {
			t.Fatal("Open accepted a log compacted past its snapshot coverage")
		}
	})

	t.Run("segment-gap", func(t *testing.T) {
		dir := t.TempDir()
		l, err := Open(Options{Dir: dir, Sync: SyncAlways, SegmentBytes: 128})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 6; i++ {
			mustAppend(t, l, sampleRecords()...)
		}
		l.Close()
		bases, err := segments(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(bases) < 3 {
			t.Fatalf("want >=3 segments, got %v", bases)
		}
		if err := os.Remove(segPath(dir, bases[1])); err != nil {
			t.Fatal(err)
		}
		rep, err := Fsck(dir)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Corrupt {
			t.Fatalf("a hole in the segment chain must be corrupt: %+v", rep)
		}
	})
}
