package eventlog

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"testing/quick"
	"time"

	"cosoft/internal/attr"
	"cosoft/internal/clock"
	"cosoft/internal/couple"
	"cosoft/internal/faultdisk"
	"cosoft/internal/obs"
	"cosoft/internal/wire"
)

func rec(kind Kind, origin, group string, msg wire.Message) Record {
	return Record{Kind: kind, Origin: origin, Group: group, Env: wire.Envelope{Msg: msg}}
}

func sampleRecords() []Record {
	return []Record{
		rec(KindRegister, "editor-1", "", wire.Register{AppType: "editor", Host: "h", User: "u"}),
		rec(KindDeclare, "editor-1", "", wire.Declare{Path: "/field", Class: "text"}),
		rec(KindEvent, "editor-1", "editor-1|/field", wire.Exec{
			EventID:    1,
			TargetPath: "/field",
			Name:       "changed",
			Args:       []attr.Value{attr.String("x")},
			Origin:     couple.ObjectRef{Instance: "editor-1", Path: "/field"},
		}),
		rec(KindToken, "editor-1", "", wire.SessionToken{Token: "deadbeef"}),
	}
}

func replayAll(t *testing.T, dir string) []Record {
	t.Helper()
	var got []Record
	if err := ReplayDir(dir, func(r Record) error {
		got = append(got, r)
		return nil
	}); err != nil {
		t.Fatalf("replay: %v", err)
	}
	return got
}

// segments lists the segment base offsets in dir, ascending.
func segments(dir string) ([]int64, error) {
	ls, err := list(dir)
	return ls.segs, err
}

func checkRecords(t *testing.T, got, want []Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Kind != want[i].Kind || got[i].Origin != want[i].Origin || got[i].Group != want[i].Group {
			t.Fatalf("record %d: got %+v want %+v", i, got[i], want[i])
		}
		if got[i].Env.Msg.MsgType() != want[i].Env.Msg.MsgType() {
			t.Fatalf("record %d: msg type %v want %v", i, got[i].Env.Msg.MsgType(), want[i].Env.Msg.MsgType())
		}
	}
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	want := sampleRecords()
	for _, r := range want {
		if err := l.Append(r); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	checkRecords(t, replayAll(t, dir), want)
}

// Reopening a cleanly closed log appends after the existing records.
func TestReopenAppends(t *testing.T) {
	dir := t.TempDir()
	want := sampleRecords()
	l, err := Open(Options{Dir: dir, Sync: SyncInterval})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range want[:2] {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	l, err = Open(Options{Dir: dir, Sync: SyncInterval})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range want[2:] {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	checkRecords(t, replayAll(t, dir), want)
}

// Small SegmentBytes forces rotation; replay still sees one ordered stream
// and segment names are the cumulative base offsets.
func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, Sync: SyncNone, SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	var want []Record
	for i := 0; i < 20; i++ {
		r := rec(KindDeclare, "editor-1", "", wire.Declare{Path: "/field", Class: "text"})
		want = append(want, r)
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	bases, err := segments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(bases) < 2 {
		t.Fatalf("expected rotation, got %d segments", len(bases))
	}
	var off int64
	for _, base := range bases {
		if base != off {
			t.Fatalf("segment base %d, want cumulative offset %d", base, off)
		}
		st, err := os.Stat(segPath(dir, base))
		if err != nil {
			t.Fatal(err)
		}
		off += st.Size()
	}
	checkRecords(t, replayAll(t, dir), want)
}

// A torn tail — trailing garbage after the last good record — is truncated
// on open, counted in server.log.truncated_tail, and appends continue from
// the good prefix.
func TestTornTailTruncation(t *testing.T) {
	dir := t.TempDir()
	want := sampleRecords()
	l, err := Open(Options{Dir: dir, Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range want {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	path := segPath(dir, 0)
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Half a record: header plus a few payload bytes of a final append that
	// never completed.
	torn := append(append([]byte{}, good...), encodeRecord(want[0])[:recHeader+3]...)
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	l, err = Open(Options{Dir: dir, Sync: SyncAlways, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("server.log.truncated_tail").Value(); got != 1 {
		t.Fatalf("truncated_tail = %d, want 1", got)
	}
	extra := rec(KindRetract, "editor-1", "", wire.Retract{Path: "/field"})
	if err := l.Append(extra); err != nil {
		t.Fatal(err)
	}
	l.Close()
	checkRecords(t, replayAll(t, dir), append(want, extra))
}

// A record whose CRC does not match is the end of replay — bytes after it
// are never surfaced.
func TestCorruptRecordStopsReplay(t *testing.T) {
	dir := t.TempDir()
	want := sampleRecords()
	l, err := Open(Options{Dir: dir, Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range want {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	path := segPath(dir, 0)
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte of the second record.
	firstLen := int64(len(encodeRecord(want[0])))
	buf[firstLen+recHeader] ^= 0xff
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	got := replayAll(t, dir)
	checkRecords(t, got, want[:1])
}

func TestSyncPolicyFsyncCounts(t *testing.T) {
	// always: one fsync per (group-committed) append batch. Sequential
	// appends → one fsync each.
	reg := obs.NewRegistry()
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, Sync: SyncAlways, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range sampleRecords() {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if got := reg.Counter("server.log.fsyncs").Value(); got != 4 {
		t.Fatalf("always: fsyncs = %d, want 4", got)
	}
	if got := reg.Counter("server.log.appends").Value(); got != 4 {
		t.Fatalf("appends = %d, want 4", got)
	}
	l.Close()

	// interval: appends return without fsync; the ticker (or close) flushes.
	// The clock never advances, so only close does.
	reg = obs.NewRegistry()
	dir = t.TempDir()
	l, err = Open(Options{Dir: dir, Sync: SyncInterval, Clock: clock.NewManual(), Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range sampleRecords() {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if got := reg.Counter("server.log.fsyncs").Value(); got != 0 {
		t.Fatalf("interval: fsyncs = %d before close, want 0", got)
	}
	l.Close()
	if got := reg.Counter("server.log.fsyncs").Value(); got != 1 {
		t.Fatalf("interval: fsyncs = %d after close, want 1", got)
	}

	// none: never.
	reg = obs.NewRegistry()
	dir = t.TempDir()
	l, err = Open(Options{Dir: dir, Sync: SyncNone, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range sampleRecords() {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	if got := reg.Counter("server.log.fsyncs").Value(); got != 0 {
		t.Fatalf("none: fsyncs = %d, want 0", got)
	}
}

// A failed write or fsync at every boundary: the failed append errors, later
// appends fail too, and reopening the dir recovers exactly the records whose
// durability boundary completed.
func TestCrashPoints(t *testing.T) {
	want := sampleRecords()
	for op := 1; ; op++ {
		for _, partial := range []int{0, 3, recHeader + 1} {
			dir := t.TempDir()
			disk := &faultdisk.Disk{}
			l, err := Open(Options{Dir: dir, Sync: SyncAlways, FS: disk})
			if err != nil {
				t.Fatal(err)
			}
			disk.Arm(faultdisk.Fault{Class: faultdisk.Segment, At: op, Partial: partial})
			appended := 0
			for _, r := range want {
				if err := l.Append(r); err != nil {
					break
				}
				appended++
			}
			fired := disk.Fired()
			l.Close()
			if !fired {
				if appended != len(want) {
					t.Fatalf("op %d: crash never fired but only %d appends succeeded", op, appended)
				}
				if op <= 1 {
					t.Fatal("crash point 1 did not fire")
				}
				t.Logf("swept %d boundaries", op-1)
				return // swept past the last boundary
			}
			got := replayAll(t, dir)
			// Sequential appends under SyncAlways: 2 boundaries per record.
			// A crash at record k's write boundary leaves at most a torn
			// tail (replay skips it); a crash at its fsync boundary leaves
			// the record fully written — durable in this test model even
			// though the append errored. Either way the durable set is a
			// clean prefix no shorter than the acked count.
			if len(got) < appended || len(got) > appended+1 {
				t.Fatalf("op %d partial %d: %d durable records for %d acked appends", op, partial, len(got), appended)
			}
			checkRecords(t, got, want[:len(got)])
			// The dir must also reopen cleanly (truncating any torn tail).
			l2, err := Open(Options{Dir: dir, Sync: SyncAlways})
			if err != nil {
				t.Fatalf("op %d partial %d: reopen after crash: %v", op, partial, err)
			}
			l2.Close()
		}
	}
}

func TestFsck(t *testing.T) {
	dir := t.TempDir()
	want := sampleRecords()
	l, err := Open(Options{Dir: dir, Sync: SyncAlways, SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range want {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	rep, err := Fsck(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Records != len(want) || rep.Corrupt || rep.TornTail {
		t.Fatalf("clean fsck: %+v", rep)
	}
	if rep.Segments < 2 {
		t.Fatalf("expected rotated segments, got %d", rep.Segments)
	}

	// Torn tail in the last segment: reported as TornTail, not Corrupt.
	bases, _ := segments(dir)
	last := segPath(dir, bases[len(bases)-1])
	f, err := os.OpenFile(last, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{1, 2, 3})
	f.Close()
	rep, err = Fsck(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.TornTail || rep.Corrupt || rep.Records != len(want) {
		t.Fatalf("torn fsck: %+v", rep)
	}

	// Damage in an earlier segment: Corrupt.
	first := segPath(dir, bases[0])
	buf, _ := os.ReadFile(first)
	buf[recHeader] ^= 0xff
	os.WriteFile(first, buf, 0o644)
	rep, err = Fsck(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Corrupt {
		t.Fatalf("corrupt fsck: %+v", rep)
	}
}

// TestFsckInteriorCorruption distinguishes a flipped byte mid-segment from a
// crash tear: intact records resync behind the damage, so fsck must report
// Corrupt (acked records unreadable), not a clean TornTail.
func TestFsckInteriorCorruption(t *testing.T) {
	dir := t.TempDir()
	want := sampleRecords()
	l, err := Open(Options{Dir: dir, Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range want {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	bases, _ := segments(dir)
	path := segPath(dir, bases[0])
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte of the second record: records one and three stay
	// intact, so a resync exists behind the break.
	buf[len(buf)/2] ^= 0xff
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := Fsck(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Corrupt || rep.TornTail {
		t.Fatalf("interior corruption fsck: %+v", rep)
	}
	if !strings.Contains(rep.Detail, "interior corruption") {
		t.Fatalf("detail: %q", rep.Detail)
	}
}

func TestParseSync(t *testing.T) {
	for s, want := range map[string]Sync{"always": SyncAlways, "interval": SyncInterval, "none": SyncNone} {
		got, err := ParseSync(s)
		if err != nil || got != want {
			t.Fatalf("ParseSync(%q) = %v, %v", s, got, err)
		}
		if got.String() != s {
			t.Fatalf("String() = %q, want %q", got.String(), s)
		}
	}
	if _, err := ParseSync("sometimes"); err == nil {
		t.Fatal("ParseSync accepted garbage")
	}
}

// Concurrent appenders must all land durably and replay in one total order.
func TestConcurrentAppend(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	const writers, per = 8, 25
	errc := make(chan error, writers)
	for w := 0; w < writers; w++ {
		go func(w int) {
			for i := 0; i < per; i++ {
				r := rec(KindDeclare, "editor-1", "", wire.Declare{Path: filepath.Join("/w", string(rune('a'+w))), Class: "text"})
				if err := l.Append(r); err != nil {
					errc <- err
					return
				}
			}
			errc <- nil
		}(w)
	}
	for w := 0; w < writers; w++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	if got := replayAll(t, dir); len(got) != writers*per {
		t.Fatalf("replayed %d records, want %d", len(got), writers*per)
	}
}

// ReplayDir is ReplayDirFrom offset zero: on a clean directory, on one whose
// tail segment ends in a torn record, and on one damaged in the middle of an
// earlier segment, both visit the same records and stop at the same byte —
// the first damage, with no resync into a later segment. Damage before the
// tail segment is an error; a torn tail is a clean stop.
func TestReplayDirIsReplayDirFromZero(t *testing.T) {
	recs := append(sampleRecords(), sampleRecords()...)
	size := func(rs []Record) (n int64) {
		for _, r := range rs {
			n += int64(len(encodeRecord(r)))
		}
		return n
	}
	for _, tc := range []struct {
		name    string
		damage  func(t *testing.T, dir string, bases []int64)
		want    int  // records both readers visit
		wantErr bool // both readers report the damage
	}{
		{"clean", func(*testing.T, string, []int64) {}, len(recs), false},
		{"torn tail", func(t *testing.T, dir string, bases []int64) {
			f, err := os.OpenFile(segPath(dir, bases[len(bases)-1]), os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			if _, err := f.Write(encodeRecord(recs[0])[:recHeader+3]); err != nil {
				t.Fatal(err)
			}
		}, len(recs), false},
		{"mid-segment damage", func(t *testing.T, dir string, bases []int64) {
			// Flip a payload byte of the second record of the first segment:
			// the rest of that segment and every later one go unread.
			path := segPath(dir, bases[0])
			buf, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			buf[size(recs[:1])+recHeader] ^= 0xff
			if err := os.WriteFile(path, buf, 0o644); err != nil {
				t.Fatal(err)
			}
		}, 1, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			// Two records per segment, so damage in the first segment has
			// intact segments behind it.
			l, err := Open(Options{Dir: dir, Sync: SyncAlways, SegmentBytes: size(recs[:2])})
			if err != nil {
				t.Fatal(err)
			}
			mustAppend(t, l, recs...)
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			bases, err := segments(dir)
			if err != nil || len(bases) < 3 {
				t.Fatalf("segments = %v, %v; want at least 3", bases, err)
			}
			tc.damage(t, dir, bases)

			var viaDir, viaFrom []Record
			dirErr := ReplayDir(dir, func(r Record) error {
				viaDir = append(viaDir, r)
				return nil
			})
			end, err := ReplayDirFrom(dir, 0, func(r Record) error {
				viaFrom = append(viaFrom, r)
				return nil
			})
			for _, err := range []error{dirErr, err} {
				if (err != nil) != tc.wantErr {
					t.Fatalf("replay error %v, want one: %v", err, tc.wantErr)
				}
			}
			checkRecords(t, viaDir, recs[:tc.want])
			checkRecords(t, viaFrom, recs[:tc.want])
			if want := size(recs[:tc.want]); end != want {
				t.Fatalf("ReplayDirFrom stopped at byte %d, want %d", end, want)
			}
		})
	}
}

// An append on a closed log is refused with ErrClosed at once. The append
// used to race the writer's exit: its send to a buffered channel could win
// over the quit signal after the writer had gone, and it then waited forever
// for an answer.
func TestAppendAfterClose(t *testing.T) {
	l, err := Open(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	r := sampleRecords()[0]
	for i := 0; i < 1000; i++ {
		errc := make(chan error, 1)
		go func() { errc <- l.Append(r) }()
		select {
		case err := <-errc:
			if !errors.Is(err, ErrClosed) {
				t.Fatalf("append %d after Close: %v, want ErrClosed", i, err)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("append %d after Close still waiting after 2s", i)
		}
	}
	se := wire.NewSharedExec(1, "changed", nil, couple.ObjectRef{Instance: "a-1", Path: "/x"})
	defer se.Release()
	if err := l.AppendEvent(couple.ObjectRef{Instance: "a-1", Path: "/x"}, se); !errors.Is(err, ErrClosed) {
		t.Fatalf("event append after Close: %v, want ErrClosed", err)
	}
}

// An event's record written from the broadcast's shared body is byte for
// byte the record Append writes for the materialized Exec, for any payload
// and wherever it lands in the fill buffer.
func TestEventRecordBytes(t *testing.T) {
	f := func(inst, path, name string, id uint64, ints []int64, strs []string, flag bool, pad uint8) bool {
		src := couple.ObjectRef{Instance: couple.InstanceID(inst), Path: path}
		args := []attr.Value{attr.Bool(flag)}
		for _, n := range ints {
			args = append(args, attr.Int(n))
		}
		for _, s := range strs {
			args = append(args, attr.String(s))
		}
		args = append(args, attr.StringList(strs...))
		se := wire.NewSharedExec(id, name, args, src)
		defer se.Release()
		want := encodeRecord(Record{Kind: KindEvent, Origin: inst, Group: inst + ":" + path,
			Env: wire.Envelope{Msg: se.Exec(path)}})
		prefix := bytes.Repeat([]byte{0xa5}, int(pad))
		got := appendEventRecord(prefix, src, se)
		if !bytes.Equal(got[:len(prefix)], prefix) || !bytes.Equal(got[len(prefix):], want) {
			t.Logf("got  %x\nwant %x", got[len(prefix):], want)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// An event's record never waits: AppendEvent queues it behind every record
// appended before it, and the records replay in append order, interleaved
// with Append's records in the order the appends came.
func TestAppendEventOrder(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	src := couple.ObjectRef{Instance: "editor-1", Path: "/field"}
	var want []Record
	for id := uint64(1); id <= 5; id++ {
		se := wire.NewSharedExec(id, "changed", []attr.Value{attr.Int(int64(id))}, src)
		err := l.AppendEvent(src, se)
		want = append(want, Record{Kind: KindEvent, Origin: "editor-1", Group: "editor-1:/field", Env: wire.Envelope{Msg: se.Exec(src.Path)}})
		se.Release()
		if err != nil {
			t.Fatalf("append %d: %v", id, err)
		}
		if id == 3 {
			r := rec(KindDeclare, "editor-1", "", wire.Declare{Path: "/other", Class: "text"})
			mustAppend(t, l, r)
			want = append(want, r)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got := replayAll(t, dir)
	checkRecords(t, got, want)
	for i := range got {
		if !bytes.Equal(encodeRecord(got[i]), encodeRecord(want[i])) {
			t.Fatalf("record %d replays as %+v, want %+v", i, got[i], want[i])
		}
	}
}

// A held write does not hold AppendEvent: its records wait in the fill and
// land once the write is let go. After a failed write every append is
// refused at once, with the failure.
func TestAppendEventRefusals(t *testing.T) {
	dir := t.TempDir()
	disk := &faultdisk.Disk{}
	l, err := Open(Options{Dir: dir, Sync: SyncAlways, FS: disk})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	src := couple.ObjectRef{Instance: "editor-1", Path: "/field"}
	se := wire.NewSharedExec(1, "changed", nil, src)
	defer se.Release()

	hold := disk.Hold(faultdisk.Segment, faultdisk.OpWrite)
	for i := 0; i < 3; i++ {
		if err := l.AppendEvent(src, se); err != nil {
			t.Fatal(err)
		}
	}
	appended := make(chan error, 1)
	go func() {
		appended <- l.Append(rec(KindDeclare, "editor-1", "", wire.Declare{Path: "/other", Class: "text"}))
	}()
	select {
	case err := <-appended:
		t.Fatalf("Append returned %v through a held write", err)
	case <-time.After(20 * time.Millisecond):
	}
	hold.Release()
	if err := <-appended; err != nil {
		t.Fatal(err)
	}
	if n := len(replayAll(t, dir)); n != 4 {
		t.Fatalf("%d records landed once the write was let go, want 4", n)
	}

	disk.Arm(faultdisk.Fault{Class: faultdisk.Segment, At: 1})
	if err := l.AppendEvent(src, se); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(sampleRecords()[0]); !errors.Is(err, syscall.EIO) {
		t.Fatalf("append through the failed write: %v, want EIO", err)
	}
	if err := l.AppendEvent(src, se); !errors.Is(err, syscall.EIO) {
		t.Fatalf("event append after the failure: %v, want EIO", err)
	}
	if err := l.Append(sampleRecords()[0]); !errors.Is(err, syscall.EIO) {
		t.Fatalf("append after the failure: %v, want EIO", err)
	}
	if n := len(replayAll(t, dir)); n != 4 {
		t.Fatalf("%d records replay after the failed write, want the 4 before it", n)
	}
}

// Event appenders and blocking appenders running at once each keep their own
// order, and everything appended before Close replays.
func TestConcurrentAppendEvent(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, Sync: SyncInterval})
	if err != nil {
		t.Fatal(err)
	}
	const appenders, per = 4, 200
	var wg sync.WaitGroup
	for w := 0; w < appenders; w++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			src := couple.ObjectRef{Instance: couple.InstanceID(fmt.Sprintf("events-%d", w)), Path: "/x"}
			for i := uint64(1); i <= per; i++ {
				se := wire.NewSharedExec(i, "changed", nil, src)
				err := l.AppendEvent(src, se)
				se.Release()
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < per/10; i++ {
				if err := l.Append(rec(KindDeclare, fmt.Sprintf("blocking-%d", w), "", wire.Declare{Path: "/y", Class: "text"})); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	next := make(map[string]uint64)
	n := 0
	for _, r := range replayAll(t, dir) {
		n++
		if r.Kind != KindEvent {
			continue
		}
		id := r.Env.Msg.(wire.Exec).EventID
		if want := next[r.Origin] + 1; id != want {
			t.Fatalf("%s: record %d replays where %d belongs", r.Origin, id, want)
		}
		next[r.Origin] = id
	}
	if want := appenders*per + appenders*per/10; n != want {
		t.Fatalf("replayed %d records, want %d", n, want)
	}
}

// A record whose payload is larger than replay reads back would be taken for
// a torn tail, and reopening the log would truncate the segment there with
// every record behind it. Append and AppendEvent refuse such a record
// instead: nothing is written and the log keeps serving, so the records
// appended around it replay and a reopen truncates nothing.
func TestOversizedRecordRefused(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	src := couple.ObjectRef{Instance: "editor-1", Path: "/field"}
	// The argument of an Event that still fits in one frame.
	big := []attr.Value{attr.String(strings.Repeat("x", wire.MaxFrame-30))}
	before := rec(KindDeclare, "editor-1", "", wire.Declare{Path: "/field", Class: "text"})
	after := rec(KindDeclare, "editor-1", "", wire.Declare{Path: "/other", Class: "text"})
	if err := l.Append(before); err != nil {
		t.Fatal(err)
	}
	oversized := rec(KindEvent, "editor-1", "editor-1:/field", wire.Exec{EventID: 1, TargetPath: "/field", Name: "changed", Args: big, Origin: src})
	if err := l.Append(oversized); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("Append of an oversized record: %v, want ErrTooLarge", err)
	}
	se := wire.NewSharedExec(2, "changed", big, src)
	if err := l.AppendEvent(src, se); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("AppendEvent of an oversized record: %v, want ErrTooLarge", err)
	}
	se.Release()
	if err := l.Append(after); err != nil {
		t.Fatalf("append after a refused record: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	checkRecords(t, replayAll(t, dir), []Record{before, after})

	reg := obs.NewRegistry()
	l, err = Open(Options{Dir: dir, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	if got := reg.Counter("server.log.truncated_tail").Value(); got != 0 {
		t.Fatalf("reopen truncated %d torn tails, want 0", got)
	}
	checkRecords(t, replayAll(t, dir), []Record{before, after})
}

// A failed interval fsync fails the log closed. It is never retried: a
// retried fsync can report success after the kernel dropped the pages the
// failed one covered. The next append is refused with it, and Close reports
// it, since the records it covered were acknowledged before it failed.
func TestIntervalFsyncFailure(t *testing.T) {
	disk := &faultdisk.Disk{}
	clk := clock.NewManual()
	l, err := Open(Options{Dir: t.TempDir(), Sync: SyncInterval, Clock: clk, FS: disk})
	if err != nil {
		t.Fatal(err)
	}
	hold := disk.Hold(faultdisk.Segment, faultdisk.OpSync)
	mustAppend(t, l, sampleRecords()[0])
	clk.Advance(syncEvery)
	<-hold.Reached()
	disk.Arm(faultdisk.Fault{Class: faultdisk.Segment, At: 1})
	hold.Release()
	if err := l.Append(sampleRecords()[1]); !errors.Is(err, syscall.EIO) {
		t.Fatalf("append after the failed fsync: %v, want EIO", err)
	}
	if err := l.Close(); !errors.Is(err, syscall.EIO) {
		t.Fatalf("Close after the failed fsync: %v, want EIO", err)
	}
}

// An interval fsync covers every record queued when its tick fires: the
// writer drains before it fsyncs, so a record queued behind a drain in
// progress is written before the fsync, not left waiting behind it. Each
// round holds a drain's write, queues one more record behind it, fires the
// tick and lets the write go; when the fsync is entered, every record must
// be written. A writer that took the tick and the queued record's wake-up in
// whichever order it found them would fail each round half the time.
func TestIntervalFsyncCoversQueuedRecords(t *testing.T) {
	reg := obs.NewRegistry()
	disk := &faultdisk.Disk{}
	clk := clock.NewManual()
	l, err := Open(Options{Dir: t.TempDir(), Sync: SyncInterval, Clock: clk, FS: disk, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	src := couple.ObjectRef{Instance: "editor-1", Path: "/field"}
	se := wire.NewSharedExec(1, "changed", nil, src)
	defer se.Release()
	appends := reg.Counter("server.log.appends")
	reached := func(h *faultdisk.Hold, what string) {
		t.Helper()
		select {
		case <-h.Reached():
		case <-time.After(5 * time.Second):
			h.Release()
			t.Fatalf("no %s reached the disk", what)
		}
	}
	queued := uint64(0)
	for round := 0; round < 16; round++ {
		writes := disk.Hold(faultdisk.Segment, faultdisk.OpWrite)
		for i := 0; i < 2; i++ {
			if err := l.AppendEvent(src, se); err != nil {
				t.Fatal(err)
			}
			queued++
			if i == 0 {
				reached(writes, "drain")
			}
		}
		clk.Advance(syncEvery)
		fsync := disk.Hold(faultdisk.Segment, faultdisk.OpSync)
		writes.Release()
		reached(fsync, "interval fsync")
		got := appends.Value()
		fsync.Release()
		if got != queued {
			t.Fatalf("round %d: the interval fsync began with %d of the %d queued records written", round, got, queued)
		}
	}
}

// The one residual window: when a drain's fsync fails and the truncate that
// would cut it back fails too, its record stays in the segment, so a restart
// replays a record whose append was refused. The log still fails closed, and
// the refusal names both failures.
func TestFailedTruncateKeepsDrain(t *testing.T) {
	dir := t.TempDir()
	disk := &faultdisk.Disk{}
	l, err := Open(Options{Dir: dir, Sync: SyncAlways, FS: disk})
	if err != nil {
		t.Fatal(err)
	}
	recs := sampleRecords()
	mustAppend(t, l, recs[0])
	// The next record's write is operation 1 and its fsync operation 2: a
	// crash there fails the truncate behind it as well.
	disk.Arm(faultdisk.Fault{Class: faultdisk.Segment, At: 2, Crash: true})
	if err := l.Append(recs[1]); !errors.Is(err, faultdisk.ErrCrashed) || !strings.Contains(err.Error(), "truncate") {
		t.Fatalf("append through the failed fsync: %v, want the fsync's and the truncate's failure", err)
	}
	if err := l.Append(recs[2]); !errors.Is(err, faultdisk.ErrCrashed) {
		t.Fatalf("append after the failure: %v, want it refused", err)
	}
	l.Close()
	checkRecords(t, replayAll(t, dir), recs[:2])
}

// encodeRecord frames one record for disk.
func encodeRecord(r Record) []byte { return appendRecord(nil, r) }
