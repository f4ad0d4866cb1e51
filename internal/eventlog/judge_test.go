package eventlog

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cosoft/internal/attr"
	"cosoft/internal/couple"
	"cosoft/internal/wire"
)

// buildLog writes rounds of sampleRecords under SyncAlways into a fresh
// directory, with a snapshot at the log's end after each round listed in
// snapAfter (1-based), and returns the directory and the snapshot offsets.
func buildLog(t *testing.T, segBytes int64, rounds int, snapAfter ...int) (dir string, snaps []int64) {
	t.Helper()
	dir = t.TempDir()
	l, err := Open(Options{Dir: dir, Sync: SyncAlways, SegmentBytes: segBytes})
	if err != nil {
		t.Fatal(err)
	}
	for r := 1; r <= rounds; r++ {
		mustAppend(t, l, sampleRecords()...)
		for _, at := range snapAfter {
			if at == r {
				off := durableEnd(t, dir)
				if err := l.WriteSnapshot(off, []byte{byte(r)}); err != nil {
					t.Fatal(err)
				}
				snaps = append(snaps, off)
			}
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return dir, snaps
}

// readDir returns every file in dir by name, with its bytes.
func readDir(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string][]byte)
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = data
	}
	return files
}

func flipByte(t *testing.T, path string, at int64) {
	t.Helper()
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	buf[at] ^= 0xff
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
}

func appendBytes(t *testing.T, path string, b []byte) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write(b); err != nil {
		t.Fatal(err)
	}
}

func removeSegments(t *testing.T, dir string, which func(i, n int) bool) {
	t.Helper()
	bases, err := segments(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range bases {
		if which(i, len(bases)) {
			if err := os.Remove(segPath(dir, b)); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// Open acts on Fsck's judgement over every damaged shape the log and
// snapshot tests build: it succeeds exactly when Fsck reports no corruption,
// a refusal carries Fsck's Detail and leaves every file byte for byte as it
// was, and a directory Open accepted passes Fsck clean afterwards (a torn
// tail truncated, a fresh segment opened at a snapshot past the segments'
// end, nothing else touched).
func TestOpenActsOnFsck(t *testing.T) {
	const (
		clean = iota
		torn
		corrupt
	)
	lastSeg := func(t *testing.T, dir string) string {
		bases, err := segments(dir)
		if err != nil || len(bases) == 0 {
			t.Fatalf("segments = %v, %v", bases, err)
		}
		return segPath(dir, bases[len(bases)-1])
	}
	for _, tc := range []struct {
		name   string
		build  func(t *testing.T) string
		want   int
		detail string // in Fsck's Detail
		// then, if set, runs on the log Open returned, before it is closed.
		then func(t *testing.T, l *Log)
	}{
		{"clean", func(t *testing.T) string {
			dir, _ := buildLog(t, 128, 3)
			return dir
		}, clean, "", nil},
		{"torn tail", func(t *testing.T) string {
			dir, _ := buildLog(t, 0, 1)
			appendBytes(t, lastSeg(t, dir), encodeRecord(sampleRecords()[0])[:recHeader+3])
			return dir
		}, torn, "torn tail", nil},
		{"gap", func(t *testing.T) string {
			dir, _ := buildLog(t, 128, 6)
			removeSegments(t, dir, func(i, n int) bool { return i == 1 })
			return dir
		}, corrupt, "gap in the chain", nil},
		{"uncovered prefix", func(t *testing.T) string {
			dir, _ := buildLog(t, 128, 6)
			removeSegments(t, dir, func(i, n int) bool { return i == 0 })
			return dir
		}, corrupt, "no snapshot covering the compacted prefix", nil},
		{"damage before the tail", func(t *testing.T) string {
			dir, _ := buildLog(t, 128, 6)
			flipByte(t, segPath(dir, 0), recHeader)
			return dir
		}, corrupt, "before the tail segment", nil},
		{"interior damage in the last segment", func(t *testing.T) string {
			// One segment of the four sample records; the third is damaged
			// and the fourth, fsynced and acknowledged, lies intact behind it.
			dir, _ := buildLog(t, 0, 1)
			recs := sampleRecords()
			flipByte(t, segPath(dir, 0), int64(len(encodeRecord(recs[0]))+len(encodeRecord(recs[1]))+recHeader))
			return dir
		}, corrupt, "interior corruption", nil},
		{"snap-only", func(t *testing.T) string {
			dir, _ := buildLog(t, 128, 2, 2)
			removeSegments(t, dir, func(int, int) bool { return true })
			return dir
		}, clean, "", nil},
		{"torn snapshot", func(t *testing.T) string {
			dir, snaps := buildLog(t, 128, 3, 1, 2)
			path := snapPath(dir, snaps[1])
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, data[:len(data)-1], 0o644); err != nil {
				t.Fatal(err)
			}
			return dir
		}, clean, "snapshot file(s) unreadable", nil},
		{"torn snapshot and no segments", func(t *testing.T) string {
			dir, snaps := buildLog(t, 128, 2, 2)
			removeSegments(t, dir, func(int, int) bool { return true })
			if err := os.Truncate(snapPath(dir, snaps[0]), snapHeader); err != nil {
				t.Fatal(err)
			}
			return dir
		}, corrupt, "no segments to replay", nil},
		{"snapshot past the segments", func(t *testing.T) string {
			// The snapshot at the end of two rounds survived a power loss
			// that took the segment bytes behind the first round.
			dir, snaps := buildLog(t, 0, 2, 2)
			if err := os.Truncate(segPath(dir, 0), snaps[0]/2); err != nil {
				t.Fatal(err)
			}
			return dir
		}, clean, "", func(t *testing.T, l *Log) {
			// Appends after the reopen land where replay from the snapshot
			// reads them, and a restart replays every one.
			mustAppend(t, l, sampleRecords()...)
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			l2, err := Open(Options{Dir: l.Dir(), Sync: SyncAlways})
			if err != nil {
				t.Fatal(err)
			}
			defer l2.Close()
			snaps, err := Snapshots(l.Dir())
			if err != nil || len(snaps) != 1 {
				t.Fatalf("Snapshots = %v, %v", snaps, err)
			}
			var got []Record
			if _, err := ReplayDirFrom(l.Dir(), snaps[0].Offset, func(r Record) error {
				got = append(got, r)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if len(got) != len(sampleRecords()) {
				t.Fatalf("the restart replays %d of the %d records appended after the reopen", len(got), len(sampleRecords()))
			}
		}},
		{"torn record carrying a frame", func(t *testing.T) string {
			// The last record was torn in its payload, just behind a string
			// argument that happens to hold a well-formed framed record.
			// That frame is followed by the rest of the payload, not by
			// records to end of file: a torn tail, not corruption.
			dir, _ := buildLog(t, 0, 1)
			inner := encodeRecord(sampleRecords()[1])
			src := couple.ObjectRef{Instance: "editor-1", Path: "/field"}
			outer := encodeRecord(rec(KindEvent, "editor-1", "editor-1:/field", wire.Exec{
				EventID: 9, TargetPath: "/field", Name: "changed", Origin: src,
				Args: []attr.Value{attr.String(string(inner) + "and the rest of the argument")},
			}))
			at := bytes.Index(outer, inner)
			if at < 0 {
				t.Fatal("the frame is not in the record's bytes")
			}
			appendBytes(t, lastSeg(t, dir), outer[:at+len(inner)+4])
			return dir
		}, torn, "torn tail", nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := tc.build(t)
			before := readDir(t, dir)
			rep, err := Fsck(dir)
			if err != nil {
				t.Fatal(err)
			}
			got := clean
			switch {
			case rep.Corrupt:
				got = corrupt
			case rep.TornTail:
				got = torn
			}
			if got != tc.want {
				t.Fatalf("Fsck: %+v; want verdict %d (clean 0, torn 1, corrupt 2)", rep, tc.want)
			}
			if !strings.Contains(rep.Detail, tc.detail) {
				t.Fatalf("Fsck Detail %q, want it to say %q", rep.Detail, tc.detail)
			}
			l, err := Open(Options{Dir: dir, Sync: SyncAlways})
			if rep.Corrupt {
				if err == nil {
					l.Close()
					t.Fatalf("Open accepted a directory Fsck calls corrupt: %s", rep.Detail)
				}
				if !strings.Contains(err.Error(), rep.Detail) {
					t.Fatalf("Open's refusal %q does not carry Fsck's Detail %q", err, rep.Detail)
				}
				after := readDir(t, dir)
				if len(after) != len(before) {
					t.Fatalf("refused Open changed the directory: %d files, had %d", len(after), len(before))
				}
				for name, data := range before {
					if !bytes.Equal(after[name], data) {
						t.Fatalf("refused Open changed %s: %d bytes, had %d", name, len(after[name]), len(data))
					}
				}
				return
			}
			if err != nil {
				t.Fatalf("Open refused a directory Fsck passes (%+v): %v", rep, err)
			}
			if tc.then != nil {
				tc.then(t, l)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			if rep, err = Fsck(dir); err != nil || rep.Corrupt || rep.TornTail {
				t.Fatalf("Fsck after Open: %+v, %v; want clean", rep, err)
			}
		})
	}
}

// Damage in a segment that is not the last is an error to a reader of the
// directory, not the clean stop a torn tail is: the records behind it were
// acknowledged, and the reader — the snapshotter's fold, or a restore — must
// not take the prefix for the whole log.
func TestReplayDirFromDamageBeforeTail(t *testing.T) {
	dir, _ := buildLog(t, 128, 6)
	flipByte(t, segPath(dir, 0), recHeader)
	n := 0
	end, err := ReplayDirFrom(dir, 0, func(Record) error { n++; return nil })
	if err == nil || !strings.Contains(err.Error(), "before the tail segment") {
		t.Fatalf("ReplayDirFrom over damage before the tail: %v after %d records, want an error", err, n)
	}
	if n != 0 || end != 0 {
		t.Fatalf("ReplayDirFrom visited %d records and stopped at %d, want 0 and 0", n, end)
	}
}

// The residual the judgement leaves: a record whose CRC holds but whose
// payload does not decode. Fsck and Open read framing only, so both pass it;
// replay stops at it with an error, after the records before it.
func TestUndecodableRecordPassesFsck(t *testing.T) {
	dir, _ := buildLog(t, 0, 1)
	payload := []byte{byte(KindDeclare), 0xff} // an origin length past the payload
	frame := seal(append(make([]byte, recHeader), payload...), 0)
	appendBytes(t, segPath(dir, 0), frame)
	rep, err := Fsck(dir)
	if err != nil || rep.Corrupt || rep.TornTail || rep.Records != len(sampleRecords())+1 {
		t.Fatalf("Fsck: %+v, %v; want clean with the undecodable record counted", rep, err)
	}
	l, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	n := 0
	end, err := ReplayDirFrom(dir, 0, func(Record) error { n++; return nil })
	if err == nil || n != len(sampleRecords()) || end != rep.Bytes-int64(len(frame)) {
		t.Fatalf("ReplayDirFrom: %v after %d records at %d; want an error after %d at %d",
			err, n, end, len(sampleRecords()), rep.Bytes-int64(len(frame)))
	}
}
