// Snapshots and compaction: a side `%016x.snap` file captures the server's
// full replayable state as of a log byte offset, so restart replay begins at
// the newest valid snapshot instead of offset zero, and segments every byte
// of which is older than a retained snapshot can be deleted.
//
// Snapshot file layout (one per file, named by the offset it captures):
//
//	[4-byte magic "CSNP"][u8 version][u64 offset][u32 payload len][u32 crc32c][payload]
//
// The payload is opaque to this package — the server encodes its own state
// into it. Crash safety comes from ordering, not locking: the payload is
// written to a `.snap.tmp` file, fsynced, renamed into place, and the
// directory fsynced. A crash before the rename leaves only a temp file that
// Open sweeps away; a crash after it leaves a fully-durable snapshot. Two
// snapshots are always retained so replay can fall back past a newest
// snapshot whose CRC fails.
package eventlog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

const (
	snapSuffix  = ".snap"
	snapMagic   = "CSNP"
	snapVersion = 1
	snapHeader  = 4 + 1 + 8 + 4 + 4 // magic + version + offset + len + crc
)

// SnapshotRef is one durable snapshot: the log byte offset its payload
// captures state up to, plus the payload itself.
type SnapshotRef struct {
	Offset  int64
	Payload []byte
}

func snapPath(dir string, offset int64) string {
	return filepath.Join(dir, fmt.Sprintf("%016x%s", offset, snapSuffix))
}

// Dir returns the log directory (read-only access for offline fold replay).
func (l *Log) Dir() string { return l.dir }

// Snapshots returns the valid snapshots in a log directory, newest first,
// without opening it. Torn or CRC-damaged snapshot files are skipped: the
// caller falls back to the next entry, then to a full replay from offset
// zero. It takes no lock against a live log's WriteSnapshot and Compact: a
// snapshot appears by rename and goes by unlink, so a concurrent reader sees
// each file whole or not at all.
func Snapshots(dir string) ([]SnapshotRef, error) {
	valid, _, err := snapshotInfos(dir)
	return valid, err
}

// WriteSnapshot durably publishes a snapshot of the state up to offset. The
// ordering — write temp, fsync temp, rename, fsync directory — guarantees a
// crash at any point leaves either no new snapshot (temp files are swept on
// Open) or a complete one; a half-written file can never shadow an older
// valid snapshot. Concurrent with appends (touches no segment files); safe
// from any goroutine.
func (l *Log) WriteSnapshot(offset int64, payload []byte) error {
	if err := l.snapBegin(); err != nil {
		return err
	}
	defer l.snapWG.Done()
	l.snapMu.Lock()
	defer l.snapMu.Unlock()

	buf := encodeSnapshotFile(offset, payload)
	final := snapPath(l.dir, offset)
	tmp := final + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("eventlog: snapshot: %w", err)
	}
	// Crash boundary: the temp write.
	if partial, fire := l.snapBoundary(); fire {
		if partial > len(buf) {
			partial = len(buf)
		}
		if partial > 0 {
			f.Write(buf[:partial])
		}
		f.Close()
		return ErrCrashed
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("eventlog: snapshot write: %w", err)
	}
	// Crash boundary: the temp fsync.
	if _, fire := l.snapBoundary(); fire {
		f.Close()
		return ErrCrashed
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("eventlog: snapshot fsync: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("eventlog: snapshot: %w", err)
	}
	// Test hook: hold here, fully written but not yet promoted, until
	// released — or abandon if the log is closing under us.
	if gate := l.gate(); gate != nil {
		select {
		case <-gate:
		case <-l.quit:
			os.Remove(tmp)
			return ErrClosed
		}
	}
	if l.quitting() {
		os.Remove(tmp)
		return ErrClosed
	}
	// Crash boundary: the rename that promotes the snapshot.
	if _, fire := l.snapBoundary(); fire {
		return ErrCrashed // un-promoted temp file; Open sweeps it
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("eventlog: snapshot rename: %w", err)
	}
	// Crash boundary: the directory fsync that makes the rename durable.
	if _, fire := l.snapBoundary(); fire {
		return ErrCrashed
	}
	if err := syncDir(l.dir); err != nil {
		return err
	}
	l.mSnapshots.Inc()
	l.mSnapBytes.Add(uint64(len(payload)))
	return nil
}

// Compact deletes state made redundant by durable snapshots: snapshot files
// older than the two newest valid ones, and segments every byte of which is
// older than the oldest retained snapshot. Deletions run oldest-first so a
// crash at any boundary leaves a contiguous replayable suffix. The
// highest-base segment is never deleted — the writer holds it open for
// append. Returns the number of segments removed.
func (l *Log) Compact() (int, error) {
	if err := l.snapBegin(); err != nil {
		return 0, err
	}
	defer l.snapWG.Done()
	l.snapMu.Lock()
	defer l.snapMu.Unlock()

	valid, bad, err := snapshotInfos(l.dir)
	if err != nil {
		return 0, err
	}
	if len(valid) == 0 {
		return 0, nil
	}
	keep := 2
	if len(valid) < keep {
		keep = len(valid)
	}
	retain := valid[keep-1].Offset
	del := func(path string) error {
		if l.quitting() {
			return ErrClosed
		}
		// Crash boundary: one unlink.
		if _, fire := l.snapBoundary(); fire {
			return ErrCrashed
		}
		if err := os.Remove(path); err != nil {
			return fmt.Errorf("eventlog: compact: %w", err)
		}
		return nil
	}
	for i := len(valid) - 1; i >= keep; i-- {
		if err := del(snapPath(l.dir, valid[i].Offset)); err != nil {
			return 0, err
		}
	}
	for _, off := range bad {
		if off < retain {
			if err := del(snapPath(l.dir, off)); err != nil {
				return 0, err
			}
		}
	}
	bases, err := segments(l.dir)
	if err != nil {
		return 0, err
	}
	removed := 0
	for i := 0; i < len(bases)-1; i++ {
		// A segment's end is the next segment's base (bases are cumulative
		// byte offsets); delete only when every byte predates the oldest
		// retained snapshot.
		if bases[i+1] > retain {
			break
		}
		if err := del(segPath(l.dir, bases[i])); err != nil {
			return removed, err
		}
		removed++
	}
	// Crash boundary: the directory fsync sealing the deletions.
	if _, fire := l.snapBoundary(); fire {
		return removed, ErrCrashed
	}
	if err := syncDir(l.dir); err != nil {
		return removed, err
	}
	l.mCompacted.Add(uint64(removed))
	return removed, nil
}

// encodeSnapshotFile frames one snapshot file image.
func encodeSnapshotFile(offset int64, payload []byte) []byte {
	buf := make([]byte, snapHeader, snapHeader+len(payload))
	copy(buf[0:4], snapMagic)
	buf[4] = snapVersion
	binary.LittleEndian.PutUint64(buf[5:13], uint64(offset))
	binary.LittleEndian.PutUint32(buf[13:17], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[17:21], crc32.Checksum(payload, crcTable))
	return append(buf, payload...)
}

// readSnapshotFile loads and validates one snapshot file.
func readSnapshotFile(path string) (SnapshotRef, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return SnapshotRef{}, fmt.Errorf("eventlog: %w", err)
	}
	if len(data) < snapHeader {
		return SnapshotRef{}, errors.New("eventlog: snapshot truncated")
	}
	if string(data[0:4]) != snapMagic {
		return SnapshotRef{}, errors.New("eventlog: bad snapshot magic")
	}
	if data[4] != snapVersion {
		return SnapshotRef{}, fmt.Errorf("eventlog: unknown snapshot version %d", data[4])
	}
	offset := int64(binary.LittleEndian.Uint64(data[5:13]))
	n := binary.LittleEndian.Uint32(data[13:17])
	crc := binary.LittleEndian.Uint32(data[17:21])
	payload := data[snapHeader:]
	if int(n) != len(payload) {
		return SnapshotRef{}, errors.New("eventlog: snapshot payload truncated")
	}
	if crc32.Checksum(payload, crcTable) != crc {
		return SnapshotRef{}, errors.New("eventlog: snapshot CRC mismatch")
	}
	return SnapshotRef{Offset: offset, Payload: payload}, nil
}

// snapshotInfos scans dir for snapshot files, returning the valid ones
// newest-first (with payloads) and the offsets of unreadable ones.
func snapshotInfos(dir string) (valid []SnapshotRef, bad []int64, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("eventlog: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || filepath.Ext(name) != snapSuffix {
			continue
		}
		var off int64
		if _, err := fmt.Sscanf(name, "%016x"+snapSuffix, &off); err != nil {
			continue
		}
		ref, rerr := readSnapshotFile(filepath.Join(dir, name))
		if rerr != nil || ref.Offset != off {
			bad = append(bad, off)
			continue
		}
		valid = append(valid, ref)
	}
	sort.Slice(valid, func(i, j int) bool { return valid[i].Offset > valid[j].Offset })
	sort.Slice(bad, func(i, j int) bool { return bad[i] < bad[j] })
	return valid, bad, nil
}

// removeSnapTmp sweeps half-written snapshot temp files left by a crash.
// They were never promoted by rename, so they hold nothing durable.
func removeSnapTmp(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("eventlog: %w", err)
	}
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), snapSuffix+".tmp") {
			if err := os.Remove(filepath.Join(dir, e.Name())); err != nil {
				return fmt.Errorf("eventlog: %w", err)
			}
		}
	}
	return nil
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("eventlog: %w", err)
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("eventlog: dir fsync: %w", err)
	}
	return nil
}

// snapBegin registers an in-flight snapshot/compaction op so Close can wait
// for it (or the op can observe the close and abandon cleanly).
func (l *Log) snapBegin() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	l.snapWG.Add(1)
	return nil
}

func (l *Log) quitting() bool {
	select {
	case <-l.quit:
		return true
	default:
		return false
	}
}

// SnapCrashPoint arms the snapshot-path fault hook: the op-th snapshot or
// compaction I/O boundary — temp write, temp fsync, rename, unlink, and dir
// fsync, counted together from 1 — is abandoned mid-flight (a write leaves
// only partial bytes), and every later append fails with ErrCrashed, the
// in-test stand-in for the whole process dying there. Counted separately
// from the append-path CrashPoint so both sweeps stay deterministic.
// Test-only.
func (l *Log) SnapCrashPoint(op, partial int) {
	l.crashMu.Lock()
	l.snapCrashAt = op
	l.snapCrashPartial = partial
	l.snapCrashOps = 0
	l.snapCrashFired = false
	l.crashMu.Unlock()
}

// SnapCrashFired reports whether the armed snapshot crash point was reached.
func (l *Log) SnapCrashFired() bool {
	l.crashMu.Lock()
	defer l.crashMu.Unlock()
	return l.snapCrashFired
}

// SnapshotGate installs a test hook: WriteSnapshot blocks just before its
// rename until ch is closed (or the log closes, which abandons the
// snapshot). Models a slow in-flight snapshot writer.
func (l *Log) SnapshotGate(ch <-chan struct{}) {
	l.crashMu.Lock()
	l.snapGate = ch
	l.crashMu.Unlock()
}

func (l *Log) gate() <-chan struct{} {
	l.crashMu.Lock()
	defer l.crashMu.Unlock()
	return l.snapGate
}

// snapBoundary counts one snapshot-path I/O op and reports whether the
// armed snapshot crash fires here. Firing sets the shared crashed flag — a
// real crash kills the appender too.
func (l *Log) snapBoundary() (partial int, fire bool) {
	l.crashMu.Lock()
	defer l.crashMu.Unlock()
	if l.snapCrashAt <= 0 {
		return 0, false
	}
	l.snapCrashOps++
	if l.snapCrashOps == l.snapCrashAt {
		l.crashed = true
		l.snapCrashFired = true
		return l.snapCrashPartial, true
	}
	return 0, false
}
