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
	ls, err := list(dir)
	valid, _ := ls.snapshots(dir)
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
	f, err := l.fs.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("eventlog: snapshot: %w", err)
	}
	_, err = f.Write(buf)
	if err == nil {
		err = f.Sync()
	}
	if err = errors.Join(err, f.Close()); err != nil {
		l.fs.Remove(tmp)
		return fmt.Errorf("eventlog: snapshot: %w", err)
	}
	// A Close that came while the temp file was written abandons it.
	if l.quitting() {
		l.fs.Remove(tmp)
		return ErrClosed
	}
	if err := l.fs.Rename(tmp, final); err != nil {
		l.fs.Remove(tmp)
		return fmt.Errorf("eventlog: snapshot rename: %w", err)
	}
	if err := l.fs.SyncDir(l.dir); err != nil {
		return fmt.Errorf("eventlog: dir fsync: %w", err)
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

	ls, err := list(l.dir)
	if err != nil {
		return 0, err
	}
	valid, bad := ls.snapshots(l.dir)
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
		if err := l.fs.Remove(path); err != nil {
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
	removed := 0
	for i := 0; i < len(ls.segs)-1; i++ {
		// A segment's end is the next segment's base (bases are cumulative
		// byte offsets); delete only when every byte predates the oldest
		// retained snapshot.
		if ls.segs[i+1] > retain {
			break
		}
		if err := del(segPath(l.dir, ls.segs[i])); err != nil {
			return removed, err
		}
		removed++
	}
	if err := l.fs.SyncDir(l.dir); err != nil {
		return removed, fmt.Errorf("eventlog: dir fsync: %w", err)
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

// snapshots reads and checks every snapshot file listed, returning the
// valid ones newest first (with payloads) and the offsets of unreadable ones.
func (ls listing) snapshots(dir string) (valid []SnapshotRef, bad []int64) {
	for _, off := range ls.snaps {
		ref, err := readSnapshotFile(snapPath(dir, off))
		if err != nil || ref.Offset != off {
			bad = append(bad, off)
			continue
		}
		valid = append(valid, ref)
	}
	return valid, bad
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
