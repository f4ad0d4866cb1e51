// Package eventlog implements the server's durable per-group event log: a
// segmented append-only file set holding every state-mutating hop the server
// acknowledged, so a crashed or restarted server rebuilds its databases by
// replay (commutative event sourcing over the §3.2 event stream).
//
// Records are group-interleaved: each carries the coupling-group key it
// mutates, so one log serializes all shards' appends while replay can still
// attribute every record to its group. Appends are a lock-free handoff — the
// calling loop encodes the record, hands the bytes to a dedicated writer
// goroutine over a channel, and blocks only until its durability level is
// reached (write for `interval`/`none`, write+fsync for `always`). The writer
// drains whatever accumulated while the previous write was in flight into a
// single write (+ a single fsync), so concurrent shard loops group-commit.
//
// On-disk framing, repeated per record inside segments named by base offset
// (`%016x.seg`):
//
//	[u32 length][u32 crc32c of payload][payload]
//	payload = [u8 kind][uvarint origin][uvarint group][wire envelope record]
//
// The envelope bytes reuse the wire batch inner-record layout
// (wire.AppendEnvelope), so the log has no serialization format of its own.
// Open scans all segments and truncates the tail at the first bad CRC — a
// torn final write from a crash is discarded, everything before it replays.
package eventlog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"cosoft/internal/obs"
	"cosoft/internal/wire"
)

// Kind tags what server transition a record captures. Replay dispatches on
// it; the envelope carries the transition's payload in ordinary wire form.
type Kind uint8

const (
	// KindRegister: a fresh instance registered. Origin is the allocated
	// instance ID; the envelope is the client's Register message.
	KindRegister Kind = iota + 1
	// KindDisconnect: an instance left (connection closed, eviction,
	// liveness timeout, deregister). Origin is the instance. Session tokens
	// survive a disconnect; KindTokenDrop revokes them.
	KindDisconnect
	// KindTokenDrop: an orderly Deregister invalidated the instance's
	// outstanding session token.
	KindTokenDrop
	// KindToken: a session token was minted. Origin is the instance; the
	// envelope is the SessionToken reply.
	KindToken
	// KindResume: a session token was consumed by a Resume handshake.
	KindResume
	// KindDeclare / KindRetract: couplable-object declarations.
	KindDeclare
	KindRetract
	// KindCouple / KindDecouple: couple-graph mutations.
	KindCouple
	KindDecouple
	// KindEvent: a broadcast event committed (group lock granted). The
	// envelope is the Exec form — event ID, name, args and source ref.
	KindEvent
	// KindHist: a state-copy backup entered the historical-states database.
	// The envelope is a CopyTo carrying the overwritten state.
	KindHist
	// KindUndo / KindRedo: history walks; the envelope's CopyTo carries the
	// object's pre-walk current state (pushed on the opposite stack).
	KindUndo
	KindRedo
	// KindPerm: an access-permission grant or revoke.
	KindPerm
)

// Sync selects when appends are forced to stable storage.
type Sync int

const (
	// SyncInterval fsyncs on a timer (Options.SyncEvery); an append returns
	// once its bytes are written.
	SyncInterval Sync = iota
	// SyncAlways fsyncs before every append returns: an acked record is on
	// stable storage before the client hears the ack.
	SyncAlways
	// SyncNone never fsyncs; durability is whatever the OS flushes.
	SyncNone
)

// ParseSync parses the -log-sync flag values always|interval|none.
func ParseSync(s string) (Sync, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "none":
		return SyncNone, nil
	}
	return 0, fmt.Errorf("eventlog: unknown sync policy %q (want always|interval|none)", s)
}

func (p Sync) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncNone:
		return "none"
	}
	return "interval"
}

// Options configures a Log.
type Options struct {
	// Dir is the log directory (one per server). Created if missing.
	Dir string
	// Sync is the durability policy.
	Sync Sync
	// SyncEvery is the SyncInterval fsync period (0 = 100ms).
	SyncEvery time.Duration
	// SegmentBytes rotates to a fresh segment once the current one exceeds
	// this size (0 = 64 MiB).
	SegmentBytes int64
	// Metrics receives the server.log.* counters. Nil disables measurement.
	Metrics obs.Sink
}

// Record is one logged server transition.
type Record struct {
	Kind Kind
	// Origin is the acting instance ID ("" when not applicable).
	Origin string
	// Group keys the coupling group the record mutates ("" for global
	// records such as registrations).
	Group string
	// Env is the transition payload in wire form.
	Env wire.Envelope
}

// ErrCrashed is returned by appends after an armed crash point fired: the
// in-test stand-in for the process image dying mid-write.
var ErrCrashed = errors.New("eventlog: crash point fired")

// ErrClosed is returned by appends on a closed log.
var ErrClosed = errors.New("eventlog: closed")

const (
	recHeader  = 8 // u32 length + u32 crc
	maxPayload = wire.MaxFrame
	segSuffix  = ".seg"
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// pending is one append handed to the writer goroutine.
type pending struct {
	data []byte
	done chan error
}

// Log is an open event log. Append is safe from any goroutine; all file I/O
// happens on the writer goroutine.
type Log struct {
	opts Options
	dir  string

	appendCh chan pending
	quit     chan struct{}
	wg       sync.WaitGroup

	mu     sync.Mutex
	closed bool

	// In-flight snapshot/compaction ops; Close waits for them so a
	// half-written .snap.tmp never outlives the log handle.
	snapWG sync.WaitGroup
	// snapMu serializes WriteSnapshot and Compact against each other
	// (they share the snapshot file namespace; appends are unaffected).
	snapMu sync.Mutex

	// Writer-goroutine state.
	file    *os.File
	segBase int64 // byte offset of the current segment's first record
	segSize int64 // bytes written into the current segment
	dirty   bool  // bytes written since the last fsync

	// Crash-point fault injection (tests): at the armed I/O boundary —
	// writes and syncs counted from 1 — the operation is abandoned with only
	// crashPartial bytes reaching the file, and every later append fails
	// with ErrCrashed.
	crashMu      sync.Mutex
	crashAt      int
	crashPartial int
	crashOps     int
	crashed      bool
	// Snapshot-path fault injection: a separate boundary counter over
	// snapshot/compaction I/O (SnapCrashPoint) so the append sweep's
	// numbering stays deterministic; firing sets the shared crashed flag.
	snapCrashAt      int
	snapCrashPartial int
	snapCrashOps     int
	snapCrashFired   bool
	snapGate         <-chan struct{}

	mAppends    *obs.Counter // server.log.appends: records appended
	mBytes      *obs.Counter // server.log.bytes: record bytes written (incl. framing)
	mFsyncs     *obs.Counter // server.log.fsyncs: fsync calls issued
	mReplayed   *obs.Counter // server.log.replayed: records decoded by Replay
	mTruncated  *obs.Counter // server.log.truncated_tail: torn tails discarded on open
	mSnapshots  *obs.Counter // server.log.snapshots: snapshots durably written
	mSnapBytes  *obs.Counter // server.log.snapshot_bytes: snapshot payload bytes written
	mCompacted  *obs.Counter // server.log.compacted_segments: segments deleted by Compact
	mReplaySnap *obs.Counter // server.log.replay_from_snapshot: opens that found a valid snapshot
}

// Open opens (creating if needed) the log directory, recovers the tail —
// truncating the last segment at the first record whose length or CRC does
// not check out — and starts the writer goroutine.
func Open(opts Options) (*Log, error) {
	if opts.Dir == "" {
		return nil, errors.New("eventlog: Options.Dir is required")
	}
	if opts.SyncEvery <= 0 {
		opts.SyncEvery = 100 * time.Millisecond
	}
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = 64 << 20
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("eventlog: %w", err)
	}
	metrics := obs.Or(opts.Metrics)
	l := &Log{
		opts:        opts,
		dir:         opts.Dir,
		appendCh:    make(chan pending, 256),
		quit:        make(chan struct{}),
		mAppends:    metrics.Counter("server.log.appends"),
		mBytes:      metrics.Counter("server.log.bytes"),
		mFsyncs:     metrics.Counter("server.log.fsyncs"),
		mReplayed:   metrics.Counter("server.log.replayed"),
		mTruncated:  metrics.Counter("server.log.truncated_tail"),
		mSnapshots:  metrics.Counter("server.log.snapshots"),
		mSnapBytes:  metrics.Counter("server.log.snapshot_bytes"),
		mCompacted:  metrics.Counter("server.log.compacted_segments"),
		mReplaySnap: metrics.Counter("server.log.replay_from_snapshot"),
	}
	if err := l.recover(); err != nil {
		return nil, err
	}
	l.wg.Add(1)
	go l.writer()
	return l, nil
}

// segments lists the segment base offsets present in dir, sorted.
func segments(dir string) ([]int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("eventlog: %w", err)
	}
	var bases []int64
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || filepath.Ext(name) != segSuffix {
			continue
		}
		var base int64
		if _, err := fmt.Sscanf(name, "%016x"+segSuffix, &base); err != nil {
			continue
		}
		bases = append(bases, base)
	}
	sort.Slice(bases, func(i, j int) bool { return bases[i] < bases[j] })
	return bases, nil
}

func segPath(dir string, base int64) string {
	return filepath.Join(dir, fmt.Sprintf("%016x%s", base, segSuffix))
}

// recover scans the existing segments, truncates a torn tail in the last
// one, and opens the last segment (or a fresh first segment) for append.
// Snapshot-aware: half-written snapshot temp files are swept, a snap-only
// directory resumes appending at the snapshot's offset, and a directory
// compacted past its snapshot coverage is refused rather than silently
// replayed with a hole.
func (l *Log) recover() error {
	if err := removeSnapTmp(l.dir); err != nil {
		return err
	}
	snaps, _, err := snapshotInfos(l.dir)
	if err != nil {
		return err
	}
	snapOff := int64(-1)
	if len(snaps) > 0 {
		snapOff = snaps[0].Offset
		l.mReplaySnap.Inc()
	}
	bases, err := segments(l.dir)
	if err != nil {
		return err
	}
	if len(bases) == 0 {
		base := int64(0)
		if snapOff >= 0 {
			// Snap-only directory (everything below the snapshot compacted
			// away): appends resume at the covered offset so segment names
			// stay global byte offsets.
			base = snapOff
		}
		return l.openSegment(base)
	}
	if bases[0] > 0 && snapOff < bases[0] {
		return fmt.Errorf("eventlog: segments begin at offset %d with no snapshot covering the compacted prefix", bases[0])
	}
	// Damage in a non-final segment is corruption, not a torn tail: the log
	// only ever appends to the last segment, so refuse rather than silently
	// dropping acknowledged records.
	last := bases[len(bases)-1]
	path := segPath(l.dir, last)
	var valid int64
	for _, base := range bases {
		var clean bool
		if valid, clean, err = readSegment(segPath(l.dir, base), 0, nil); err != nil {
			return err
		}
		if clean {
			continue
		}
		if base != last {
			return fmt.Errorf("eventlog: segment %016x corrupt at offset %d (not the tail segment)", base, valid)
		}
		if err := os.Truncate(path, valid); err != nil {
			return fmt.Errorf("eventlog: truncate torn tail: %w", err)
		}
		l.mTruncated.Inc()
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("eventlog: %w", err)
	}
	l.file = f
	l.segBase = last
	l.segSize = valid
	return nil
}

// readSegment walks one segment's records from start bytes in, handing every
// payload whose length and CRC check out to fn (nil: walk only). It returns
// the offset just past the last such record and whether the walk ended
// exactly at end of file: clean false means a torn or damaged record begins
// at pos, and nothing behind it is read. An error from fn stops the walk at
// the record it refused. The payload is only valid until fn returns.
func readSegment(path string, start int64, fn func(payload []byte) error) (pos int64, clean bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		return start, false, fmt.Errorf("eventlog: %w", err)
	}
	defer f.Close()
	if _, err := f.Seek(start, io.SeekStart); err != nil {
		return start, false, fmt.Errorf("eventlog: %w", err)
	}
	pos = start
	var hdr [recHeader]byte
	buf := make([]byte, 0, 4096)
	for {
		if n, err := io.ReadFull(f, hdr[:]); err != nil {
			return pos, n == 0, nil // end of file, or a torn header
		}
		n := binary.LittleEndian.Uint32(hdr[0:4])
		crc := binary.LittleEndian.Uint32(hdr[4:8])
		if n == 0 || n > maxPayload {
			return pos, false, nil
		}
		if cap(buf) < int(n) {
			buf = make([]byte, n)
		}
		buf = buf[:n]
		if _, err := io.ReadFull(f, buf); err != nil {
			return pos, false, nil
		}
		if crc32.Checksum(buf, crcTable) != crc {
			return pos, false, nil
		}
		if fn != nil {
			if err := fn(buf); err != nil {
				return pos, false, err
			}
		}
		pos += recHeader + int64(n)
	}
}

func (l *Log) openSegment(base int64) error {
	f, err := os.OpenFile(segPath(l.dir, base), os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("eventlog: %w", err)
	}
	l.file = f
	l.segBase = base
	l.segSize = 0
	return nil
}

// encodeRecord frames one record for disk.
func encodeRecord(r Record) []byte {
	payload := []byte{byte(r.Kind)}
	payload = binary.AppendUvarint(payload, uint64(len(r.Origin)))
	payload = append(payload, r.Origin...)
	payload = binary.AppendUvarint(payload, uint64(len(r.Group)))
	payload = append(payload, r.Group...)
	payload = wire.AppendEnvelope(payload, r.Env)
	buf := make([]byte, recHeader, recHeader+len(payload))
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.Checksum(payload, crcTable))
	return append(buf, payload...)
}

// decodeRecord parses one payload (after length+CRC validation).
func decodeRecord(payload []byte) (Record, error) {
	if len(payload) < 1 {
		return Record{}, errors.New("eventlog: empty payload")
	}
	r := Record{Kind: Kind(payload[0])}
	rest := payload[1:]
	take := func() (string, error) {
		n, sz := binary.Uvarint(rest)
		if sz <= 0 || uint64(len(rest)-sz) < n {
			return "", errors.New("eventlog: bad string length")
		}
		s := string(rest[sz : sz+int(n)])
		rest = rest[sz+int(n):]
		return s, nil
	}
	var err error
	if r.Origin, err = take(); err != nil {
		return Record{}, err
	}
	if r.Group, err = take(); err != nil {
		return Record{}, err
	}
	if r.Env, err = wire.DecodeEnvelope(rest); err != nil {
		return Record{}, fmt.Errorf("eventlog: envelope: %w", err)
	}
	return r, nil
}

// Append makes r durable per the sync policy and returns. Safe from any
// goroutine; the bytes are encoded by the caller and written by the writer
// goroutine, which group-commits everything that accumulated while the
// previous write was in flight.
func (l *Log) Append(r Record) error {
	p := pending{data: encodeRecord(r), done: make(chan error, 1)}
	select {
	case l.appendCh <- p:
	case <-l.quit:
		return ErrClosed
	}
	select {
	case err := <-p.done:
		return err
	case <-l.quit:
		// The writer drains the channel before exiting, so done always gets
		// an answer; prefer it over racing the quit signal.
		return <-p.done
	}
}

// writer is the single goroutine touching the segment files.
func (l *Log) writer() {
	defer l.wg.Done()
	var ticker *time.Ticker
	var tick <-chan time.Time
	if l.opts.Sync == SyncInterval {
		ticker = time.NewTicker(l.opts.SyncEvery)
		defer ticker.Stop()
		tick = ticker.C
	}
	for {
		select {
		case p := <-l.appendCh:
			batch := []pending{p}
			// Group commit: everything queued while we were off-loop joins
			// this write and shares its fsync.
			for drained := false; !drained; {
				select {
				case q := <-l.appendCh:
					batch = append(batch, q)
				default:
					drained = true
				}
			}
			l.commit(batch)
		case <-tick:
			if l.dirty && !l.isCrashed() {
				if err := l.sync(); err == nil {
					l.dirty = false
				}
			}
		case <-l.quit:
			for {
				select {
				case p := <-l.appendCh:
					l.commit([]pending{p})
				default:
					if l.dirty && !l.isCrashed() && l.opts.Sync != SyncNone {
						if l.sync() == nil {
							l.dirty = false
						}
					}
					return
				}
			}
		}
	}
}

// commit writes one group-committed batch and answers every waiter.
func (l *Log) commit(batch []pending) {
	if l.isCrashed() {
		for _, p := range batch {
			p.done <- ErrCrashed
		}
		return
	}
	var total int
	for _, p := range batch {
		total += len(p.data)
	}
	if l.segSize > 0 && l.segSize+int64(total) > l.opts.SegmentBytes {
		if err := l.rotate(); err != nil {
			for _, p := range batch {
				p.done <- err
			}
			return
		}
	}
	buf := make([]byte, 0, total)
	for _, p := range batch {
		buf = append(buf, p.data...)
	}
	err := l.write(buf)
	if err == nil {
		l.segSize += int64(total)
		l.dirty = true
		l.mAppends.Add(uint64(len(batch)))
		l.mBytes.Add(uint64(total))
		if l.opts.Sync == SyncAlways {
			if err = l.sync(); err == nil {
				l.dirty = false
			}
		}
	}
	for _, p := range batch {
		p.done <- err
	}
}

// rotate seals the current segment and opens the next one, named by the
// global byte offset of its first record.
func (l *Log) rotate() error {
	if l.opts.Sync != SyncNone && l.dirty {
		if err := l.sync(); err != nil {
			return err
		}
		l.dirty = false
	}
	if err := l.file.Close(); err != nil {
		return fmt.Errorf("eventlog: rotate: %w", err)
	}
	return l.openSegment(l.segBase + l.segSize)
}

// write is one counted I/O boundary: an armed crash point abandons it with
// only the configured partial byte count reaching the file.
func (l *Log) write(buf []byte) error {
	if partial, fire := l.crashBoundary(); fire {
		if partial > len(buf) {
			partial = len(buf)
		}
		if partial > 0 {
			l.file.Write(buf[:partial])
		}
		return ErrCrashed
	}
	if _, err := l.file.Write(buf); err != nil {
		return fmt.Errorf("eventlog: write: %w", err)
	}
	return nil
}

// sync is the other counted I/O boundary.
func (l *Log) sync() error {
	if _, fire := l.crashBoundary(); fire {
		return ErrCrashed
	}
	if err := l.file.Sync(); err != nil {
		return fmt.Errorf("eventlog: fsync: %w", err)
	}
	l.mFsyncs.Inc()
	return nil
}

// CrashPoint arms the fault hook: the op-th I/O boundary (writes and syncs,
// counted together from 1) is abandoned mid-flight — a write puts only
// partial bytes in the file, a sync does nothing — and every later append
// fails with ErrCrashed. Test-only.
func (l *Log) CrashPoint(op, partial int) {
	l.crashMu.Lock()
	l.crashAt = op
	l.crashPartial = partial
	l.crashOps = 0
	l.crashed = false
	l.crashMu.Unlock()
}

// CrashFired reports whether the armed crash point was reached.
func (l *Log) CrashFired() bool {
	l.crashMu.Lock()
	defer l.crashMu.Unlock()
	return l.crashed
}

func (l *Log) isCrashed() bool {
	l.crashMu.Lock()
	defer l.crashMu.Unlock()
	return l.crashed
}

// crashBoundary counts one I/O op and reports whether the crash fires here.
func (l *Log) crashBoundary() (partial int, fire bool) {
	l.crashMu.Lock()
	defer l.crashMu.Unlock()
	if l.crashAt <= 0 {
		return 0, false
	}
	l.crashOps++
	if l.crashOps == l.crashAt {
		l.crashed = true
		return l.crashPartial, true
	}
	return 0, false
}

// Replay is ReplayFrom offset zero.
func (l *Log) Replay(fn func(Record) error) error {
	_, err := l.ReplayFrom(0, fn)
	return err
}

// ReplayFrom is ReplayDirFrom on the log's own directory, counting every
// record it hands to fn in server.log.replayed. Safe before the first
// Append; during live appends it sees some prefix.
func (l *Log) ReplayFrom(from int64, fn func(Record) error) (int64, error) {
	return ReplayDirFrom(l.dir, from, func(r Record) error {
		l.mReplayed.Inc()
		return fn(r)
	})
}

// ReplayCounter returns server.log.replayed, for a reader that replays the
// directory itself (ReplayDirFrom) and counts what it applied.
func (l *Log) ReplayCounter() *obs.Counter { return l.mReplayed }

// ReplayDir is ReplayDirFrom offset zero (offline tooling).
func ReplayDir(dir string, fn func(Record) error) error {
	_, err := ReplayDirFrom(dir, 0, fn)
	return err
}

// ReplayDirFrom streams every durable record at byte offset >= from to fn in
// log order, without opening the directory for append and without touching
// any metrics sink, and returns the offset just past the last record fn
// accepted. Segments wholly below from are skipped — with a snapshot at
// from, restart replay reads only post-snapshot bytes. Replay stops at the
// first torn or damaged record: everything behind it is unreadable, and a
// later segment is never resynced into. A record that passed its CRC but
// does not decode is an error, as is one fn refuses.
func ReplayDirFrom(dir string, from int64, fn func(Record) error) (int64, error) {
	bases, err := segments(dir)
	if err != nil {
		return from, err
	}
	pos := from
	for i, base := range bases {
		if i+1 < len(bases) && bases[i+1] <= pos {
			continue
		}
		if base > pos {
			return pos, fmt.Errorf("eventlog: replay offset %d precedes first available byte %d (compacted past it)", pos, base)
		}
		next, clean, err := readSegment(segPath(dir, base), pos-base, func(payload []byte) error {
			rec, err := decodeRecord(payload)
			if err != nil {
				return err
			}
			return fn(rec)
		})
		pos = base + next
		if err != nil || !clean {
			return pos, err
		}
	}
	return pos, nil
}

// Close flushes, syncs (unless SyncNone) and closes the log. Pending appends
// are answered before the writer exits.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	l.mu.Unlock()
	close(l.quit)
	l.wg.Wait()
	// An in-flight snapshot writer observes quit and abandons (removing its
	// temp file); wait so no .snap.tmp outlives the handle.
	l.snapWG.Wait()
	if l.file != nil {
		return l.file.Close()
	}
	return nil
}

// FsckReport summarizes a scan of a log directory.
type FsckReport struct {
	Segments int
	Records  int
	Bytes    int64
	// Snapshots counts valid snapshot files; BadSnapshots counts torn or
	// CRC-damaged ones (not corruption by themselves as long as replay can
	// still reach the acked state some other way).
	Snapshots    int
	BadSnapshots int
	// SnapshotOffset is the newest valid snapshot's byte offset — where
	// restart replay begins — or -1 when no snapshot exists.
	SnapshotOffset int64
	// TornTail is set when the final segment ends in an incomplete or
	// CRC-damaged record with nothing but garbage behind it — the expected
	// signature of a crash mid-write.
	TornTail bool
	// Corrupt is set when damage appears before the final segment's tail,
	// or when intact records resync after a break in the final segment
	// (a crash tears at most one trailing record; damage with valid
	// records behind it is interior corruption) — either way,
	// acknowledged records are unreadable.
	Corrupt bool
	// Detail describes the first damage found.
	Detail string
}

// Fsck scans a log directory without modifying it, counting segments, valid
// records and snapshots, classifying any CRC damage, and validating the
// snapshot chain: segments must be contiguous, and a directory whose
// segments start past offset zero (compaction ran) must hold a valid
// snapshot covering the deleted prefix. A directory with only a snapshot
// and no segments is clean; a torn snapshot is clean as long as replay can
// still reach the acked state (an older snapshot or a full segment chain).
func Fsck(dir string) (FsckReport, error) {
	rep := FsckReport{SnapshotOffset: -1}
	validSnaps, badSnaps, err := snapshotInfos(dir)
	if err != nil {
		return rep, err
	}
	rep.Snapshots = len(validSnaps)
	rep.BadSnapshots = len(badSnaps)
	if len(validSnaps) > 0 {
		rep.SnapshotOffset = validSnaps[0].Offset
	}
	bases, err := segments(dir)
	if err != nil {
		return rep, err
	}
	rep.Segments = len(bases)
	if len(bases) == 0 {
		if len(validSnaps) == 0 && len(badSnaps) > 0 {
			rep.Corrupt = true
			rep.Detail = fmt.Sprintf("%d snapshot file(s) unreadable with no segments to replay", len(badSnaps))
		}
		return rep, nil
	}
	if bases[0] > 0 && (len(validSnaps) == 0 || validSnaps[0].Offset < bases[0]) {
		rep.Corrupt = true
		rep.Detail = fmt.Sprintf("segments begin at offset %d with no snapshot covering the compacted prefix", bases[0])
		return rep, nil
	}
	prevEnd := bases[0]
	for i, base := range bases {
		if base != prevEnd {
			rep.Corrupt = true
			rep.Detail = fmt.Sprintf("segment %016x does not begin where the previous segment ends (offset %d) — gap in the chain", base, prevEnd)
			return rep, nil
		}
		path := segPath(dir, base)
		valid, clean, err := readSegment(path, 0, func([]byte) error {
			rep.Records++
			return nil
		})
		if err != nil {
			return rep, err
		}
		prevEnd = base + valid
		rep.Bytes += valid
		if clean {
			continue
		}
		if i < len(bases)-1 {
			rep.Corrupt = true
			rep.Detail = fmt.Sprintf("segment %016x: damage at offset %d before the tail segment", base, valid)
			return rep, nil
		}
		sync, trailing, err := resyncOffset(path, valid)
		if err != nil {
			return rep, err
		}
		if sync >= 0 {
			rep.Corrupt = true
			rep.Detail = fmt.Sprintf("segment %016x: damage at offset %d with intact records resuming at %d — interior corruption, not a crash tear", base, valid, sync)
			return rep, nil
		}
		rep.TornTail = true
		rep.Detail = fmt.Sprintf("segment %016x: torn tail at offset %d (%d trailing bytes)", base, valid, trailing)
	}
	if len(badSnaps) > 0 && rep.Detail == "" {
		rep.Detail = fmt.Sprintf("%d snapshot file(s) unreadable (replay falls back to an older snapshot or offset zero)", len(badSnaps))
	}
	return rep, nil
}

// resyncOffset scans the damaged region of a segment — everything from the
// break at from to end of file — for an offset where a well-formed record
// (sane length, matching CRC) begins, returning -1 when none exists, and the
// size of the region. A crash mid-write tears at most the one record being
// appended, so any record that parses behind the break proves the damage is
// interior corruption rather than a torn tail.
func resyncOffset(path string, from int64) (sync, trailing int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return -1, 0, fmt.Errorf("eventlog: %w", err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return -1, 0, fmt.Errorf("eventlog: %w", err)
	}
	region := make([]byte, st.Size()-from)
	if _, err := f.ReadAt(region, from); err != nil {
		return -1, 0, fmt.Errorf("eventlog: %w", err)
	}
	// The break itself is the torn record; a resync at offset zero would be
	// the valid prefix again, so start one byte in.
	for off := int64(1); off+recHeader <= int64(len(region)); off++ {
		n := int64(binary.LittleEndian.Uint32(region[off : off+4]))
		if n == 0 || n > maxPayload || off+recHeader+n > int64(len(region)) {
			continue
		}
		crc := binary.LittleEndian.Uint32(region[off+4 : off+8])
		if crc32.Checksum(region[off+recHeader:off+recHeader+n], crcTable) == crc {
			return from + off, int64(len(region)), nil
		}
	}
	return -1, int64(len(region)), nil
}
