// Package eventlog implements the server's durable per-group event log: a
// segmented append-only file set holding every state-mutating hop the server
// acknowledged, so a crashed or restarted server rebuilds its databases by
// replay (commutative event sourcing over the §3.2 event stream).
//
// Records are group-interleaved: each carries the coupling-group key it
// mutates, so one log serializes all shards' appends while replay can still
// attribute every record to its group. An append never does I/O: the
// appender encodes its record straight into the log's fill buffer, framing,
// length and CRC included, and one writer goroutine swaps that buffer out on
// every drain, so whatever accumulated while the previous write was in
// flight goes out as a single write (+ a single fsync under `always`) and
// every appender group-commits. Append blocks until its record reaches its
// durability level (written for `interval`/`none`, written and fsynced for
// `always`); AppendEvent, a shard's audit record of an event, never
// waits and hears nothing back beyond an immediate refusal.
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

	"cosoft/internal/attr"
	"cosoft/internal/clock"
	"cosoft/internal/couple"
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
	// KindEvent: a broadcast event (group lock granted), an audit entry
	// written behind the event. The envelope is the Exec form — event ID,
	// name, args and source ref.
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
	// KindLease: a shard leased event IDs up to a ceiling; no ID at or below
	// it may be issued after a restart. The envelope is an Exec whose
	// EventID is the ceiling.
	KindLease
)

// Sync selects when appends are forced to stable storage.
type Sync int

const (
	// SyncInterval fsyncs every syncEvery; an append returns once its bytes
	// are written.
	SyncInterval Sync = iota
	// SyncAlways fsyncs before every Append returns: a control-plane record
	// or an ID lease is on stable storage before anything it covers is
	// acked. An event's own record (AppendEvent) is fsynced with the drain
	// that writes it, behind the event.
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
	// SegmentBytes rotates to a fresh segment once the current one exceeds
	// this size (0 = 64 MiB).
	SegmentBytes int64
	// Metrics receives the server.log.* counters. Nil disables measurement.
	Metrics obs.Sink
	// FS is what the log writes through; nil is the real file system. Reads
	// go to os directly, so they see whatever the writes got onto the disk.
	FS FS
	// Clock drives the SyncInterval fsync ticker; nil is the wall clock. It
	// is a test seam: a test advances a clock.Manual instead of waiting.
	Clock clock.Clock
}

// syncEvery is the SyncInterval fsync period.
const syncEvery = 100 * time.Millisecond

// FS is the mutating half of a file system: every change the log makes to
// its directory goes through one. internal/faultdisk injects disk faults
// through it.
type FS interface {
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	// SyncDir fsyncs a directory, making the renames and removes in it
	// durable.
	SyncDir(dir string) error
}

// File is an open file of an FS; *os.File is one. It is an alias of an
// unnamed interface, so an FS can be written without importing this package.
type File = interface {
	io.WriteCloser
	Sync() error
	Truncate(size int64) error
}

// osFS is the real file system.
type osFS struct{}

func (osFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error             { return os.Remove(name) }

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	return errors.Join(d.Sync(), d.Close())
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

// ErrClosed is returned by appends on a closed log.
var ErrClosed = errors.New("eventlog: closed")

// ErrTooLarge refuses a record whose payload exceeds the largest one replay
// reads back: replay would take it for a torn tail, and the next Open would
// truncate the segment there, deleting every record behind it. Nothing is
// written and the log keeps serving.
var ErrTooLarge = errors.New("eventlog: record too large")

const (
	recHeader  = 8 // u32 length + u32 crc
	maxPayload = wire.MaxFrame
	segSuffix  = ".seg"
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// maxIdleFill caps the capacity of a drained fill buffer the writer keeps for
// reuse, so the backlog of one stall is not pinned for the life of the log.
const maxIdleFill = 1 << 20

// Log is an open event log. Append and AppendEvent are safe from any
// goroutine; all file I/O happens on the writer goroutine.
//
// Backpressure: the fill buffer has no byte cap, and no appender ever waits
// for room in it. Its backlog is bounded by the callers instead. A shard
// appends event records only for IDs under a lease it took with the blocking
// Append, one lease per block of IDs, so behind a stalled write its event
// records never outnumber one block: its next lease waits for the write.
// Every other appender waits in Append for its own record. That cannot
// deadlock: the writer never waits on an appender (Append's wake-up is a
// condition broadcast), appenders hold the mutex only to encode, and the
// writer holds it only to swap buffers and publish, never across I/O.
type Log struct {
	opts Options
	dir  string
	fs   FS

	kick chan struct{} // one slot: the fill buffer holds records to write
	quit chan struct{}
	wg   sync.WaitGroup

	// mu guards the append side: the closed flag, the failure, the fill
	// buffer and the record counts. It also serves snapBegin.
	mu     sync.Mutex
	closed bool
	// failed is the first write, fsync or rotation error. A failed write
	// may leave a torn record that replay stops at, so nothing written
	// behind it would replay: every later append is refused with it.
	failed error
	fill   []byte // framed records appended since the last drain
	spare  []byte // the buffer the last drain wrote, reused as the next fill
	// Records are numbered from 1 in append order, which is file order.
	appended uint64    // records appended
	drained  uint64    // the drain in progress took records through this one
	done     uint64    // the writer is finished with records through this one
	ok       uint64    // records through this one are durable (ok ≤ done)
	durable  sync.Cond // broadcast after every drain; Append waits on it (L is &mu)

	// In-flight snapshot/compaction ops; Close waits for them so a
	// half-written .snap.tmp never outlives the log handle.
	snapWG sync.WaitGroup
	// snapMu serializes WriteSnapshot and Compact against each other
	// (they share the snapshot file namespace; appends are unaffected).
	snapMu sync.Mutex

	// Writer-goroutine state.
	file    File
	segBase int64 // byte offset of the current segment's first record
	segSize int64 // bytes written into the current segment
	dirty   bool  // bytes written since the last fsync
	// syncErr is a failed interval or closing fsync, which Close reports:
	// the records it covered were acknowledged before it failed.
	syncErr error

	mAppends    *obs.Counter // server.log.appends: records appended
	mWrites     *obs.Counter // server.log.writes: group-commit writes that reached the file
	mBytes      *obs.Counter // server.log.bytes: record bytes written (incl. framing)
	mFsyncs     *obs.Counter // server.log.fsyncs: fsync calls issued
	mReplayed   *obs.Counter // server.log.replayed: records a restore applied (ReplayCounter)
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
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = 64 << 20
	}
	if opts.FS == nil {
		opts.FS = osFS{}
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("eventlog: %w", err)
	}
	metrics := obs.Or(opts.Metrics)
	l := &Log{
		opts:        opts,
		dir:         opts.Dir,
		fs:          opts.FS,
		kick:        make(chan struct{}, 1),
		quit:        make(chan struct{}),
		mAppends:    metrics.Counter("server.log.appends"),
		mWrites:     metrics.Counter("server.log.writes"),
		mBytes:      metrics.Counter("server.log.bytes"),
		mFsyncs:     metrics.Counter("server.log.fsyncs"),
		mReplayed:   metrics.Counter("server.log.replayed"),
		mTruncated:  metrics.Counter("server.log.truncated_tail"),
		mSnapshots:  metrics.Counter("server.log.snapshots"),
		mSnapBytes:  metrics.Counter("server.log.snapshot_bytes"),
		mCompacted:  metrics.Counter("server.log.compacted_segments"),
		mReplaySnap: metrics.Counter("server.log.replay_from_snapshot"),
	}
	l.durable.L = &l.mu
	if err := l.recover(); err != nil {
		return nil, err
	}
	// The ticker is armed before the writer starts, so a test's clock has it
	// once Open returns.
	var tick clock.Ticker
	if opts.Sync == SyncInterval {
		tick = clock.Or(opts.Clock).NewTicker(syncEvery)
	}
	l.wg.Add(1)
	go l.writer(tick)
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
	if err := l.removeSnapTmp(); err != nil {
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
	var valid int64
	var clean bool
	for _, base := range bases {
		if valid, clean, err = readSegment(segPath(l.dir, base), 0, nil); err != nil {
			return err
		}
		if !clean && base != last {
			return fmt.Errorf("eventlog: segment %016x corrupt at offset %d (not the tail segment)", base, valid)
		}
	}
	if err := l.openSegment(last); err != nil {
		return err
	}
	l.segSize = valid
	if !clean {
		if err := l.file.Truncate(valid); err != nil {
			l.file.Close()
			return fmt.Errorf("eventlog: truncate torn tail: %w", err)
		}
		l.mTruncated.Inc()
	}
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
	f, err := l.fs.OpenFile(segPath(l.dir, base), os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("eventlog: %w", err)
	}
	l.file = f
	l.segBase = base
	l.segSize = 0
	return nil
}

// encodeRecord frames one record for disk.
func encodeRecord(r Record) []byte { return appendRecord(nil, r) }

// appendRecord frames r onto buf.
func appendRecord(buf []byte, r Record) []byte {
	start := len(buf)
	buf = append(buf, make([]byte, recHeader)...)
	buf = append(buf, byte(r.Kind))
	buf = appendString(buf, r.Origin)
	buf = appendString(buf, r.Group)
	buf = wire.AppendEnvelope(buf, r.Env)
	return seal(buf, start)
}

// appendEventRecord frames the KindEvent record of src's event, broadcast as
// se, onto buf: origin src.Instance, group "instance:path" written from the
// ref's two parts, and as the envelope the Exec se materializes for src.Path,
// written as its head and encoded-once tail. The bytes are appendRecord's for
// that Record; building them allocates nothing once buf has room.
func appendEventRecord(buf []byte, src couple.ObjectRef, se *wire.SharedExec) []byte {
	start := len(buf)
	buf = append(buf, make([]byte, recHeader)...)
	buf = append(buf, byte(KindEvent))
	buf = appendString(buf, string(src.Instance))
	buf = binary.AppendUvarint(buf, uint64(len(src.Instance)+1+len(src.Path)))
	buf = append(buf, string(src.Instance)...)
	buf = append(buf, ':')
	buf = append(buf, src.Path...)
	buf = se.AppendEnvelope(buf, src.Path)
	return seal(buf, start)
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// seal fills in the length and CRC of the record framed at buf[start:].
func seal(buf []byte, start int) []byte {
	payload := buf[start+recHeader:]
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.Checksum(payload, crcTable))
	return buf
}

// decodeRecord parses one payload (after length+CRC validation).
func decodeRecord(payload []byte) (Record, error) {
	rd := attr.NewReader(payload)
	r := Record{Kind: Kind(rd.Byte()), Origin: rd.String(), Group: rd.String()}
	if err := rd.Err(); err != nil {
		return Record{}, fmt.Errorf("eventlog: %w", err)
	}
	var err error
	if r.Env, err = wire.DecodeEnvelope(rd.Rest()); err != nil {
		return Record{}, fmt.Errorf("eventlog: envelope: %w", err)
	}
	return r, nil
}

// Append makes r durable per the sync policy and returns. Safe from any
// goroutine: the record is encoded into the fill buffer and written by the
// writer goroutine, which group-commits everything that accumulated while
// the previous write was in flight. On a closed log it returns ErrClosed, on
// a failed one the failure, and for a record too large to replay ErrTooLarge.
func (l *Log) Append(r Record) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.refusal(); err != nil {
		return err
	}
	start := len(l.fill)
	l.fill = appendRecord(l.fill, r)
	if err := l.fits(start); err != nil {
		return err
	}
	n := l.queue()
	for l.done < n {
		l.durable.Wait()
	}
	if n > l.ok {
		return l.failed
	}
	return nil
}

// AppendEvent queues the KindEvent record of src's event, broadcast as se —
// the bytes Append writes for Record{KindEvent, src.Instance,
// "instance:path", the Exec se materializes for src.Path} — and returns at
// once: nil once the record is queued behind every record appended before
// it, or, with nothing queued, the error a closed or failed log refuses
// every append with, or ErrTooLarge. The caller never learns when the record
// is durable. It allocates nothing once the fill buffer has grown to the
// backlog.
func (l *Log) AppendEvent(src couple.ObjectRef, se *wire.SharedExec) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.refusal(); err != nil {
		return err
	}
	start := len(l.fill)
	l.fill = appendEventRecord(l.fill, src, se)
	if err := l.fits(start); err != nil {
		return err
	}
	l.queue()
	return nil
}

// fits keeps the record just encoded at fill[start:] if replay can read it
// back, and otherwise takes it out again and returns ErrTooLarge. l.mu is
// held.
func (l *Log) fits(start int) error {
	if len(l.fill)-start-recHeader > maxPayload {
		l.fill = l.fill[:start]
		return ErrTooLarge
	}
	return nil
}

// refusal is the error a new append gets at once: the log is closed or has
// failed. l.mu is held.
func (l *Log) refusal() error {
	if l.closed {
		return ErrClosed
	}
	return l.failed
}

// queue counts the record just encoded into fill, wakes the writer and
// returns the record's number. l.mu is held.
func (l *Log) queue() uint64 {
	l.appended++
	select {
	case l.kick <- struct{}{}:
	default:
	}
	return l.appended
}

// writer is the single goroutine touching the segment files. Under
// SyncInterval ticker paces its fsyncs; otherwise it is nil.
func (l *Log) writer(ticker clock.Ticker) {
	defer l.wg.Done()
	var tick <-chan time.Time
	if ticker != nil {
		defer ticker.Stop()
		tick = ticker.C()
	}
	for {
		select {
		case <-l.kick:
			l.drain()
		case <-tick:
			l.syncDirty()
		case <-l.quit:
			// Close refuses appends before it signals quit, so this drain
			// takes the last of them.
			l.drain()
			if l.opts.Sync != SyncNone {
				l.syncDirty()
			}
			return
		}
	}
}

// syncDirty is the interval and closing fsync. A failed one fails the log
// closed and is never retried: a retried fsync can report success after the
// kernel dropped the dirty pages the failed one covered. Its records were
// acknowledged when they were written, so they cannot be refused; Close
// reports the failure instead.
func (l *Log) syncDirty() {
	if !l.dirty {
		return
	}
	l.dirty = false
	if err := l.sync(); err != nil {
		l.syncErr = err
		l.mu.Lock()
		if l.failed == nil {
			l.failed = err
		}
		l.mu.Unlock()
	}
}

// drain is one group commit: it swaps the fill buffer out, writes it, and
// publishes the outcome to the appenders waiting in Append.
func (l *Log) drain() {
	l.mu.Lock()
	buf, err := l.fill, l.failed
	l.fill, l.spare = l.spare, nil
	recs := int(l.appended - l.drained)
	l.drained = l.appended
	l.mu.Unlock()

	if err == nil && recs > 0 {
		err = l.commit(buf, recs)
	}

	l.mu.Lock()
	if l.failed == nil {
		l.failed = err
	}
	l.done = l.drained
	if err == nil {
		l.ok = l.drained
	}
	l.durable.Broadcast()
	if cap(buf) <= maxIdleFill {
		l.spare = buf[:0]
	}
	l.mu.Unlock()
}

// commit writes one drain of recs records, rotating first if it would
// overflow the segment, and fsyncs it under SyncAlways. A drain whose write
// or fsync fails is cut back off the segment before the log fails closed,
// so a restart never replays a record its appender was refused; the fsync
// is never retried, since a failed one may have dropped the dirty pages it
// reported on. Only a failing truncate leaves the records behind.
func (l *Log) commit(buf []byte, recs int) error {
	if l.segSize > 0 && l.segSize+int64(len(buf)) > l.opts.SegmentBytes {
		if err := l.rotate(); err != nil {
			return err
		}
	}
	if err := l.write(buf); err != nil {
		return l.cutBack(err)
	}
	if l.opts.Sync == SyncAlways {
		if err := l.sync(); err != nil {
			return l.cutBack(err)
		}
	} else {
		l.dirty = true
	}
	l.segSize += int64(len(buf))
	l.mAppends.Add(uint64(recs))
	l.mBytes.Add(uint64(len(buf)))
	l.mWrites.Inc()
	return nil
}

// cutBack truncates the segment to where the failed drain began and returns
// the drain's error, joined with the truncate's if that failed too.
func (l *Log) cutBack(err error) error {
	if terr := l.file.Truncate(l.segSize); terr != nil {
		return errors.Join(err, fmt.Errorf("eventlog: truncate after a failed drain: %w", terr))
	}
	return err
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

func (l *Log) write(buf []byte) error {
	if _, err := l.file.Write(buf); err != nil {
		return fmt.Errorf("eventlog: write: %w", err)
	}
	return nil
}

func (l *Log) sync() error {
	if err := l.file.Sync(); err != nil {
		return fmt.Errorf("eventlog: fsync: %w", err)
	}
	l.mFsyncs.Inc()
	return nil
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
// are answered before the writer exits. It returns a failed interval or
// closing fsync, which no append was refused for.
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
	return errors.Join(l.syncErr, l.file.Close())
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
