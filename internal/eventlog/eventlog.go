// Package eventlog implements the server's durable per-group event log: a
// segmented append-only file set holding every state-mutating hop the server
// acknowledged, so a crashed or restarted server rebuilds its databases by
// replay (commutative event sourcing over the §3.2 event stream).
//
// Records are group-interleaved: each carries the coupling-group key it
// mutates, so one log serializes all appends while replay can still
// attribute every record to its group. An append never does I/O: the
// appender encodes its record straight into the log's fill buffer, framing,
// length and CRC included, and one writer goroutine swaps that buffer out on
// every drain, so whatever accumulated while the previous write was in
// flight goes out as a single write (+ a single fsync under `always`) and
// every appender group-commits. Append blocks until its record reaches its
// durability level (written for `interval`/`none`, written and fsynced for
// `always`); AppendEvent, the server's audit record of an event, never
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
// Open, Fsck and replay read a directory through one listing and one walk,
// and Open acts on Fsck's judgement: it refuses a corrupt directory and
// truncates only a torn tail, the one shape a crash leaves.
package eventlog

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
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
	// KindLease: the server leased event IDs up to a ceiling; no ID at or below
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
// for room in it. Its backlog is bounded by the callers instead. The server
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

// Open opens (creating if needed) the log directory and starts the writer
// goroutine. It judges the directory as Fsck does and acts on the verdict: a
// directory Fsck calls corrupt is refused with Fsck's Detail, and a torn tail
// — the one shape a crash leaves — is truncated off the last segment, which
// appends then continue.
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

// listing is one read of a log directory, by file name: every reader of a
// directory — Open, Fsck, ReplayDirFrom, Compact, Snapshots — works from one.
type listing struct {
	segs  []int64  // segment base offsets, ascending
	snaps []int64  // snapshot file offsets, newest first; read by snapshots
	tmps  []string // snapshot temp files a crash left, never promoted by rename
}

func list(dir string) (listing, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return listing{}, fmt.Errorf("eventlog: %w", err)
	}
	var ls listing
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() {
			continue
		}
		if off, ok := offsetOf(name, segSuffix); ok {
			ls.segs = append(ls.segs, off)
		} else if off, ok := offsetOf(name, snapSuffix); ok {
			ls.snaps = append(ls.snaps, off)
		} else if strings.HasSuffix(name, snapSuffix+".tmp") {
			ls.tmps = append(ls.tmps, name)
		}
	}
	sort.Slice(ls.segs, func(i, j int) bool { return ls.segs[i] < ls.segs[j] })
	sort.Slice(ls.snaps, func(i, j int) bool { return ls.snaps[i] > ls.snaps[j] })
	return ls, nil
}

// offsetOf parses a file name of the form %016x<suffix>.
func offsetOf(name, suffix string) (int64, bool) {
	var off int64
	if filepath.Ext(name) != suffix {
		return 0, false
	}
	_, err := fmt.Sscanf(name, "%016x"+suffix, &off)
	return off, err == nil
}

func segPath(dir string, base int64) string {
	return filepath.Join(dir, fmt.Sprintf("%016x%s", base, segSuffix))
}

// recover sweeps the snapshot temp files a crash left, judges the directory
// (judge), refuses it if corrupt, truncates a torn tail, and opens the last
// segment for append. It never appends below the newest valid snapshot,
// where replay starts: with no segments, or with segments that end short of
// the snapshot (their tail was lost after the snapshot was written), it opens
// a fresh segment at the snapshot's offset, so segment names stay global
// byte offsets, and judge accepts the gap the snapshot covers.
func (l *Log) recover() error {
	ls, err := list(l.dir)
	if err != nil {
		return err
	}
	for _, name := range ls.tmps {
		if err := l.fs.Remove(filepath.Join(l.dir, name)); err != nil {
			return fmt.Errorf("eventlog: %w", err)
		}
	}
	rep, end, err := judge(l.dir, ls)
	if err != nil {
		return err
	}
	if rep.Corrupt {
		return fmt.Errorf("eventlog: %s is corrupt: %s", l.dir, rep.Detail)
	}
	if rep.Snapshots > 0 {
		l.mReplaySnap.Inc()
	}
	base := end
	if n := len(ls.segs); n > 0 {
		base = ls.segs[n-1]
	}
	if err := l.openSegment(base); err != nil {
		return err
	}
	l.segSize = end - base
	if rep.TornTail {
		if err := l.file.Truncate(l.segSize); err != nil {
			l.file.Close()
			return fmt.Errorf("eventlog: truncate torn tail: %w", err)
		}
		l.mTruncated.Inc()
	}
	if rep.SnapshotOffset > end {
		if err := l.file.Close(); err != nil {
			return fmt.Errorf("eventlog: %w", err)
		}
		return l.openSegment(rep.SnapshotOffset)
	}
	return nil
}

// readSegment walks one segment's records from start bytes in, through a
// buffer (walk). The payload is only valid until fn returns.
func readSegment(path string, start int64, fn func(payload []byte) error) (pos int64, clean bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		return start, false, fmt.Errorf("eventlog: %w", err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return start, false, fmt.Errorf("eventlog: %w", err)
	}
	n := st.Size() - start
	return walk(bufio.NewReaderSize(io.NewSectionReader(f, start, n), int(min(n, 64<<10))), start, st.Size(), fn)
}

// walk reads the records r holds from byte pos of a segment size bytes long,
// handing every payload whose length and CRC check out to fn (nil: walk
// only). It returns the offset just past the last such record and whether the
// walk ended exactly at size: clean false means a torn or damaged record
// begins at pos, and nothing behind it is read. No length read from the file
// sizes a buffer past the bytes left in it. An error from fn stops the walk at
// the record it refused.
func walk(r io.Reader, pos, size int64, fn func(payload []byte) error) (int64, bool, error) {
	var hdr [recHeader]byte
	var buf []byte
	for pos < size {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return pos, false, readErr(err)
		}
		n := int64(binary.LittleEndian.Uint32(hdr[0:4]))
		if n == 0 || n > maxPayload || n > size-pos-recHeader {
			return pos, false, nil
		}
		if int64(cap(buf)) < n {
			buf = make([]byte, n)
		}
		buf = buf[:n]
		if _, err := io.ReadFull(r, buf); err != nil {
			return pos, false, readErr(err)
		}
		if crc32.Checksum(buf, crcTable) != binary.LittleEndian.Uint32(hdr[4:8]) {
			return pos, false, nil
		}
		if fn != nil {
			if err := fn(buf); err != nil {
				return pos, false, err
			}
		}
		pos += recHeader + n
	}
	return pos, true, nil
}

// readErr is a failed read's error; a file that ended early — cut back under
// a live reader — is a torn record, not an error.
func readErr(err error) error {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return nil
	}
	return fmt.Errorf("eventlog: %w", err)
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
			// Drain first, so the fsync covers every record queued at the
			// tick and none of them waits behind it unwritten.
			l.drain()
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
// first torn or damaged record and never resyncs behind it. In the last
// segment that stop is clean: on a live directory it may be a record still
// being written. Damage in any earlier segment is an error, as is a record
// that passed its CRC but does not decode, or one fn refuses.
func ReplayDirFrom(dir string, from int64, fn func(Record) error) (int64, error) {
	ls, err := list(dir)
	if err != nil {
		return from, err
	}
	pos, last := from, len(ls.segs)-1
	for i, base := range ls.segs {
		if i < last && ls.segs[i+1] <= pos {
			continue
		}
		if base > pos {
			return pos, fmt.Errorf("eventlog: replay offset %d precedes segment %016x (compacted past it, or a gap in the chain)", pos, base)
		}
		next, clean, err := readSegment(segPath(dir, base), pos-base, func(payload []byte) error {
			rec, err := decodeRecord(payload)
			if err != nil {
				return err
			}
			return fn(rec)
		})
		pos = base + next
		if err != nil {
			return pos, err
		}
		if !clean && i < last {
			return pos, errors.New("eventlog: " + damageBeforeTail(base, next))
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
	// CRC-damaged record with nothing intact behind it — the signature of a
	// crash mid-write, which Open truncates.
	TornTail bool
	// Corrupt is set when acknowledged records are unreadable: a compacted
	// prefix no valid snapshot covers, a gap in the segment chain that the
	// newest valid snapshot does not cover, damage in
	// any segment but the last, or damage in the last segment with intact
	// records behind it that read cleanly to end of file. Open refuses such a
	// directory.
	Corrupt bool
	// Detail describes the first damage found.
	Detail string
}

// Fsck scans a log directory without modifying it and reports what Open
// would decide (judge): Open refuses exactly the directories Fsck calls
// Corrupt, and truncates exactly the tail Fsck calls TornTail.
func Fsck(dir string) (FsckReport, error) {
	ls, err := list(dir)
	if err != nil {
		return FsckReport{SnapshotOffset: -1}, err
	}
	rep, _, err := judge(dir, ls)
	return rep, err
}

// judge is the one judgement over a listed directory, behind both Fsck's
// report and Open's decision. It counts segments, intact records and
// snapshots, and returns with the report the offset just past the last
// intact record (with no segments, the newest snapshot's offset, or zero).
// Corruption is, first found first reported: a directory whose segments
// begin past offset zero (compaction ran) with no valid snapshot covering the
// deleted prefix; a segment that does not begin where the one before it ends,
// unless the newest valid snapshot lies at or past its start, so replay never
// reads the gap (Open leaves one when the segments ended short of that
// snapshot); damage in any segment but the last; and damage in the last segment behind
// which resync finds intact records that read cleanly to end of file. Damage
// in the last segment with nothing intact behind it is a torn tail. A torn
// snapshot is not corruption as long as replay can still reach the acked
// state (an older snapshot or a full segment chain).
func judge(dir string, ls listing) (rep FsckReport, end int64, err error) {
	valid, bad := ls.snapshots(dir)
	rep = FsckReport{Segments: len(ls.segs), Snapshots: len(valid), BadSnapshots: len(bad), SnapshotOffset: -1}
	if len(valid) > 0 {
		rep.SnapshotOffset = valid[0].Offset
		end = rep.SnapshotOffset
	}
	corrupt := func(format string, args ...any) (FsckReport, int64, error) {
		rep.Corrupt = true
		rep.Detail = fmt.Sprintf(format, args...)
		return rep, end, nil
	}
	if len(ls.segs) == 0 {
		if len(valid) == 0 && len(bad) > 0 {
			return corrupt("%d snapshot file(s) unreadable with no segments to replay", len(bad))
		}
		return rep, end, nil
	}
	if first := ls.segs[0]; first > 0 && rep.SnapshotOffset < first {
		return corrupt("segments begin at offset %d with no snapshot covering the compacted prefix", first)
	}
	end = ls.segs[0]
	last := len(ls.segs) - 1
	for i, base := range ls.segs {
		if base != end && (base < end || rep.SnapshotOffset < base) {
			return corrupt("segment %016x does not begin where the previous segment ends (offset %d) — gap in the chain", base, end)
		}
		path := segPath(dir, base)
		n, clean, err := readSegment(path, 0, func([]byte) error {
			rep.Records++
			return nil
		})
		if err != nil {
			return rep, end, err
		}
		end = base + n
		rep.Bytes += n
		if clean {
			continue
		}
		if i < last {
			return corrupt("%s", damageBeforeTail(base, n))
		}
		at, trailing, err := resync(path, n)
		if err != nil {
			return rep, end, err
		}
		if at >= 0 {
			return corrupt("segment %016x: damage at offset %d with intact records from %d to end of file — interior corruption, not a crash tear", base, n, at)
		}
		rep.TornTail = true
		rep.Detail = fmt.Sprintf("segment %016x: torn tail at offset %d (%d trailing bytes)", base, n, trailing)
	}
	if len(bad) > 0 && rep.Detail == "" {
		rep.Detail = fmt.Sprintf("%d snapshot file(s) unreadable (replay falls back to an older snapshot or offset zero)", len(bad))
	}
	return rep, end, nil
}

// damageBeforeTail is the Detail of damage at off in segment base, which is
// not the last.
func damageBeforeTail(base, off int64) string {
	return fmt.Sprintf("segment %016x: damage at offset %d before the tail segment", base, off)
}

// resync looks behind the break at from in the last segment for interior
// corruption: the first offset past it where a record begins and every record
// from there reads cleanly to end of file, or -1 when there is none, and the
// number of bytes from the break to end of file. A crash tears at most the
// one record being appended, with nothing intact behind it. A frame that a
// torn payload happens to carry is followed by the rest of that payload, not
// by records to end of file, so it is no resync.
func resync(path string, from int64) (at, trailing int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return -1, 0, fmt.Errorf("eventlog: %w", err)
	}
	defer f.Close()
	region, err := io.ReadAll(io.NewSectionReader(f, from, 1<<62))
	if err != nil {
		return -1, 0, fmt.Errorf("eventlog: %w", err)
	}
	// The break itself is the torn record; a resync at offset zero would be
	// the valid prefix again, so start one byte in.
	for off := 1; off+recHeader <= len(region); off++ {
		if n := binary.LittleEndian.Uint32(region[off:]); n == 0 || int(n) > len(region)-off-recHeader {
			continue
		}
		rest := region[off:]
		if _, clean, _ := walk(bytes.NewReader(rest), 0, int64(len(rest)), nil); clean {
			return from + int64(off), int64(len(region)), nil
		}
	}
	return -1, int64(len(region)), nil
}
