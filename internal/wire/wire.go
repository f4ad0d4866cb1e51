// Package wire implements the framed binary protocol spoken between
// application instances and the central coupling server.
//
// Frame layout:
//
//	[u32 length][u16 type][uvarint seq][uvarint refSeq][body]
//
// length counts everything after the length field. seq is a sender-assigned
// message number; replies carry the request's seq in refSeq so callers can
// correlate responses without per-message bookkeeping fields.
//
// # Trace extension
//
// Frames may carry causal-trace context. The extension is signalled by the
// traceFlag bit in the type field; when set, two uvarints — trace ID and
// parent span ID — follow refSeq:
//
//	[u32 length][u16 type|traceFlag][uvarint seq][uvarint refSeq]
//	[uvarint traceID][uvarint spanID][body]
//
// The encoding is backward compatible both ways: untraced frames are
// byte-identical to the pre-trace protocol, and a Conn only emits flagged
// frames to peers that have proven they understand them. A side that opted
// in with EnableTrace (connection initiators, which speak first) flags every
// frame it writes — context-free frames carry zero IDs — which announces
// the capability to the acceptor from the first frame onward; an acceptor
// latches that on Read and from then on flags the frames that carry
// context. A legacy peer neither opts in nor sends flagged frames, so it
// never sees the flag and a legacy stream decodes exactly as before.
//
// # Batch extension
//
// The batchFlag bit in the type field is negotiated exactly like traceFlag:
// an initiator that opts in with EnableBatch flags every frame it writes,
// announcing that it understands the Batch and BatchAck message types; an
// acceptor latches the capability on Read. The flag itself changes nothing
// about the frame layout — it is pure capability advertisement. Only once
// BatchAware reports true may a side send a Batch frame, which packs a run
// of envelopes (each with its own type, correlation numbers, and optional
// trace context) into one wire frame, and a BatchAck, which answers a run of
// Execs in one frame (WriteAcks). Legacy peers never advertise the bit and
// therefore keep receiving, and sending, plain single-message frames.
//
// A Batch is framing, not a message: Next decodes a packed frame all or
// nothing — one malformed record fails the frame's first Next and none of
// its records is delivered — and then returns its records one per call,
// exactly as if each had arrived as a frame of its own. Pending reports
// whether records of the current frame are still to come, which is all a
// reader needs to treat a frame's records as one unit.
//
// # Records
//
// Next fills a caller's Record: the Envelope of one message, except that the
// three messages of the event path — the origin's Event, and the Exec and
// ExecAck each member receives and returns — are decoded into fields of the
// Record by value, with Msg nil, so the event path boxes none of them. Every
// other message is boxed into Msg. Read is Next plus Record.Box, the one step
// that boxes a by-value message into Msg, for readers that switch on the
// message type; only Read (and Box) ever box an Exec, an Event or an ExecAck.
//
// # Buffer ownership
//
// Next decodes every frame out of one per-Conn buffer that the next call
// overwrites, and a Batch record is decoded from a view into it; the decoded
// records wait in a run array of Records the Conn reuses for the next packed
// frame. The rule that makes this safe: a decoded Record never aliases the
// frame buffer or the run array, and Next copies it out whole, so it — and
// the Envelope Read boxes from it — outlives both the rest of its run and the
// next frame; a caller may reuse its Record for the next call, which
// overwrites every field.
// Every decoder copies what it keeps — strings, byte payloads, attribute
// values, widget states — so a Record or Envelope stays valid for as long as
// its holder likes, whatever the Conn reads next. Identifier strings (object
// paths, event names, instance IDs, class names) are copied once per
// connection and shared between the records that repeat them, and so are
// whole lock notices and verdicts: a SetLocks or EventResult whose body a
// Conn has decoded before is the very value it returned then, Paths slice
// included (see intern.go). Decoded messages are therefore read-only: a
// holder may keep one as long as it likes but must not write to it, since an
// earlier or later Next may have returned the same value. Payload values are
// never shared.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"

	"cosoft/internal/obs"
)

// traceFlag marks a frame whose header carries trace context. It lives in
// the type field's high bit, far above any assigned message type.
const traceFlag uint16 = 0x8000

// batchFlag advertises the batch capability (see the package comment). Like
// traceFlag it lives far above any assigned message type; unlike traceFlag
// it never changes the layout of the frame that carries it.
const batchFlag uint16 = 0x4000

// flagMask covers every extension bit that may decorate the type field.
const flagMask = traceFlag | batchFlag

// MaxFrame is the largest accepted frame body. Larger length prefixes are
// treated as protocol errors rather than allocation requests.
const MaxFrame = 16 << 20

// ErrFrameTooLarge is returned when a peer announces an oversized frame.
var ErrFrameTooLarge = errors.New("wire: frame exceeds maximum size")

// Envelope is one framed message with its correlation numbers.
type Envelope struct {
	// Seq is the sender-assigned message number (0 allowed for
	// fire-and-forget messages).
	Seq uint64
	// RefSeq echoes the Seq of the request this message replies to; 0 when
	// the message is not a reply.
	RefSeq uint64
	// Trace is the causal-trace context the frame carried (zero when the
	// sender attached none). On outgoing envelopes it is only encoded for
	// trace-aware peers; see the package comment.
	Trace obs.TraceContext
	// Msg is the decoded payload.
	Msg Message
}

// Record is one decoded message as Next hands it out: the envelope, with the
// three messages of the event path — the Event, the Exec and the ExecAck —
// held by value in their own fields rather than boxed into Msg, which is nil
// for them. Type names the message whichever field holds it.
type Record struct {
	Envelope
	Type    Type
	Exec    Exec
	Event   Event
	ExecAck ExecAck
}

// Box returns the record as the Envelope Read returns: its message in Msg,
// boxed there if the record held it by value, which allocates.
func (r *Record) Box() Envelope {
	env := r.Envelope
	switch r.Type {
	case TExec:
		env.Msg = r.Exec
	case TEvent:
		env.Msg = r.Event
	case TExecAck:
		env.Msg = r.ExecAck
	}
	return env
}

// maxConnScratch caps the capacity of the per-conn encode and frame buffers
// retained between calls, so one oversized frame does not pin its buffer
// forever.
const maxConnScratch = 64 << 10

// minFrameBuf is the smallest frame buffer a Conn allocates; event-path
// frames (an Exec with a short payload, a two-record Batch) fit in it.
const minFrameBuf = 512

// maxIdleRun caps the capacity (in records) of the run array a Conn keeps
// once a packed frame is drained, so one long frame does not pin its records'
// array for the life of the connection.
const maxIdleRun = 256

// Conn wraps a stream connection with framing and concurrent-safe writes.
// Reads must be performed by a single goroutine.
type Conn struct {
	wmu  sync.Mutex
	rw   *bufio.ReadWriter
	conn net.Conn

	// rlen and rbuf hold the length prefix and the body of the frame being
	// read, idents the identifier strings already seen on this connection and
	// notices the lock notices and verdicts already decoded on it. All four
	// belong to the single reading goroutine; frames above maxConnScratch get
	// a one-off buffer instead of growing rbuf.
	rlen    [4]byte
	rbuf    []byte
	idents  internTable
	notices noticeMemo
	// run holds the decoded records of the last Batch frame and next the
	// index of the one Next returns next; also the reading goroutine's. A
	// handed-out slot is zeroed, and a drained array over maxIdleRun records
	// is dropped.
	run  []Record
	next int

	// scratch is the reusable frame-encode buffer; scratch2 stages Batch
	// record bodies (whose length prefixes the bytes). Both are guarded by
	// wmu and shed oversized capacity after use.
	scratch  []byte
	scratch2 []byte
	// vec and cuts are the reusable vectored-write assembly for shared-body
	// frames; vecw is the consumable copy WriteTo advances (a field so the
	// header does not escape per write); coalesce flattens the assembly into
	// one Write on transports without writev support (all guarded by wmu).
	vec      net.Buffers
	vecw     net.Buffers
	cuts     []bodyCut
	coalesce []byte

	// encoded, when non-nil, accumulates the bytes this Conn serialized
	// (frame headers and bodies, excluding shared-body suffixes it spliced
	// in without encoding). Set it before the Conn is written concurrently.
	encoded *obs.Counter

	// sendTrace is the local opt-in (connection initiators call EnableTrace
	// before speaking); peerTrace latches once the peer sends a traced
	// frame. Either one licenses traced output.
	sendTrace atomic.Bool
	peerTrace atomic.Bool

	// sendBatch/peerBatch mirror the trace pair for the batch capability:
	// the local opt-in flags every outgoing frame with batchFlag, and the
	// peer's flag latches on Read. Either one licenses Batch frames.
	sendBatch atomic.Bool
	peerBatch atomic.Bool
}

// bodyCut marks where a shared-body suffix splices into the contiguous
// scratch bytes of a frame under assembly.
type bodyCut struct {
	off  int    // scratch offset the tail is inserted at
	tail []byte // the shared suffix bytes
}

// NewConn wraps a net.Conn. The caller retains responsibility for closing.
func NewConn(c net.Conn) *Conn {
	return &Conn{
		rw:   bufio.NewReadWriter(bufio.NewReader(c), bufio.NewWriter(c)),
		conn: c,
	}
}

// EnableTrace opts this side into the trace extension: every outgoing
// envelope is encoded with the traceFlag (zero IDs when it carries no
// context), announcing the capability to the peer. Only connection
// initiators (who speak first) should call it; acceptors instead wait for
// the peer to prove trace awareness, which Read latches automatically. Do
// not enable when the remote peer may predate the extension.
func (c *Conn) EnableTrace() { c.sendTrace.Store(true) }

// TraceAware reports whether traced frames may be sent on this connection:
// the local side opted in, or the peer has already sent one.
func (c *Conn) TraceAware() bool { return c.sendTrace.Load() || c.peerTrace.Load() }

// EnableBatch opts this side into the batch extension: every outgoing frame
// carries the batchFlag capability bit, announcing that Batch frames are
// understood. Like EnableTrace it is for connection initiators only; do not
// enable when the remote peer may predate the extension.
func (c *Conn) EnableBatch() { c.sendBatch.Store(true) }

// BatchAware reports whether Batch frames may be sent on this connection:
// the local side opted in, or the peer has advertised the capability.
func (c *Conn) BatchAware() bool { return c.sendBatch.Load() || c.peerBatch.Load() }

// Close closes the underlying connection.
func (c *Conn) Close() error { return c.conn.Close() }

// RemoteAddr returns the peer address.
func (c *Conn) RemoteAddr() net.Addr { return c.conn.RemoteAddr() }

// CountEncodedBytes routes the byte count of everything this Conn encodes
// (frame headers and bodies; spliced-in shared suffixes are excluded, they
// were counted when first encoded) into ctr. Call before the Conn is
// written concurrently; a nil counter (the default) disables counting.
func (c *Conn) CountEncodedBytes(ctr *obs.Counter) { c.encoded = ctr }

// outFlags computes the type field of an outgoing frame: the message type
// decorated with the trace flag (an opted-in side flags every frame — even
// context-free ones, whose IDs encode as two zero bytes — so the peer learns
// the capability from the very first frame; a side that only detected the
// peer flags just the frames that actually carry context) and the batch
// capability bit.
func (c *Conn) outFlags(t Type, tc obs.TraceContext) (raw uint16, traced bool) {
	traced = c.sendTrace.Load() || (c.peerTrace.Load() && tc.Trace != 0)
	raw = uint16(t)
	if traced {
		raw |= traceFlag
	}
	if c.sendBatch.Load() {
		raw |= batchFlag
	}
	return raw, traced
}

// appendFrameHeader appends the envelope header after the (already
// reserved) length prefix: type word, correlation numbers, trace context.
func appendFrameHeader(buf []byte, raw uint16, traced bool, env Envelope) []byte {
	buf = binary.LittleEndian.AppendUint16(buf, raw)
	buf = binary.AppendUvarint(buf, env.Seq)
	buf = binary.AppendUvarint(buf, env.RefSeq)
	if traced {
		buf = binary.AppendUvarint(buf, uint64(env.Trace.Trace))
		buf = binary.AppendUvarint(buf, uint64(env.Trace.Span))
	}
	return buf
}

// keepScratch retains buf as the conn's reusable encode buffer unless it
// grew past the retention cap.
func keepScratch(slot *[]byte, buf []byte) {
	if cap(buf) > maxConnScratch {
		*slot = nil
		return
	}
	*slot = buf[:0]
}

// Write encodes and sends one envelope. It is safe for concurrent use. The
// frame is encoded into a per-conn scratch buffer reused across writes, so
// steady-state traffic allocates nothing.
func (c *Conn) Write(env Envelope) error {
	if env.Msg == nil {
		return errors.New("wire: nil message")
	}
	raw, traced := c.outFlags(env.Msg.MsgType(), env.Trace)

	c.wmu.Lock()
	defer c.wmu.Unlock()
	frame := append(c.scratch[:0], 0, 0, 0, 0) // length prefix, patched below
	frame = appendFrameHeader(frame, raw, traced, env)
	frame = env.Msg.encode(frame)
	keepScratch(&c.scratch, frame)
	if err := endFrame(frame, 0); err != nil {
		return err
	}
	return c.writeFrames(frame, 1)
}

// WriteAcks acknowledges a run of applied Execs, in entry order, without
// boxing a message: a lone entry as the frame Write(Envelope{Trace: e.Trace,
// Msg: ExecAck{EventID: e.EventID}}) puts on the wire, a longer run as the
// frame of Write(Envelope{Msg: BatchAck{Acks: acks}}) — split every MaxBatch
// entries — once BatchAware reports true, and as one ExecAck frame per entry
// to a peer that has not negotiated batching. All of it goes out in one
// flush; an empty run writes nothing.
func (c *Conn) WriteAcks(acks []BatchAckEntry) error {
	if len(acks) == 0 {
		return nil
	}
	chunk := 1
	if c.BatchAware() {
		chunk = MaxBatch
	}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	buf := c.scratch[:0]
	frames := 0
	var err error
	for len(acks) > 0 && err == nil {
		run := acks[:min(chunk, len(acks))]
		acks = acks[len(run):]
		start := len(buf)
		buf = append(buf, 0, 0, 0, 0)
		if len(run) == 1 {
			raw, traced := c.outFlags(TExecAck, run[0].Trace)
			buf = appendFrameHeader(buf, raw, traced, Envelope{Trace: run[0].Trace})
			buf = ExecAck{EventID: run[0].EventID}.encode(buf)
		} else {
			raw, traced := c.outFlags(TBatchAck, obs.TraceContext{})
			buf = appendFrameHeader(buf, raw, traced, Envelope{})
			buf = BatchAck{Acks: run}.encode(buf)
		}
		err = endFrame(buf, start)
		frames++
	}
	keepScratch(&c.scratch, buf)
	if err != nil {
		return err
	}
	return c.writeFrames(buf, frames)
}

// endFrame patches the length prefix of the frame that starts at
// buf[start:] and runs to the end of buf.
func endFrame(buf []byte, start int) error {
	n := len(buf) - start - 4
	if n > MaxFrame {
		return ErrFrameTooLarge
	}
	binary.LittleEndian.PutUint32(buf[start:], uint32(n))
	return nil
}

// writeFrames sends buf, which holds the given number of complete frames, in
// one flush and counts what was encoded (everything but the length
// prefixes). Callers hold wmu.
func (c *Conn) writeFrames(buf []byte, frames int) error {
	if _, err := c.rw.Write(buf); err != nil {
		return fmt.Errorf("wire: write frame: %w", err)
	}
	if err := c.rw.Flush(); err != nil {
		return fmt.Errorf("wire: flush: %w", err)
	}
	c.encoded.Add(uint64(len(buf) - 4*frames))
	return nil
}

// WriteOutgoing sends one queued record. A record without a shared body is
// a plain Write; one with a shared body is framed as [header+head][shared
// suffix] and flushed with a vectored write, so the suffix bytes are neither
// re-encoded nor copied. Either way the bytes on the wire are identical to
// Write(o.Env).
func (c *Conn) WriteOutgoing(o Outgoing) error {
	if o.Shared == nil {
		return c.Write(o.Env)
	}
	raw, traced := c.outFlags(TExec, o.Env.Trace)

	c.wmu.Lock()
	defer c.wmu.Unlock()
	head := append(c.scratch[:0], 0, 0, 0, 0)
	head = appendFrameHeader(head, raw, traced, o.Env)
	head = o.Shared.appendHead(head, o.Target)
	keepScratch(&c.scratch, head)
	tail := o.Shared.tail()
	n := len(head) - 4 + len(tail)
	if n > MaxFrame {
		return ErrFrameTooLarge
	}
	binary.LittleEndian.PutUint32(head[:4], uint32(n))
	if err := c.writeVectored(append(c.vec[:0], head, tail)); err != nil {
		return err
	}
	c.encoded.Add(uint64(len(head) - 4))
	return nil
}

// WriteBatch packs a run of records into one Batch frame, byte-identical to
// Write(Envelope{Msg: Batch{Envelopes: materialized}}) but with every shared
// body suffix spliced in by reference: the contiguous parts (outer header,
// record headers, per-member heads, plain bodies) are encoded into scratch
// and the suffixes are scatter-gathered between them with net.Buffers. A
// run whose packed body would exceed MaxFrame is rejected with
// ErrFrameTooLarge before anything reaches the wire, so callers can split
// and retry.
func (c *Conn) WriteBatch(recs []Outgoing) error {
	if len(recs) == 0 {
		return errors.New("wire: empty batch")
	}
	if len(recs) > MaxBatch {
		return errors.New("wire: batch too long")
	}
	// The outer envelope is fire-and-forget and never carries context of its
	// own (each record keeps its own), matching the materialized form.
	raw, traced := c.outFlags(TBatch, obs.TraceContext{})

	c.wmu.Lock()
	defer c.wmu.Unlock()
	buf := append(c.scratch[:0], 0, 0, 0, 0)
	buf = appendFrameHeader(buf, raw, traced, Envelope{})
	buf = binary.AppendUvarint(buf, uint64(len(recs)))
	cuts := c.cuts[:0]
	spliced := 0
	for i := range recs {
		env := &recs[i].Env
		se := recs[i].Shared
		var it uint16
		if se != nil {
			it = uint16(TExec)
		} else if env.Msg != nil {
			it = uint16(env.Msg.MsgType())
		} else {
			keepScratch(&c.scratch, buf)
			c.cuts = cuts[:0]
			return errors.New("wire: nil message in batch")
		}
		// Inner records flag trace context by presence, independent of the
		// connection's negotiation — exactly as Batch.encode does.
		rt := env.Trace.Trace != 0 || env.Trace.Span != 0
		if rt {
			it |= traceFlag
		}
		buf = binary.LittleEndian.AppendUint16(buf, it)
		buf = binary.AppendUvarint(buf, env.Seq)
		buf = binary.AppendUvarint(buf, env.RefSeq)
		if rt {
			buf = binary.AppendUvarint(buf, uint64(env.Trace.Trace))
			buf = binary.AppendUvarint(buf, uint64(env.Trace.Span))
		}
		if se != nil {
			target := recs[i].Target
			buf = binary.AppendUvarint(buf, uint64(se.headLen(target)+se.TailLen()))
			buf = se.appendHead(buf, target)
			cuts = append(cuts, bodyCut{off: len(buf), tail: se.tail()})
			spliced += se.TailLen()
		} else {
			body := env.Msg.encode(c.scratch2[:0])
			keepScratch(&c.scratch2, body)
			buf = binary.AppendUvarint(buf, uint64(len(body)))
			buf = append(buf, body...)
		}
	}
	keepScratch(&c.scratch, buf)
	c.cuts = cuts[:0]
	n := len(buf) - 4 + spliced
	if n > MaxFrame {
		return ErrFrameTooLarge
	}
	binary.LittleEndian.PutUint32(buf[:4], uint32(n))

	// Assemble the vectored write: contiguous scratch runs interleaved with
	// the shared suffixes, in wire order. buf is complete — no append moves
	// it — so the sub-slices stay valid.
	bufs := c.vec[:0]
	prev := 0
	for _, cut := range cuts {
		bufs = append(bufs, buf[prev:cut.off], cut.tail)
		prev = cut.off
	}
	if prev < len(buf) {
		bufs = append(bufs, buf[prev:])
	}
	if err := c.writeVectored(bufs); err != nil {
		return err
	}
	c.encoded.Add(uint64(len(buf) - 4))
	return nil
}

// vectoredConn reports whether conn supports true scatter-gather writes
// (writev). On anything else net.Buffers.WriteTo degrades to one Write call
// per span, which would break transports that treat each Write as one frame
// — faultnet's per-write fault injection and similar test wrappers — by
// letting a dropped or duplicated "frame" be half of a real one.
func vectoredConn(conn net.Conn) bool {
	switch conn.(type) {
	case *net.TCPConn, *net.UnixConn:
		return true
	}
	return false
}

// writeVectored flushes any buffered output, then writes the assembled
// spans directly to the underlying connection: one vectored write (writev)
// on TCP, or one coalesced Write on transports without writev so the
// frame-per-Write invariant holds everywhere. Callers must hold wmu and
// build bufs from c.vec[:0]; the backing array is retained for the next
// frame while WriteTo consumes bufs itself.
func (c *Conn) writeVectored(bufs net.Buffers) error {
	c.vec = bufs[:0]
	if err := c.rw.Flush(); err != nil {
		return fmt.Errorf("wire: flush: %w", err)
	}
	if !vectoredConn(c.conn) {
		flat := c.coalesce[:0]
		for _, b := range bufs {
			flat = append(flat, b...)
		}
		keepScratch(&c.coalesce, flat)
		if _, err := c.conn.Write(flat); err != nil {
			return fmt.Errorf("wire: write frame: %w", err)
		}
		return nil
	}
	c.vecw = bufs
	if _, err := c.vecw.WriteTo(c.conn); err != nil {
		return fmt.Errorf("wire: write frame: %w", err)
	}
	return nil
}

// frameBuf returns the n-byte buffer the next frame body is read into: the
// retained one when it is large enough, a grown one (doubling, so a stream of
// slowly lengthening frames settles after a few) when the frame still fits
// under the retention cap, and a one-off allocation for anything larger.
func (c *Conn) frameBuf(n int) []byte {
	if n <= cap(c.rbuf) {
		return c.rbuf[:n]
	}
	if n > maxConnScratch {
		return make([]byte, n)
	}
	c.rbuf = make([]byte, max(n, min(2*cap(c.rbuf), maxConnScratch), minFrameBuf))
	return c.rbuf[:n]
}

// Next reads and decodes one record into rec, overwriting every field of it:
// the next record of the current Batch frame while Pending reports true, else
// the next frame's message or, for a Batch frame, its first record. An Exec,
// an Event or an ExecAck is decoded into its field of rec and nothing is
// boxed for it. Next returns io.EOF (possibly wrapped) when the peer closed
// cleanly between frames, and leaves rec zero on any error. The frame is read
// into a buffer the next call reuses; rec holds no reference to it (see the
// package comment's ownership rule).
func (c *Conn) Next(rec *Record) error {
	if c.Pending() {
		c.nextRecord(rec)
		return nil
	}
	*rec = Record{}
	if _, err := io.ReadFull(c.rw, c.rlen[:]); err != nil {
		return err
	}
	n := binary.LittleEndian.Uint32(c.rlen[:])
	if n > MaxFrame {
		return ErrFrameTooLarge
	}
	if n < 4 {
		return fmt.Errorf("wire: frame too short (%d bytes)", n)
	}
	body := c.frameBuf(int(n))
	if _, err := io.ReadFull(c.rw, body); err != nil {
		return fmt.Errorf("wire: read frame body: %w", err)
	}
	rawType := binary.LittleEndian.Uint16(body)
	t := Type(rawType &^ flagMask)
	body = body[2:]
	if rawType&batchFlag != 0 {
		// The peer advertises batch capability; replies may pack frames.
		c.peerBatch.Store(true)
	}
	seq, sz := binary.Uvarint(body)
	if sz <= 0 {
		return errors.New("wire: bad seq")
	}
	body = body[sz:]
	refSeq, sz := binary.Uvarint(body)
	if sz <= 0 {
		return errors.New("wire: bad refSeq")
	}
	body = body[sz:]
	var tc obs.TraceContext
	if rawType&traceFlag != 0 {
		traceID, sz := binary.Uvarint(body)
		if sz <= 0 {
			return errors.New("wire: bad trace id")
		}
		body = body[sz:]
		spanID, sz := binary.Uvarint(body)
		if sz <= 0 {
			return errors.New("wire: bad span id")
		}
		body = body[sz:]
		tc = obs.TraceContext{Trace: obs.TraceID(traceID), Span: obs.SpanID(spanID)}
		// The peer speaks the extension; replies to it may carry traces.
		c.peerTrace.Store(true)
	}
	if t == TBatch {
		// The outer envelope of a packed frame carries nothing of its own:
		// every record has its own correlation numbers and trace context.
		run, err := decodeRun(c.run, body, &c.idents, &c.notices)
		c.run = run
		if err != nil {
			return err
		}
		c.nextRecord(rec)
		return nil
	}
	rec.Envelope = Envelope{Seq: seq, RefSeq: refSeq, Trace: tc}
	if err := decodeRecord(rec, t, body, &c.idents, &c.notices); err != nil {
		*rec = Record{}
		return err
	}
	return nil
}

// Read is Next with the record boxed into an Envelope (see Record.Box), for
// readers that switch on the message type: an Exec, Event or ExecAck read
// this way costs its box.
func (c *Conn) Read() (Envelope, error) {
	var rec Record
	if err := c.Next(&rec); err != nil {
		return Envelope{}, err
	}
	return rec.Box(), nil
}

// Pending reports whether records of the Batch frame the last Next came from
// are still to be returned: while it does, the next Next (or Read) returns the
// next of them without touching the connection.
func (c *Conn) Pending() bool { return c.next < len(c.run) }

// nextRecord hands out the next record of the current run into rec and
// zeroes its slot. Once the run is drained the array is kept for the next
// packed frame, unless a long frame grew it past maxIdleRun.
func (c *Conn) nextRecord(rec *Record) {
	*rec = c.run[c.next]
	c.run[c.next] = Record{}
	c.next++
	if c.next == len(c.run) {
		c.run, c.next = c.run[:0], 0
		if cap(c.run) > maxIdleRun {
			c.run = nil
		}
	}
}

// Pipe returns a connected pair of Conns backed by net.Pipe, for in-process
// transports in tests and benchmarks.
func Pipe() (*Conn, *Conn) {
	a, b := net.Pipe()
	return NewConn(a), NewConn(b)
}
