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
// trace context) into one wire frame. Legacy peers never advertise the bit
// and therefore keep receiving plain single-message frames.
//
// # Buffer ownership
//
// Read decodes every frame out of one per-Conn buffer that the next Read
// overwrites, and a Batch record is decoded from a view into it. The rule
// that makes this safe: a decoded Envelope never aliases the frame buffer.
// Every decoder copies what it keeps — strings, byte payloads, attribute
// values, widget states — so an Envelope stays valid for as long as its
// holder likes, whatever the Conn reads next. Identifier strings (object
// paths, event names, instance IDs, class names) are copied once per
// connection and shared between the envelopes that repeat them (see
// intern.go); payload values are never shared.
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

// maxConnScratch caps the capacity of the per-conn encode and frame buffers
// retained between calls, so one oversized frame does not pin its buffer
// forever.
const maxConnScratch = 64 << 10

// minFrameBuf is the smallest frame buffer a Conn allocates; event-path
// frames (an Exec with a short payload, a two-record Batch) fit in it.
const minFrameBuf = 512

// Conn wraps a stream connection with framing and concurrent-safe writes.
// Reads must be performed by a single goroutine.
type Conn struct {
	wmu  sync.Mutex
	rw   *bufio.ReadWriter
	conn net.Conn

	// rlen and rbuf hold the length prefix and the body of the frame being
	// read, and idents the identifier strings already seen on this
	// connection. All three belong to the single reading goroutine; frames
	// above maxConnScratch get a one-off buffer instead of growing rbuf.
	rlen   [4]byte
	rbuf   []byte
	idents internTable

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
	n := len(frame) - 4
	if n > MaxFrame {
		return ErrFrameTooLarge
	}
	binary.LittleEndian.PutUint32(frame[:4], uint32(n))
	if _, err := c.rw.Write(frame); err != nil {
		return fmt.Errorf("wire: write frame: %w", err)
	}
	if err := c.rw.Flush(); err != nil {
		return fmt.Errorf("wire: flush: %w", err)
	}
	c.encoded.Add(uint64(n))
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

// Read reads and decodes one envelope. It returns io.EOF (possibly wrapped)
// when the peer closed cleanly between frames. The frame is read into a
// buffer the next Read reuses; the returned Envelope holds no reference to it
// (see the package comment's ownership rule).
func (c *Conn) Read() (Envelope, error) {
	if _, err := io.ReadFull(c.rw, c.rlen[:]); err != nil {
		return Envelope{}, err
	}
	n := binary.LittleEndian.Uint32(c.rlen[:])
	if n > MaxFrame {
		return Envelope{}, ErrFrameTooLarge
	}
	if n < 4 {
		return Envelope{}, fmt.Errorf("wire: frame too short (%d bytes)", n)
	}
	body := c.frameBuf(int(n))
	if _, err := io.ReadFull(c.rw, body); err != nil {
		return Envelope{}, fmt.Errorf("wire: read frame body: %w", err)
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
		return Envelope{}, errors.New("wire: bad seq")
	}
	body = body[sz:]
	refSeq, sz := binary.Uvarint(body)
	if sz <= 0 {
		return Envelope{}, errors.New("wire: bad refSeq")
	}
	body = body[sz:]
	var tc obs.TraceContext
	if rawType&traceFlag != 0 {
		traceID, sz := binary.Uvarint(body)
		if sz <= 0 {
			return Envelope{}, errors.New("wire: bad trace id")
		}
		body = body[sz:]
		spanID, sz := binary.Uvarint(body)
		if sz <= 0 {
			return Envelope{}, errors.New("wire: bad span id")
		}
		body = body[sz:]
		tc = obs.TraceContext{Trace: obs.TraceID(traceID), Span: obs.SpanID(spanID)}
		// The peer speaks the extension; replies to it may carry traces.
		c.peerTrace.Store(true)
	}
	msg, err := decodeMessage(t, body, &c.idents)
	if err != nil {
		return Envelope{}, err
	}
	return Envelope{Seq: seq, RefSeq: refSeq, Trace: tc, Msg: msg}, nil
}

// Pipe returns a connected pair of Conns backed by net.Pipe, for in-process
// transports in tests and benchmarks.
func Pipe() (*Conn, *Conn) {
	a, b := net.Pipe()
	return NewConn(a), NewConn(b)
}
