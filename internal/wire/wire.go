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
// # Trace context
//
// A header may carry causal-trace context. The traceFlag bit in the type
// field marks it; when set, two uvarints — trace ID and parent span ID —
// follow refSeq:
//
//	[u32 length][u16 type|traceFlag][uvarint seq][uvarint refSeq]
//	[uvarint traceID][uvarint spanID][body]
//
// The rule is presence: a header carries the flag exactly when its envelope
// has a non-zero context, whether it heads a frame or a record packed in a
// Batch, so a frame without context has the same bytes as one written
// before tracing existed. Nothing is negotiated: every Conn reads flagged
// and unflagged headers alike. The type field has no other flag; a frame
// that sets another high bit decodes to an unknown type and is refused.
//
// # Batch frames
//
// A Batch frame packs a run of envelopes — each with its own type,
// correlation numbers and optional trace context — into one wire frame, and
// a BatchAck answers a run of Execs in one frame (WriteAcks). Every Conn
// reads both, so a writer packs whenever it has a run to pack.
//
// A Batch is framing, not a message: Next decodes a packed frame all or
// nothing — one malformed record fails the frame's first Next and none of
// its records is delivered — and then returns its records one per call,
// exactly as if each had arrived as a frame of its own. Pending reports
// whether records of the current frame are still to come, which is all a
// reader needs to treat a frame's records as one unit.
//
// # Writing
//
// Every write call — Write, WriteAcks, WriteOutgoing, WriteBatch — assembles
// its frames whole in the Conn's scratch buffer and hands them to the
// transport in one Write, so a transport that acts on each Write as a unit
// (a netsim link duplicates per Write) only ever sees whole frames. A
// shared-body Exec is its header and the member's head followed by the
// broadcast's tail, copied in but not encoded again (see shared.go). The
// first error of a transport Write sticks: every later write call returns it
// without touching the transport, so a frame cut short is never followed by
// another.
//
// Between BeginAttempt and EndAttempt every write call is an attempt instead:
// it assembles its frames the same way but hands them to the transport in at
// most one non-blocking write — the transport's TryWrite (a netsim link takes
// a write whole, or nothing while it hangs), or a write on its file
// descriptor when it is a syscall.Conn (a socket takes what its buffer has
// room for) — and keeps whatever the transport did not take as the Conn's
// tail. The next blocking write call, or Flush, writes the tail first, in one
// Write of its own, so the bytes on the wire are the ones blocking calls would
// have written, in the same order. While a tail is pending an attempt queues
// its frames behind it without touching the transport. An attempt's error
// sticks like any other.
//
// # Records
//
// Next fills a caller's Record: the Envelope of one message, except that the
// three messages of the event path — the origin's Event, and the Exec and
// ExecAck each member receives and returns — are decoded into fields of the
// Record by value, with Msg nil, so the event path boxes none of them. Every
// other message is boxed into Msg. An Event record holds its Path and Name
// but not its Args: Next checks them against the rules decoding enforces and
// copies the Event's Name and Args, as the origin encoded them, into a relay
// body (Record.Relay, a SharedExec) that the server seals and broadcasts
// without decoding (see shared.go). Read is Next plus Record.Box, the one
// step that boxes a by-value message into Msg, for readers that switch on the
// message type; only Read (and Box) ever box an Exec, an Event or an ExecAck,
// and only they decode an Event's Args, out of its relay body.
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
// values, widget states, an Event's relay body — so a Record or Envelope
// stays valid for as long as its holder likes, whatever the Conn reads next.
// Identifier strings (object paths, event names, instance IDs, class names)
// are copied once per connection and shared between the records that repeat
// them, and so are whole lock notices and verdicts: a SetLocks or EventResult
// whose body a Conn has decoded before is the very value it returned then,
// Paths slice included (see intern.go). Decoded messages are therefore
// read-only: a holder may keep one as long as it likes but must not write to
// it, since an earlier or later Next may have returned the same value.
// Payload values are never shared.
//
// The one thing a Record owns outside itself is an Event's relay body, which
// comes from a process-wide pool (LiveSharedBodies counts the ones out). The
// caller of Next owns it from the moment Next returns and must pass it on or
// give it back: the server broadcasts it under its event lock or releases
// it; any other reader calls Record.Release. Box leaves it with
// the record; Read and DecodeEnvelope release it before they return.
package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"syscall"

	"cosoft/internal/attr"
	"cosoft/internal/obs"
)

// traceFlag marks a header that carries trace context. It lives in the type
// field's high bit, far above any assigned message type.
const traceFlag uint16 = 0x8000

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
	// Trace is the causal-trace context the header carried (zero when the
	// sender attached none); see the package comment.
	Trace obs.TraceContext
	// Msg is the decoded payload.
	Msg Message
}

// Record is one decoded message as Next hands it out: the envelope, with the
// three messages of the event path — the Event, the Exec and the ExecAck —
// held by value in their own fields rather than boxed into Msg, which is nil
// for them. Type names the message whichever field holds it. An Event's Args
// stay nil: they are in Relay, the record's relay body, which its holder owns
// (see the package comment); Relay is nil for every other message.
type Record struct {
	Envelope
	Type    Type
	Exec    Exec
	Event   Event
	ExecAck ExecAck
	Relay   *SharedExec
}

// Box returns the record as the Envelope Read returns: its message in Msg,
// boxed there if the record held it by value, which allocates. An Event's
// Args are decoded out of its relay body, which stays with the record.
func (r *Record) Box() Envelope {
	env := r.Envelope
	switch r.Type {
	case TExec:
		env.Msg = r.Exec
	case TEvent:
		ev := r.Event
		if r.Relay != nil {
			ev.Args = r.Relay.args()
		}
		env.Msg = ev
	case TExecAck:
		env.Msg = r.ExecAck
	}
	return env
}

// Release gives back the relay body an Event record owns, if it still has
// one; for any other record it does nothing.
func (r *Record) Release() {
	if r.Relay != nil {
		r.Relay.Release()
		r.Relay = nil
	}
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
	r    *bufio.Reader
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

	// scratch is the buffer a write call assembles its frames in; scratch2
	// stages Batch record bodies (whose length prefixes the bytes). Both shed
	// oversized capacity after use. werr is the first transport write error,
	// which every later write call returns (see the package comment). All
	// three are guarded by wmu.
	scratch  []byte
	scratch2 []byte
	werr     error
	// attempt is set between BeginAttempt and EndAttempt; tail holds the
	// assembled bytes attempts left unsent, which the next blocking write
	// sends first. Both are guarded by wmu. try is the transport's
	// non-blocking write, nil when it has none; it never changes.
	attempt bool
	tail    []byte
	try     TryWriter

	// encoded, when non-nil, accumulates the bytes this Conn serialized
	// (frame headers and bodies, excluding shared-body suffixes it copied
	// in without encoding). Set it before the Conn is written concurrently.
	encoded *obs.Counter
}

// NewConn wraps a net.Conn. The caller retains responsibility for closing.
func NewConn(c net.Conn) *Conn {
	return &Conn{r: bufio.NewReader(c), conn: c, try: tryWriterOf(c)}
}

// EnableTrace does nothing: every header carries the trace context its
// envelope has, on every connection.
//
// Deprecated: kept only for the benchmark module's probe, which calls it at
// bench/probe.go:57; delete it together with that call.
func (c *Conn) EnableTrace() {}

// Close closes the underlying connection.
func (c *Conn) Close() error { return c.conn.Close() }

// RemoteAddr returns the peer address.
func (c *Conn) RemoteAddr() net.Addr { return c.conn.RemoteAddr() }

// CountEncodedBytes routes the byte count of everything this Conn encodes
// (frame headers and bodies; copied-in shared suffixes are excluded, they
// were counted when first encoded) into ctr. Call before the Conn is
// written concurrently; a nil counter (the default) disables counting.
func (c *Conn) CountEncodedBytes(ctr *obs.Counter) { c.encoded = ctr }

// appendHeader appends the header of an envelope whose message has type t:
// the type word, the correlation numbers and the trace context. It writes
// every header there is — a frame's, after its reserved length prefix, and
// each record's in a Batch — so the presence rule lives here alone: the type
// word carries traceFlag, and the trace and span IDs follow, exactly when
// env.Trace is non-zero.
func appendHeader(buf []byte, t Type, env *Envelope) []byte {
	traced := env.Trace != obs.TraceContext{}
	raw := uint16(t)
	if traced {
		raw |= traceFlag
	}
	buf = binary.LittleEndian.AppendUint16(buf, raw)
	buf = binary.AppendUvarint(buf, env.Seq)
	buf = binary.AppendUvarint(buf, env.RefSeq)
	if traced {
		buf = binary.AppendUvarint(buf, uint64(env.Trace.Trace))
		buf = binary.AppendUvarint(buf, uint64(env.Trace.Span))
	}
	return buf
}

// header decodes a header appendHeader wrote into env's correlation numbers
// and trace context and returns the message type. It reads every header
// there is: a frame's, and each record's in a Batch.
func (d *decoder) header(env *Envelope) Type {
	raw := uint16(d.Byte()) | uint16(d.Byte())<<8
	env.Seq, env.RefSeq = d.Uvarint(), d.Uvarint()
	if raw&traceFlag != 0 {
		env.Trace = obs.TraceContext{
			Trace: obs.TraceID(d.Uvarint()),
			Span:  obs.SpanID(d.Uvarint()),
		}
	}
	return Type(raw &^ traceFlag)
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
	c.wmu.Lock()
	defer c.wmu.Unlock()
	frame := append(c.scratch[:0], 0, 0, 0, 0) // length prefix, patched below
	frame = appendHeader(frame, env.Msg.MsgType(), &env)
	frame = env.Msg.encode(frame)
	keepScratch(&c.scratch, frame)
	if err := endFrame(frame, 0); err != nil {
		return err
	}
	return c.send(frame, len(frame)-4)
}

// WriteAcks acknowledges a run of applied Execs, in entry order, without
// boxing a message: a lone entry as the frame Write(Envelope{Trace: e.Trace,
// Msg: ExecAck{EventID: e.EventID}}) puts on the wire, a longer run as the
// frame of Write(Envelope{Msg: BatchAck{Acks: acks}}), split every MaxBatch
// entries. All of it goes out in one transport Write; an empty run writes
// nothing.
func (c *Conn) WriteAcks(acks []BatchAckEntry) error {
	if len(acks) == 0 {
		return nil
	}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	buf := c.scratch[:0]
	frames := 0
	var err error
	for len(acks) > 0 && err == nil {
		run := acks[:min(MaxBatch, len(acks))]
		acks = acks[len(run):]
		start := len(buf)
		buf = append(buf, 0, 0, 0, 0)
		if len(run) == 1 {
			buf = appendHeader(buf, TExecAck, &Envelope{Trace: run[0].Trace})
			buf = ExecAck{EventID: run[0].EventID}.encode(buf)
		} else {
			buf = appendHeader(buf, TBatchAck, &Envelope{})
			buf = BatchAck{Acks: run}.encode(buf)
		}
		err = endFrame(buf, start)
		frames++
	}
	keepScratch(&c.scratch, buf)
	if err != nil {
		return err
	}
	return c.send(buf, len(buf)-4*frames)
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

// appendTail copies se's encoded-once tail onto the frame that starts at
// buf[0]. A tail that would take the frame past MaxFrame is refused with
// ErrFrameTooLarge before it is copied.
func appendTail(buf []byte, se *SharedExec) ([]byte, error) {
	if len(buf)-4+se.TailLen() > MaxFrame {
		return buf, ErrFrameTooLarge
	}
	return append(buf, se.tail()...), nil
}

// send hands buf, whole frames, to the transport and counts the encoded
// bytes among them — everything but the length prefixes and the copied-in
// shared tails. A blocking call writes the pending tail and then buf, one
// Write each; an attempt makes at most one non-blocking write of buf and
// keeps what the transport did not take (see the package comment). It is
// the one place a Conn writes to its transport. The first error it meets is
// kept and returned by every later call, which then leaves the transport
// alone. Callers hold wmu.
func (c *Conn) send(buf []byte, encoded int) error {
	if c.werr != nil {
		return c.werr
	}
	if c.attempt {
		if len(c.tail) == 0 {
			n, err := c.try.TryWrite(buf)
			if err != nil {
				return c.fail(err)
			}
			buf = buf[n:]
		}
		c.tail = append(c.tail, buf...)
		c.encoded.Add(uint64(encoded))
		return nil
	}
	if err := c.writeTail(); err != nil {
		return err
	}
	if _, err := c.conn.Write(buf); err != nil {
		return c.fail(err)
	}
	c.encoded.Add(uint64(encoded))
	return nil
}

// fail makes err the Conn's sticky write error and drops the tail, which can
// never be written now. Callers hold wmu.
func (c *Conn) fail(err error) error {
	c.werr = fmt.Errorf("wire: write frame: %w", err)
	c.tail = c.tail[:0]
	return c.werr
}

// writeTail writes the tail attempts left pending, in one blocking Write.
// Callers hold wmu.
func (c *Conn) writeTail() error {
	if len(c.tail) == 0 {
		return nil
	}
	_, err := c.conn.Write(c.tail)
	keepScratch(&c.tail, c.tail)
	if err != nil {
		return c.fail(err)
	}
	return nil
}

// TryWriter is a transport's non-blocking write: TryWrite writes as much of
// p as the transport takes without blocking and returns how much that was. A
// short count with a nil error means the rest would have blocked.
type TryWriter interface {
	TryWrite(p []byte) (int, error)
}

// tryWriterOf returns the non-blocking write of a transport: its TryWrite,
// or a write on its file descriptor when it is a syscall.Conn; nil when it
// offers neither, as net.Pipe does not.
func tryWriterOf(c net.Conn) TryWriter {
	switch c := c.(type) {
	case TryWriter:
		return c
	case syscall.Conn:
		return rawTryWriter(c)
	}
	return nil
}

// CanAttempt reports whether the transport offers a non-blocking write, so
// that BeginAttempt switches the Conn to attempts.
func (c *Conn) CanAttempt() bool { return c.try != nil }

// BeginAttempt makes every write call an attempt until EndAttempt: at most
// one non-blocking write, whatever it leaves unsent kept as the tail (see the
// package comment). It reports false, and changes nothing, when the
// transport cannot attempt (CanAttempt). An attempt never blocks on the
// transport, though a write call still waits for one in progress.
func (c *Conn) BeginAttempt() bool {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.attempt = c.try != nil
	return c.attempt
}

// EndAttempt makes write calls blocking again and reports whether the
// attempts left a tail for the next blocking write call, or Flush, to send.
func (c *Conn) EndAttempt() bool {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.attempt = false
	return len(c.tail) > 0
}

// Flush writes the tail attempts left pending, in one blocking Write; it
// does nothing when none is. It returns the Conn's sticky write error, if
// any.
func (c *Conn) Flush() error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if c.werr != nil {
		return c.werr
	}
	return c.writeTail()
}

// WriteOutgoing sends one queued record. A record without a shared body is
// a plain Write; one with a shared body is its header and the member's head
// followed by the shared suffix, copied in without being encoded again.
// Either way the bytes on the wire are identical to Write(o.Env).
func (c *Conn) WriteOutgoing(o Outgoing) error {
	if o.Shared == nil {
		return c.Write(o.Env)
	}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	buf := append(c.scratch[:0], 0, 0, 0, 0)
	buf = appendHeader(buf, TExec, &o.Env)
	buf = o.Shared.appendHead(buf, o.Target)
	buf, err := appendTail(buf, o.Shared)
	if err == nil {
		err = endFrame(buf, 0)
	}
	keepScratch(&c.scratch, buf)
	if err != nil {
		return err
	}
	return c.send(buf, len(buf)-4-o.Shared.TailLen())
}

// WriteBatch packs a run of records into one Batch frame, byte-identical to
// Write(Envelope{Msg: Batch{Envelopes: materialized}}) but with every shared
// body suffix copied in rather than encoded again. A run whose packed body
// would exceed MaxFrame is rejected with ErrFrameTooLarge before anything
// reaches the wire, so callers can split and retry.
func (c *Conn) WriteBatch(recs []Outgoing) error {
	if len(recs) == 0 {
		return errors.New("wire: empty batch")
	}
	if len(recs) > MaxBatch {
		return errors.New("wire: batch too long")
	}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	buf := append(c.scratch[:0], 0, 0, 0, 0)
	// The outer envelope is fire-and-forget and never carries context of its
	// own (each record keeps its own), matching the materialized form.
	buf = appendHeader(buf, TBatch, &Envelope{})
	buf = binary.AppendUvarint(buf, uint64(len(recs)))
	copied := 0
	var err error
	for i := 0; i < len(recs) && err == nil; i++ {
		env, se := &recs[i].Env, recs[i].Shared
		switch {
		case se != nil:
			target := recs[i].Target
			buf = appendHeader(buf, TExec, env)
			buf = binary.AppendUvarint(buf, uint64(se.headLen(target)+se.TailLen()))
			buf = se.appendHead(buf, target)
			buf, err = appendTail(buf, se)
			copied += se.TailLen()
		case env.Msg != nil:
			body := env.Msg.encode(c.scratch2[:0])
			keepScratch(&c.scratch2, body)
			buf = appendHeader(buf, env.Msg.MsgType(), env)
			buf = binary.AppendUvarint(buf, uint64(len(body)))
			buf = append(buf, body...)
		default:
			err = errors.New("wire: nil message in batch")
		}
	}
	if err == nil {
		err = endFrame(buf, 0)
	}
	keepScratch(&c.scratch, buf)
	if err != nil {
		return err
	}
	return c.send(buf, len(buf)-4-copied)
}

// readBody reads the n-byte body of the next frame: into the retained buffer
// when it is large enough, a grown one (doubling, so a stream of slowly
// lengthening frames settles after a few) when the frame still fits under the
// retention cap, and anything larger into a one-off buffer that grows with
// the bytes that arrive, so a length prefix alone costs no more than the
// bytes behind it.
func (c *Conn) readBody(n int) ([]byte, error) {
	if n > maxConnScratch {
		var b bytes.Buffer
		if _, err := io.CopyN(&b, c.r, int64(n)); err != nil {
			return nil, err
		}
		return b.Bytes(), nil
	}
	if n > cap(c.rbuf) {
		c.rbuf = make([]byte, max(n, min(2*cap(c.rbuf), maxConnScratch), minFrameBuf))
	}
	_, err := io.ReadFull(c.r, c.rbuf[:n])
	return c.rbuf[:n], err
}

// Next reads and decodes one record into rec, overwriting every field of it:
// the next record of the current Batch frame while Pending reports true, else
// the next frame's message or, for a Batch frame, its first record. An Exec,
// an Event or an ExecAck is decoded into its field of rec and nothing is
// boxed for it; an Event comes with its relay body, which the caller owns.
// Next returns io.EOF (possibly wrapped) when the peer closed cleanly between
// frames, and leaves rec zero on any error. The frame is read into a buffer
// the next call reuses; rec holds no reference to it (see the package
// comment's ownership rule).
func (c *Conn) Next(rec *Record) error {
	if c.Pending() {
		c.nextRecord(rec)
		return nil
	}
	*rec = Record{}
	if _, err := io.ReadFull(c.r, c.rlen[:]); err != nil {
		return err
	}
	n := binary.LittleEndian.Uint32(c.rlen[:])
	if n > MaxFrame {
		return ErrFrameTooLarge
	}
	body, err := c.readBody(int(n))
	if err != nil {
		return fmt.Errorf("wire: read frame body: %w", err)
	}
	d := decoder{Reader: attr.NewReader(body)}
	t := d.header(&rec.Envelope)
	if err := d.Err(); err != nil {
		*rec = Record{}
		return err
	}
	if t == TBatch {
		// The outer envelope of a packed frame carries nothing of its own:
		// every record has its own correlation numbers and trace context.
		run, err := decodeRun(c.run, d.Rest(), &c.idents, &c.notices)
		c.run = run
		if err != nil {
			*rec = Record{}
			return err
		}
		c.nextRecord(rec)
		return nil
	}
	if err := decodeRecord(rec, t, d.Rest(), &c.idents, &c.notices); err != nil {
		*rec = Record{}
		return err
	}
	return nil
}

// Read is Next with the record boxed into an Envelope (see Record.Box), for
// readers that switch on the message type: an Exec, Event or ExecAck read
// this way costs its box, and an Event's relay body is released.
func (c *Conn) Read() (Envelope, error) {
	var rec Record
	if err := c.Next(&rec); err != nil {
		return Envelope{}, err
	}
	env := rec.Box()
	rec.Release()
	return env, nil
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
