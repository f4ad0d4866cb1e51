package wire

import (
	"sync"
	"sync/atomic"

	"cosoft/internal/attr"
	"cosoft/internal/couple"
	"cosoft/internal/obs"
)

// This file implements the encode-once broadcast path. A §3.2 event fans an
// Exec out to every coupled member, and all of those frames share one large
// body suffix — the event name, arguments and origin — while only a small
// prefix (frame header, correlation numbers, trace context, event ID and the
// member's own target path) differs per connection. SharedExec encodes the
// common suffix exactly once into a pooled, refcounted buffer; every member
// outbox queues a reference and the flush path writes [header+prefix] and
// then copies the shared suffix in behind it, so the broadcast costs O(1)
// body encodes regardless of fan-out and one memory copy of the suffix per
// member. The bytes that reach each peer are identical to what a plain
// Conn.Write of the materialized Exec would have produced, so the wire
// format — and every reader — is untouched.

// maxPooledBody caps the capacity of bodies returned to the shared-body pool,
// so one huge broadcast does not pin megabytes inside sync.Pool.
const maxPooledBody = 64 << 10

// bodyPool holds released SharedExecs, body buffer and all, for the next
// broadcast.
var bodyPool sync.Pool

// liveBodies counts shared bodies handed out and not yet fully released —
// a leak/double-release oracle for tests.
var liveBodies atomic.Int64

// poolHits/poolMisses are the optional pool instrumentation handles. The
// pool is process-global, so the counters are too: InstrumentBodyPool
// last-writer-wins when several servers run in one process.
var (
	poolHits   atomic.Pointer[obs.Counter]
	poolMisses atomic.Pointer[obs.Counter]
)

// InstrumentBodyPool routes shared-body pool hit/miss counts into the given
// counters (nil handles disable counting at zero cost). The pool is shared
// by every Conn in the process, so the most recent instrumentation wins.
func InstrumentBodyPool(hits, misses *obs.Counter) {
	poolHits.Store(hits)
	poolMisses.Store(misses)
}

// LiveSharedBodies reports how many shared bodies are currently referenced
// anywhere in the process. At quiescence — no broadcast in flight, every
// outbox drained — it must be zero; tests use it as a leak detector.
func LiveSharedBodies() int64 { return liveBodies.Load() }

// SharedExec is one broadcast's Exec payload encoded once. The
// member-independent suffix of the Exec body — Name, Args, Origin — lives in
// a refcounted buffer shared by every member's outbox; only the event ID and
// the member's TargetPath are encoded per member. (EventID is also
// member-independent, but it precedes TargetPath in the Exec body layout, so
// it rides in the per-member head to keep the shared suffix contiguous.)
//
// Lifecycle: NewSharedExec returns the creator's reference. Each outbox that
// enqueues the broadcast takes one more with Ref, and releases it with
// Release exactly once — after the frame is written, or when the record is
// dropped by a connection error, eviction, or a closed outbox. The creator
// calls Release when it has finished enqueueing. When the last reference
// releases, the SharedExec itself, buffer and all, returns to a pool and the
// next broadcast may be handed it, so no holder may touch one after its own
// Release. Release order is enforced: a negative refcount (double release)
// or a Ref of a released SharedExec panics, because either would let two
// broadcasts scribble on the same bytes.
type SharedExec struct {
	eventID uint64
	name    string
	args    []attr.Value
	origin  couple.ObjectRef
	body    []byte
	refs    atomic.Int32
}

// NewSharedExec encodes the shared suffix of the broadcast's Exec body and
// returns it holding one (the creator's) reference.
func NewSharedExec(eventID uint64, name string, args []attr.Value, origin couple.ObjectRef) *SharedExec {
	liveBodies.Add(1)
	se, _ := bodyPool.Get().(*SharedExec)
	if se != nil {
		poolHits.Load().Inc()
	} else {
		poolMisses.Load().Inc()
		se = &SharedExec{}
	}
	se.eventID, se.name, se.args, se.origin = eventID, name, args, origin
	se.body = appendString(se.body[:0], name)
	se.body = appendValues(se.body, args)
	se.body = appendObjectRef(se.body, origin)
	se.refs.Store(1)
	return se
}

// Exec materializes the full message for one member — a struct copy sharing
// the Args slice, no encoding. Encoding the result yields exactly
// head(targetPath) + the shared suffix.
func (se *SharedExec) Exec(targetPath string) Exec {
	return Exec{EventID: se.eventID, TargetPath: targetPath, Name: se.name,
		Args: se.args, Origin: se.origin}
}

// Ref takes one additional reference. Callers must hold a live reference
// (the creator's, typically) while taking new ones.
func (se *SharedExec) Ref() {
	if se.refs.Add(1) <= 1 {
		panic("wire: shared body referenced after release")
	}
}

// Release drops one reference; the last release returns the SharedExec to
// the pool. Releasing more times than Ref+NewSharedExec granted panics.
func (se *SharedExec) Release() {
	n := se.refs.Add(-1)
	if n < 0 {
		panic("wire: shared body over-released")
	}
	if n == 0 {
		liveBodies.Add(-1)
		if cap(se.body) <= maxPooledBody {
			// Drop what the broadcast referenced, so the pool pins no payload.
			se.name, se.args, se.origin = "", nil, couple.ObjectRef{}
			bodyPool.Put(se)
		}
	}
}

// Refs reports the current reference count (for tests and diagnostics).
func (se *SharedExec) Refs() int32 { return se.refs.Load() }

// TailLen is the size of the shared (encoded-once) suffix in bytes.
func (se *SharedExec) TailLen() int { return len(se.body) }

// tail returns the shared suffix bytes. Valid only while a reference is held.
func (se *SharedExec) tail() []byte { return se.body }

// appendHead appends the per-member head of the Exec body: the event ID and
// the member's target path.
func (se *SharedExec) appendHead(buf []byte, targetPath string) []byte {
	buf = appendUvarint(buf, se.eventID)
	return appendString(buf, targetPath)
}

// AppendEnvelope appends the envelope of the member Exec for targetPath —
// no sequence numbers, no trace context — in AppendEnvelope's layout, writing
// the head and splicing in the encoded-once tail. The bytes equal
// AppendEnvelope(buf, Envelope{Msg: se.Exec(targetPath)}), but the Exec is
// neither materialized nor boxed and its arguments are not encoded again:
// the event log writes an event's record with it. Valid only while a
// reference is held.
func (se *SharedExec) AppendEnvelope(buf []byte, targetPath string) []byte {
	buf = appendHeader(buf, TExec, &Envelope{})
	buf = appendUvarint(buf, uint64(se.headLen(targetPath)+se.TailLen()))
	buf = se.appendHead(buf, targetPath)
	return append(buf, se.tail()...)
}

// headLen is the encoded size of appendHead's output for targetPath.
func (se *SharedExec) headLen(targetPath string) int {
	return uvarintLen(se.eventID) + uvarintLen(uint64(len(targetPath))) + len(targetPath)
}

// uvarintLen is the encoded size of v as a uvarint.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// Outgoing is one queued outbound frame. A plain record carries the full
// envelope in Env. A shared record (Shared non-nil) is one member's frame of
// an encode-once broadcast: Target is the member's path, the per-member head
// is encoded from it, and Shared's suffix is copied in without encoding.
// Env.Msg may be left nil on shared records — materializing the Exec boxes
// it onto the heap, so the hot path skips it and only observability code
// asks for Envelope() — but when set it must equal Shared.Exec(Target).
type Outgoing struct {
	Env    Envelope
	Shared *SharedExec
	Target string
}

// Envelope returns the fully materialized envelope, building the member's
// Exec on demand for shared records queued without one. Only paths that need
// the decoded message (the flight recorder) should call it: the
// materialization costs one interface boxing per call.
func (o *Outgoing) Envelope() Envelope {
	if o.Shared != nil && o.Env.Msg == nil {
		env := o.Env
		env.Msg = o.Shared.Exec(o.Target)
		return env
	}
	return o.Env
}
