package wire

import (
	"encoding/binary"

	"cosoft/internal/obs"
)

// MaxBatch bounds the record count of a Batch or BatchAck frame. A peer
// announcing more records than this is treated as corrupt rather than as an
// allocation request; senders must split longer runs across frames.
const MaxBatch = 4096

// Batch packs a contiguous run of envelopes bound for the same peer into a
// single wire frame. Each record keeps its own type, correlation numbers,
// and (when present) trace context, so unpacking a Batch yields exactly the
// envelopes that would otherwise have arrived as individual frames, in the
// same order. Batch frames may only be sent once BatchAware reports true;
// a Batch may not nest another Batch or a BatchAck.
//
// Record layout, repeated Count times after a leading uvarint count:
//
//	[u16 type(|traceFlag)][uvarint seq][uvarint refSeq]
//	[uvarint traceID][uvarint spanID]   (only when traceFlag set)
//	[uvarint bodyLen][body]
type Batch struct {
	Envelopes []Envelope
}

// BatchAckEntry acknowledges one applied Exec, carrying the trace context
// of the apply span so coalescing does not sever per-event causal chains.
type BatchAckEntry struct {
	EventID uint64
	Trace   obs.TraceContext
}

// BatchAck coalesces the acknowledgements for a contiguous run of applied
// Execs into one frame. It is semantically identical to sending the same
// ExecAcks singly in entry order.
type BatchAck struct {
	Acks []BatchAckEntry
}

func (Batch) MsgType() Type    { return TBatch }
func (BatchAck) MsgType() Type { return TBatchAck }

func (m Batch) encode(buf []byte) []byte {
	buf = appendUvarint(buf, uint64(len(m.Envelopes)))
	for _, env := range m.Envelopes {
		t := uint16(env.Msg.MsgType())
		// Inner records flag trace context by presence, independent of the
		// connection's trace negotiation: a Batch only ever goes to a peer
		// that negotiated batching, which postdates the trace extension.
		traced := env.Trace.Trace != 0 || env.Trace.Span != 0
		if traced {
			t |= traceFlag
		}
		buf = binary.LittleEndian.AppendUint16(buf, t)
		buf = appendUvarint(buf, env.Seq)
		buf = appendUvarint(buf, env.RefSeq)
		if traced {
			buf = appendUvarint(buf, uint64(env.Trace.Trace))
			buf = appendUvarint(buf, uint64(env.Trace.Span))
		}
		buf = appendBytes(buf, env.Msg.encode(nil))
	}
	return buf
}

func (m BatchAck) encode(buf []byte) []byte {
	buf = appendUvarint(buf, uint64(len(m.Acks)))
	for _, a := range m.Acks {
		buf = appendUvarint(buf, a.EventID)
		buf = appendUvarint(buf, uint64(a.Trace.Trace))
		buf = appendUvarint(buf, uint64(a.Trace.Span))
	}
	return buf
}

func decodeBatch(d *decoder) Batch {
	var m Batch
	n := d.uvarint()
	if d.err != nil {
		return m
	}
	if n == 0 {
		d.fail("empty batch")
		return m
	}
	if n > MaxBatch {
		d.fail("batch count")
		return m
	}
	// A record is at least five bytes (type, seq, refSeq, body length), so a
	// count the remaining bytes cannot hold is not worth an allocation.
	if n > uint64(len(d.buf)/minBatchRecord) {
		d.fail("batch count")
		return m
	}
	m.Envelopes = make([]Envelope, 0, n)
	for i := uint64(0); i < n && d.err == nil; i++ {
		env, ok := d.innerEnvelope()
		if !ok {
			break
		}
		m.Envelopes = append(m.Envelopes, env)
	}
	return m
}

// minBatchRecord is the encoded size of the smallest Batch record: a type
// word and three one-byte uvarints around an empty body.
const minBatchRecord = 5

// innerEnvelope decodes one Batch record. The record body is decoded out of
// a view into the enclosing frame; the envelope keeps none of it.
func (d *decoder) innerEnvelope() (Envelope, bool) {
	raw := d.u16()
	t := Type(raw &^ flagMask)
	env := Envelope{Seq: d.uvarint(), RefSeq: d.uvarint()}
	if raw&traceFlag != 0 {
		env.Trace = obs.TraceContext{
			Trace: obs.TraceID(d.uvarint()),
			Span:  obs.SpanID(d.uvarint()),
		}
	}
	body := d.view("bytes")
	if d.err != nil {
		return Envelope{}, false
	}
	if t == TBatch {
		d.fail("nested batch")
		return Envelope{}, false
	}
	if t == TBatchAck {
		d.fail("nested batch ack")
		return Envelope{}, false
	}
	msg, err := decodeMessage(t, body, d.idents)
	if err != nil {
		d.err = err
		return Envelope{}, false
	}
	env.Msg = msg
	return env, true
}

func decodeBatchAck(d *decoder) BatchAck {
	var m BatchAck
	n := d.uvarint()
	if d.err != nil {
		return m
	}
	if n == 0 {
		d.fail("empty batch ack")
		return m
	}
	if n > MaxBatch {
		d.fail("batch ack count")
		return m
	}
	for i := uint64(0); i < n && d.err == nil; i++ {
		m.Acks = append(m.Acks, BatchAckEntry{
			EventID: d.uvarint(),
			Trace: obs.TraceContext{
				Trace: obs.TraceID(d.uvarint()),
				Span:  obs.SpanID(d.uvarint()),
			},
		})
	}
	return m
}

func (d *decoder) u16() uint16 {
	if d.err != nil {
		return 0
	}
	if len(d.buf) < 2 {
		d.fail("u16")
		return 0
	}
	v := binary.LittleEndian.Uint16(d.buf)
	d.buf = d.buf[2:]
	return v
}
