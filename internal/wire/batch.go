package wire

import (
	"encoding/binary"
	"fmt"
	"slices"

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
// same order. A Batch may not nest another Batch or a BatchAck.
//
// Batch is framing, and only a writer ever holds one: Next never returns a
// Batch but hands out its records one per call (see Conn.Pending).
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
		buf = AppendEnvelope(buf, env)
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

// decodeRun decodes the records of a Batch frame body into run (which must be
// empty), all or nothing: on error run comes back empty, with no slot still
// referencing a record decoded before the fault.
func decodeRun(run []Record, body []byte, idents *internTable, notices *noticeMemo) ([]Record, error) {
	d := decoder{buf: body, idents: idents, notices: notices}
	n := d.uvarint()
	switch {
	case d.err != nil:
	case n == 0:
		d.fail("empty batch")
	case n > MaxBatch || n > uint64(len(d.buf)/minBatchRecord):
		// A record is at least five bytes (type, seq, refSeq, body length), so
		// a count the remaining bytes cannot hold is not worth an allocation.
		d.fail("batch count")
	default:
		run = slices.Grow(run, int(n))
		for i := uint64(0); i < n; i++ {
			run = append(run, Record{})
			if !d.innerRecord(&run[i]) {
				break
			}
		}
	}
	if err := d.done(); err != nil {
		clear(run)
		return run[:0], fmt.Errorf("%s: %w", TBatch, err)
	}
	return run, nil
}

// minBatchRecord is the encoded size of the smallest Batch record: a type
// word and three one-byte uvarints around an empty body.
const minBatchRecord = 5

// innerRecord decodes one Batch record into rec, which must be zero. The
// record body is decoded out of a view into the enclosing frame; the record
// keeps none of it.
func (d *decoder) innerRecord(rec *Record) bool {
	raw := d.u16()
	t := Type(raw &^ traceFlag)
	rec.Seq, rec.RefSeq = d.uvarint(), d.uvarint()
	if raw&traceFlag != 0 {
		rec.Trace = obs.TraceContext{
			Trace: obs.TraceID(d.uvarint()),
			Span:  obs.SpanID(d.uvarint()),
		}
	}
	body := d.view("bytes")
	if d.err != nil {
		return false
	}
	// A nested Batch is refused by decodeRecord, which knows no such
	// message; a BatchAck it would decode.
	if t == TBatchAck {
		d.fail("nested batch ack")
		return false
	}
	if err := decodeRecord(rec, t, body, d.idents, d.notices); err != nil {
		d.err = err
		return false
	}
	return true
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
