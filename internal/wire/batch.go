package wire

import (
	"fmt"
	"slices"

	"cosoft/internal/attr"
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
// referencing a record decoded before the fault, and the relay bodies of the
// Events among those released.
func decodeRun(run []Record, body []byte, idents *internTable, notices *noticeMemo) ([]Record, error) {
	d := decoder{Reader: attr.NewReader(body), idents: idents, notices: notices}
	n := d.Count(MaxBatch, minBatchRecord)
	if n == 0 {
		d.Fail("empty batch")
	}
	run = slices.Grow(run, n)
	var err error
	for i := 0; i < n && err == nil; i++ {
		run = append(run, Record{})
		err = d.innerRecord(&run[i])
	}
	if err == nil {
		err = d.Done()
	}
	if err != nil {
		for i := range run {
			run[i].Release()
		}
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
func (d *decoder) innerRecord(rec *Record) error {
	t := d.header(&rec.Envelope)
	body := d.Bytes()
	// A nested Batch is refused by decodeRecord, which knows no such
	// message; a BatchAck it would decode.
	if t == TBatchAck {
		d.Fail("nested batch ack")
	}
	if err := d.Err(); err != nil {
		return err
	}
	return decodeRecord(rec, t, body, d.idents, d.notices)
}

func decodeBatchAck(d *decoder) BatchAck {
	var m BatchAck
	n := d.Count(MaxBatch, 1)
	if n == 0 {
		d.Fail("empty batch ack")
	}
	for ; n > 0 && d.Err() == nil; n-- {
		m.Acks = append(m.Acks, BatchAckEntry{
			EventID: d.Uvarint(),
			Trace: obs.TraceContext{
				Trace: obs.TraceID(d.Uvarint()),
				Span:  obs.SpanID(d.Uvarint()),
			},
		})
	}
	return m
}
