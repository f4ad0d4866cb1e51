package wire

import (
	"bytes"
	"encoding/binary"
	"testing"

	"cosoft/internal/obs"
)

// FuzzDecodeMessage asserts the message decoder never panics on arbitrary
// bodies of every known type, that accepted messages re-encode to an equal
// message, and that an accepted message keeps no reference to the body it was
// decoded from (with an intern table, as a Conn decodes).
func FuzzDecodeMessage(f *testing.F) {
	for _, m := range allMessages() {
		f.Add(uint16(m.MsgType()), m.encode(nil))
	}
	// Hand-built malformed Batch bodies: truncated record, zero record
	// count, over-cap count, nested batch — all must be rejected, never
	// panic.
	for _, body := range malformedBatchBodies() {
		f.Add(uint16(TBatch), body)
	}
	f.Fuzz(func(t *testing.T, rawType uint16, body []byte) {
		buf := append([]byte(nil), body...)
		m, err := decodeMessage(Type(rawType), buf, &internTable{})
		if err != nil {
			return
		}
		encoded := m.encode(nil)
		for i := range buf {
			buf[i] ^= 0xFF
		}
		if !bytes.Equal(m.encode(nil), encoded) {
			t.Fatalf("%s aliases the body it was decoded from", m.MsgType())
		}
		again, err := decodeMessage(m.MsgType(), m.encode(nil), nil)
		if err != nil {
			t.Fatalf("re-decode of accepted message failed: %v", err)
		}
		if !messagesEqual(m, again) {
			t.Fatalf("re-encode changed the message: %#v vs %#v", m, again)
		}
	})
}

// FuzzConnRead asserts the framed reader never panics on arbitrary streams,
// and that every envelope it does decode owns its bytes: reading the next
// frame into the same buffer must not change what the previous envelope
// encodes to. The corpus seeds both envelope encodings: the pre-trace layout
// and the traceFlag layout with trace/span varints after refSeq.
func FuzzConnRead(f *testing.F) {
	env := Envelope{Seq: 3, Msg: OK{}}
	var frame []byte
	body := binary.LittleEndian.AppendUint16(nil, uint16(TOK))
	body = binary.AppendUvarint(body, env.Seq)
	body = binary.AppendUvarint(body, 0)
	frame = binary.LittleEndian.AppendUint32(frame, uint32(len(body)))
	frame = append(frame, body...)
	f.Add(frame)
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	// Traced frame: flag bit set, trace/span varints present.
	tbody := binary.LittleEndian.AppendUint16(nil, uint16(TExecAck)|traceFlag)
	tbody = binary.AppendUvarint(tbody, 1)      // seq
	tbody = binary.AppendUvarint(tbody, 0)      // refSeq
	tbody = binary.AppendUvarint(tbody, 0xbeef) // trace id
	tbody = binary.AppendUvarint(tbody, 0xcafe) // span id
	tbody = ExecAck{EventID: 9}.encode(tbody)
	tframe := binary.LittleEndian.AppendUint32(nil, uint32(len(tbody)))
	tframe = append(tframe, tbody...)
	f.Add(tframe)
	// Flag bit set but trace varints truncated.
	hbody := binary.LittleEndian.AppendUint16(nil, uint16(TOK)|traceFlag)
	hbody = binary.AppendUvarint(hbody, 1)
	hbody = binary.AppendUvarint(hbody, 0)
	hframe := binary.LittleEndian.AppendUint32(nil, uint32(len(hbody)))
	hframe = append(hframe, hbody...)
	f.Add(hframe)
	// Batch frames: a well-formed two-record batch (with the batchFlag
	// capability bit set, as a batching sender would emit it) plus every
	// malformed body from the rejection corpus, framed.
	bbody := binary.LittleEndian.AppendUint16(nil, uint16(TBatch)|batchFlag)
	bbody = binary.AppendUvarint(bbody, 0)
	bbody = binary.AppendUvarint(bbody, 0)
	bbody = Batch{Envelopes: []Envelope{
		{Msg: Exec{EventID: 1, TargetPath: "/a", Name: "changed"}},
		{Trace: obs.TraceContext{Trace: 5, Span: 6}, Msg: ExecAck{EventID: 1}},
	}}.encode(bbody)
	bframe := binary.LittleEndian.AppendUint32(nil, uint32(len(bbody)))
	f.Add(append(bframe, bbody...))
	for _, body := range malformedBatchBodies() {
		mb := binary.LittleEndian.AppendUint16(nil, uint16(TBatch))
		mb = binary.AppendUvarint(mb, 0)
		mb = binary.AppendUvarint(mb, 0)
		mb = append(mb, body...)
		mf := binary.LittleEndian.AppendUint32(nil, uint32(len(mb)))
		f.Add(append(mf, mb...))
	}
	// Streams of two frames, so a second read overwrites the buffer the first
	// envelope was decoded from: every message type followed by the batch
	// above, and the batch followed by a plain frame.
	for _, m := range allMessages() {
		one := binary.LittleEndian.AppendUint16(nil, uint16(m.MsgType()))
		one = binary.AppendUvarint(one, 1)
		one = binary.AppendUvarint(one, 0)
		one = m.encode(one)
		two := binary.LittleEndian.AppendUint32(nil, uint32(len(one)))
		two = append(two, one...)
		f.Add(append(append(two, bframe...), bbody...))
	}
	f.Add(append(append(append([]byte(nil), bframe...), bbody...), tframe...))
	f.Fuzz(func(t *testing.T, stream []byte) {
		a, b := Pipe()
		defer a.Close()
		defer b.Close()
		go func() {
			defer a.Close()
			raw := make([]byte, len(stream))
			copy(raw, stream)
			// Feed the raw bytes beneath the framing layer.
			if len(raw) > 0 {
				_ = writeRaw(a, raw)
			}
		}()
		var prev Envelope
		var prevBytes []byte
		for {
			env, err := b.Read()
			if prev.Msg != nil && !bytes.Equal(AppendEnvelope(nil, prev), prevBytes) {
				t.Fatalf("%s changed when the next frame was read", prev.Msg.MsgType())
			}
			if err != nil {
				return
			}
			prev, prevBytes = env, AppendEnvelope(nil, env)
		}
	})
}

// writeRaw injects unframed bytes by writing a frame whose body is the raw
// stream? No — it must bypass framing entirely, so it uses the underlying
// connection.
func writeRaw(c *Conn, raw []byte) error {
	_, err := c.conn.Write(raw)
	return err
}

// FuzzEnvelopeHeader proves the envelope header codec is a bijection in
// both encodings: arbitrary (seq, refSeq, trace, span) values written by a
// trace-enabled Conn decode back exactly, and the same envelope written
// without the extension decodes with the trace dropped — never corrupting
// the message body in either direction.
func FuzzEnvelopeHeader(f *testing.F) {
	f.Add(uint64(1), uint64(0), uint64(0xbeef), uint64(0xcafe), true)
	f.Add(uint64(0), uint64(7), uint64(0), uint64(0), false)
	f.Add(^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0), true)
	f.Fuzz(func(t *testing.T, seq, refSeq, traceID, spanID uint64, traced bool) {
		a, b := Pipe()
		defer a.Close()
		defer b.Close()
		if traced {
			a.EnableTrace()
		}
		env := Envelope{
			Seq:    seq,
			RefSeq: refSeq,
			Trace:  obs.TraceContext{Trace: obs.TraceID(traceID), Span: obs.SpanID(spanID)},
			Msg:    ExecAck{EventID: 42},
		}
		errc := make(chan error, 1)
		go func() { errc <- a.Write(env) }()
		got, err := b.Read()
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		if err := <-errc; err != nil {
			t.Fatalf("write: %v", err)
		}
		if got.Seq != seq || got.RefSeq != refSeq {
			t.Fatalf("seq/refSeq = %d/%d, want %d/%d", got.Seq, got.RefSeq, seq, refSeq)
		}
		if traced && traceID != 0 {
			if got.Trace != env.Trace {
				t.Fatalf("trace = %+v, want %+v", got.Trace, env.Trace)
			}
		} else if got.Trace.Valid() {
			t.Fatalf("untraced write decoded trace %+v", got.Trace)
		}
		if ack, ok := got.Msg.(ExecAck); !ok || ack.EventID != 42 {
			t.Fatalf("body corrupted: %+v", got.Msg)
		}
	})
}
