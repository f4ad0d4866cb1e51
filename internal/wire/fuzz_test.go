package wire

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"

	"cosoft/internal/obs"
)

// decodeMessage decodes a message body as Read hands it out: boxed, with an
// Event's relay body released.
func decodeMessage(t Type, body []byte, idents *internTable, notices *noticeMemo) (Message, error) {
	var rec Record
	if err := decodeRecord(&rec, t, body, idents, notices); err != nil {
		return nil, err
	}
	defer rec.Release()
	return rec.Box().Msg, nil
}

// FuzzDecodeMessage asserts the message decoder never panics on arbitrary
// bodies of every known type, that accepted messages re-encode to an equal
// message, and that an accepted message keeps no reference to the body it was
// decoded from (with an intern table and a notice memo, as a Conn decodes).
// Every body is decoded twice through the same tables, so a notice's second
// decode comes out of the memo; and once more after it was scribbled over,
// when the memo must agree with a decode that has none.
func FuzzDecodeMessage(f *testing.F) {
	for _, m := range allMessages() {
		f.Add(uint16(m.MsgType()), m.encode(nil))
	}
	for _, m := range []Message{
		SetLocks{Paths: []string{"/hub"}, Locked: true},
		SetLocks{Paths: []string{"/hub"}, Locked: false},
		EventResult{OK: false, Reason: "group locked"},
	} {
		f.Add(uint16(m.MsgType()), m.encode(nil))
	}
	// Batch bodies, hand-built and malformed: a Batch is framing Read
	// unpacks, so no body of that type may decode as a message.
	for _, body := range malformedBatchBodies() {
		f.Add(uint16(TBatch), body)
	}
	// Hostile bodies (limits_test.go): counts the bytes cannot carry, and a
	// tree one level past the depth limit.
	f.Add(uint16(TCopyTo), copyToBody(setBombTree()))
	f.Add(uint16(TSetLocks), binary.AppendUvarint(nil, 65535))
	f.Add(uint16(TCopyTo), append(copyToBody(chainTree(treeDepthPast)), 0))
	f.Fuzz(func(t *testing.T, rawType uint16, body []byte) {
		buf := append([]byte(nil), body...)
		idents, notices := &internTable{}, &noticeMemo{}
		m, err := decodeMessage(Type(rawType), buf, idents, notices)
		if err != nil {
			return
		}
		if Type(rawType) == TBatch {
			t.Fatalf("a Batch body decoded as %#v", m)
		}
		encoded := m.encode(nil)
		repeat, err := decodeMessage(Type(rawType), buf, idents, notices)
		if err != nil || !messagesEqual(m, repeat) {
			t.Fatalf("%s decoded differently the second time: %#v vs %#v (%v)", m.MsgType(), m, repeat, err)
		}
		for i := range buf {
			buf[i] ^= 0xFF
		}
		if !bytes.Equal(m.encode(nil), encoded) || !bytes.Equal(repeat.encode(nil), encoded) {
			t.Fatalf("%s aliases the body it was decoded from", m.MsgType())
		}
		memo, errM := decodeMessage(Type(rawType), buf, idents, notices)
		plain, errP := decodeMessage(Type(rawType), buf, nil, nil)
		if (errM == nil) != (errP == nil) || errM == nil && !messagesEqual(memo, plain) {
			t.Fatalf("the memo changed the decode of a new body: %#v (%v) vs %#v (%v)", memo, errM, plain, errP)
		}
		again, err := decodeMessage(m.MsgType(), m.encode(nil), nil, nil)
		if err != nil {
			t.Fatalf("re-decode of accepted message failed: %v", err)
		}
		if !messagesEqual(m, again) {
			t.Fatalf("re-encode changed the message: %#v vs %#v", m, again)
		}
	})
}

// FuzzConnRead asserts the framed reader never panics on arbitrary streams,
// that every envelope it does decode owns its bytes — reading the rest of its
// Batch and the next frame must not change what it encodes to — and that a
// frame is read all or nothing: a Read fails only on a frame's first record,
// leaving none pending, and a frame's records are exactly what the frame
// reads as on a Conn of its own. Next on a twin Conn agrees with Read record
// for record (recordMatches), overwriting a Record that held something else,
// fails where Read fails leaving the Record zero, and its Records own their
// bytes like the envelopes do. The corpus seeds both envelope encodings:
// the pre-trace layout and the traceFlag layout with trace/span varints after
// refSeq.
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
	// Batch frames: a well-formed two-record batch plus every malformed body
	// from the rejection corpus, framed.
	bframe := batchFrame(Batch{Envelopes: []Envelope{
		{Msg: Exec{EventID: 1, TargetPath: "/a", Name: "changed"}},
		{Trace: obs.TraceContext{Trace: 5, Span: 6}, Msg: ExecAck{EventID: 1}},
	}}.encode(nil))
	f.Add(bframe)
	for _, body := range malformedBatchBodies() {
		f.Add(batchFrame(body))
	}
	// Frames that set the retired batch bit, which are refused.
	for _, typ := range []Type{TOK, TBatch} {
		f.Add(retiredBatchBitFrame(typ))
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
		f.Add(append(two, bframe...))
	}
	f.Add(append(append([]byte(nil), bframe...), tframe...))
	// A stream of repeated notices, alone and in Batches, as a member and an
	// origin read them event after event.
	f.Add(framesOf(noticeStream()...))
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
		// A twin Conn reads the same bytes with Next, into a Record that
		// holds something else every time.
		twin := NewConn(&loopConn{sinkConn: sinkConn{buf: append([]byte(nil), stream...)}})
		// Every envelope and Record read so far must still encode as it did —
		// a repeated notice is shared with the envelope that first carried it —
		// and each frame's records must equal that frame read on a Conn that
		// read nothing else.
		var seen, frame []Envelope
		var seenRecs []Record
		var seenBytes [][]byte
		defer func() {
			for i := range seenRecs {
				seenRecs[i].Release()
			}
		}()
		rest := stream
		for {
			env, err := b.Read()
			rec := scribbledRecord()
			nextErr := twin.Next(&rec)
			for i, prev := range seen {
				if !bytes.Equal(AppendEnvelope(nil, prev), seenBytes[i]) {
					t.Fatalf("%s changed when a later record was read", prev.Msg.MsgType())
				}
				if !bytes.Equal(AppendEnvelope(nil, seenRecs[i].Box()), seenBytes[i]) {
					t.Fatalf("a %s Record changed when a later record was read", seenRecs[i].Type)
				}
			}
			if (err == nil) != (nextErr == nil) {
				t.Fatalf("Read failed with %v, Next on the same bytes with %v", err, nextErr)
			}
			if err != nil {
				if len(frame) != 0 || b.Pending() {
					t.Fatalf("a Read failed part-way through a frame (%d records in, pending %v): %v", len(frame), b.Pending(), err)
				}
				if !reflect.ValueOf(rec).IsZero() {
					t.Fatalf("a failed Next left %#v", rec)
				}
				return
			}
			if err := recordMatches(rec, env); err != nil {
				t.Fatal(err)
			}
			seen, seenBytes = append(seen, env), append(seenBytes, AppendEnvelope(nil, env))
			seenRecs = append(seenRecs, rec)
			if frame = append(frame, env); b.Pending() {
				continue
			}
			n := 4 + int(binary.LittleEndian.Uint32(rest))
			fresh, err := readFresh(rest[:n])
			if err != nil || len(fresh) != len(frame) {
				t.Fatalf("a frame read as %d records after earlier frames, %d on a fresh Conn (%v)", len(frame), len(fresh), err)
			}
			for i := range frame {
				if !envelopesEqual(frame[i], fresh[i]) {
					t.Fatalf("%s read as %#v after earlier frames, %#v on a fresh Conn", frame[i].Msg.MsgType(), frame[i], fresh[i])
				}
			}
			rest, frame = rest[n:], frame[:0]
		}
	})
}

// noticeStream is the notices of three events as one member and one origin
// read them: lock, Exec and unlock notices, alone and packed, and verdicts.
func noticeStream() []Envelope {
	lock := Envelope{Msg: SetLocks{Paths: []string{"/hub"}, Locked: true}}
	unlock := Envelope{Msg: SetLocks{Paths: []string{"/hub"}, Locked: false}}
	exec := Envelope{Msg: Exec{EventID: 1, TargetPath: "/hub", Name: "changed"}}
	return []Envelope{
		lock, exec, unlock,
		{Msg: Batch{Envelopes: []Envelope{lock, exec}}}, unlock,
		{Msg: Batch{Envelopes: []Envelope{unlock, lock, exec}}}, unlock,
		{RefSeq: 1, Msg: EventResult{OK: true}},
		{RefSeq: 2, Msg: EventResult{OK: true}},
		{RefSeq: 3, Msg: EventResult{Reason: "group locked"}},
		{RefSeq: 4, Msg: EventResult{OK: true}},
	}
}

// framesOf encodes envs as the frames a Conn writes, back to back.
func framesOf(envs ...Envelope) []byte {
	sink := &sinkConn{}
	c := NewConn(sink)
	for _, env := range envs {
		if err := c.Write(env); err != nil {
			panic(err)
		}
	}
	return sink.bytes()
}

// readFresh reads the records of one frame on a Conn that has read nothing
// before it.
func readFresh(frame []byte) ([]Envelope, error) {
	return readFrame(NewConn(&loopConn{sinkConn: sinkConn{buf: append([]byte(nil), frame...)}}))
}

// writeRaw injects unframed bytes by writing a frame whose body is the raw
// stream? No — it must bypass framing entirely, so it uses the underlying
// connection.
func writeRaw(c *Conn, raw []byte) error {
	_, err := c.conn.Write(raw)
	return err
}

// FuzzEnvelopeHeader proves the envelope header codec is a bijection in
// both encodings: arbitrary (seq, refSeq, trace, span) values decode back
// exactly, a zero context as none and any other in the traceFlag layout —
// never corrupting the message body.
func FuzzEnvelopeHeader(f *testing.F) {
	f.Add(uint64(1), uint64(0), uint64(0xbeef), uint64(0xcafe))
	f.Add(uint64(0), uint64(7), uint64(0), uint64(0))
	f.Add(uint64(0), uint64(7), uint64(0), uint64(3))
	f.Add(^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0))
	f.Fuzz(func(t *testing.T, seq, refSeq, traceID, spanID uint64) {
		a, b := Pipe()
		defer a.Close()
		defer b.Close()
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
		if got.Trace != env.Trace {
			t.Fatalf("trace = %+v, want %+v", got.Trace, env.Trace)
		}
		if ack, ok := got.Msg.(ExecAck); !ok || ack.EventID != 42 {
			t.Fatalf("body corrupted: %+v", got.Msg)
		}
	})
}
