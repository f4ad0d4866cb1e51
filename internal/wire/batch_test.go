package wire

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"cosoft/internal/attr"
	"cosoft/internal/couple"
	"cosoft/internal/obs"
)

// envelopesEqual compares decoded envelopes field by field, with the usual
// nil/empty-slice tolerance on the message payload.
func envelopesEqual(a, b Envelope) bool {
	return a.Seq == b.Seq && a.RefSeq == b.RefSeq && a.Trace == b.Trace &&
		messagesEqual(a.Msg, b.Msg)
}

// records is what reading the frame env is written as yields: a Batch's
// records, or env itself.
func records(env Envelope) []Envelope {
	if b, ok := env.Msg.(Batch); ok {
		return b.Envelopes
	}
	return []Envelope{env}
}

// readFrame reads the records of one frame: one Read, then one more for as
// long as Pending reports that the frame has records left.
func readFrame(c *Conn) ([]Envelope, error) {
	env, err := c.Read()
	if err != nil {
		return nil, err
	}
	frame := []Envelope{env}
	for c.Pending() {
		if env, err = c.Read(); err != nil {
			return nil, err
		}
		frame = append(frame, env)
	}
	return frame, nil
}

// scribbledRecord is a Record with every field set, for checking that Next
// overwrites all of them.
func scribbledRecord() Record {
	args := []attr.Value{attr.String("scribbled")}
	return Record{
		Envelope: Envelope{Seq: 0x5A, RefSeq: 0x5A, Trace: obs.TraceContext{Trace: 0x5A, Span: 0x5A}, Msg: Err{Text: "scribbled"}},
		Type:     TErr,
		Exec: Exec{EventID: 0x5A, TargetPath: "/scribbled", Name: "scribbled", Args: args,
			Origin: couple.ObjectRef{Instance: "scribbled", Path: "/scribbled"}},
		Event:   Event{Path: "/scribbled", Name: "scribbled", Args: args},
		ExecAck: ExecAck{EventID: 0x5A},
	}
}

// byValue reports whether a Record carries messages of type t in a field of
// their own instead of in Msg.
func byValue(t Type) bool { return t == TExec || t == TEvent || t == TExecAck }

// recordMatches holds rec, filled by Next, to env, which Read returned for
// the same bytes on a twin Conn: rec boxes to env, its Msg is nil exactly for
// the three kinds a Record holds by value, and every field that does not hold
// its message is zero — so nothing a previous use left in rec survives.
func recordMatches(rec Record, env Envelope) error {
	if rec.Type != env.Msg.MsgType() {
		return fmt.Errorf("Next read a %s where Read read a %s", rec.Type, env.Msg.MsgType())
	}
	if (rec.Msg == nil) != byValue(rec.Type) {
		return fmt.Errorf("Next read a %s with Msg %#v", rec.Type, rec.Msg)
	}
	if box := rec.Box(); !envelopesEqual(box, env) {
		return fmt.Errorf("Next read %#v, Read %#v", box, env)
	}
	for t, field := range map[Type]any{TExec: rec.Exec, TEvent: rec.Event, TExecAck: rec.ExecAck} {
		if t != rec.Type && !reflect.ValueOf(field).IsZero() {
			return fmt.Errorf("a %s record still holds the %#v of an earlier one", rec.Type, field)
		}
	}
	return nil
}

// nextMatchesRead reads stream to its end twice, once with Next into a
// scribbled Record on one Conn and once with Read on a twin, and holds every
// record to recordMatches. It returns how many records the stream held.
func nextMatchesRead(stream []byte) (int, error) {
	loop := func() *Conn { return NewConn(&loopConn{sinkConn: sinkConn{buf: append([]byte(nil), stream...)}}) }
	c, twin := loop(), loop()
	for n := 0; ; n++ {
		rec := scribbledRecord()
		err := c.Next(&rec)
		env, twinErr := twin.Read()
		switch {
		case (err == nil) != (twinErr == nil):
			return n, fmt.Errorf("record %d: Next failed with %v, Read with %v", n, err, twinErr)
		case err != nil && !reflect.ValueOf(rec).IsZero():
			return n, fmt.Errorf("record %d: a failed Next left %#v", n, rec)
		case err != nil:
			return n, nil
		case c.Pending() != twin.Pending():
			return n, fmt.Errorf("record %d: Pending %v after Next, %v after Read", n, c.Pending(), twin.Pending())
		}
		err = recordMatches(rec, env)
		rec.Release()
		if err != nil {
			return n, fmt.Errorf("record %d: %w", n, err)
		}
	}
}

// appendBatchRecord hand-builds one Batch record in the wire byte layout,
// independent of the encoder, for frame-pinning tests and fuzz seeds.
func appendBatchRecord(buf []byte, t Type, seq, refSeq uint64, tc obs.TraceContext, body []byte) []byte {
	raw := uint16(t)
	if tc.Trace != 0 || tc.Span != 0 {
		raw |= traceFlag
	}
	buf = binary.LittleEndian.AppendUint16(buf, raw)
	buf = binary.AppendUvarint(buf, seq)
	buf = binary.AppendUvarint(buf, refSeq)
	if raw&traceFlag != 0 {
		buf = binary.AppendUvarint(buf, uint64(tc.Trace))
		buf = binary.AppendUvarint(buf, uint64(tc.Span))
	}
	buf = binary.AppendUvarint(buf, uint64(len(body)))
	return append(buf, body...)
}

// batchFrame frames a hand-built Batch body: length prefix, type word and
// zero correlation numbers.
func batchFrame(body []byte) []byte {
	head := binary.LittleEndian.AppendUint16(nil, uint16(TBatch))
	head = binary.AppendUvarint(head, 0) // seq
	head = binary.AppendUvarint(head, 0) // refSeq
	frame := binary.LittleEndian.AppendUint32(nil, uint32(len(head)+len(body)))
	return append(append(frame, head...), body...)
}

// Property: N Reads of a random run of envelopes packed into one Batch frame
// return exactly what N Reads of the same run sent singly return — same
// messages, same correlation numbers,
// same trace contexts (zero stays zero, non-zero survives exactly), same
// order — and Pending holds from the first of them until the last. Next
// agrees with Read on both streams, record for record (nextMatchesRead).
func TestPropBatchRoundTripMatchesSingles(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := r.Intn(8) + 1
		envs := make([]Envelope, n)
		for i := range envs {
			env := Envelope{Seq: r.Uint64() % 1000, RefSeq: r.Uint64() % 1000, Msg: randomMessage(r)}
			if r.Intn(2) == 0 {
				env.Trace = obs.TraceContext{Trace: obs.TraceID(r.Uint64() | 1), Span: obs.SpanID(r.Uint64())}
			}
			envs[i] = env
		}

		// Singles path: each envelope as its own frame.
		sa, sb := Pipe()
		defer sa.Close()
		defer sb.Close()
		singles := readN(sb, n)
		for _, env := range envs {
			if err := sa.Write(env); err != nil {
				return false
			}
		}
		got := <-singles
		if len(got) != n || sb.Pending() {
			return false
		}

		// Batched path: the same run in one frame, read record by record.
		ba, bb := Pipe()
		defer ba.Close()
		defer bb.Close()
		batched := make(chan []Envelope, 1)
		go func() {
			frame, _ := readFrame(bb)
			batched <- frame
		}()
		if err := ba.Write(Envelope{Msg: Batch{Envelopes: envs}}); err != nil {
			return false
		}
		frame := <-batched
		if len(frame) != n || bb.Pending() {
			return false
		}
		for i := range got {
			if !envelopesEqual(frame[i], got[i]) {
				return false
			}
		}

		for _, stream := range [][]byte{framesOf(envs...), framesOf(Envelope{Msg: Batch{Envelopes: envs}})} {
			if k, err := nextMatchesRead(stream); err != nil || k != n {
				t.Logf("seed %d: Next read %d of %d records: %v", seed, k, n, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestBatchFrameBytesDecode hand-builds a Batch frame and asserts the reader
// hands out its records — the record byte layout pinned independently of the
// encoder.
func TestBatchFrameBytesDecode(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()

	exec := Exec{EventID: 12, TargetPath: "/f", Name: "changed",
		Args: []attr.Value{attr.String("v")}}
	body := binary.AppendUvarint(nil, 2) // record count
	body = appendBatchRecord(body, TSetLocks, 0, 0, obs.TraceContext{},
		SetLocks{Paths: []string{"/f"}, Locked: true}.encode(nil))
	body = appendBatchRecord(body, TExec, 0, 0,
		obs.TraceContext{Trace: 777, Span: 888}, exec.encode(nil))

	got := make(chan []Envelope, 1)
	go func() {
		frame, _ := readFrame(b)
		got <- frame
	}()
	if err := writeRaw(a, batchFrame(body)); err != nil {
		t.Fatal(err)
	}
	envs := <-got
	if len(envs) != 2 {
		t.Fatalf("batch frame read as %d records, want 2", len(envs))
	}
	if sl, ok := envs[0].Msg.(SetLocks); !ok || !sl.Locked || len(sl.Paths) != 1 {
		t.Fatalf("record 0 = %+v", envs[0].Msg)
	}
	if envs[0].Trace.Valid() {
		t.Fatalf("untraced record decoded trace %+v", envs[0].Trace)
	}
	want := obs.TraceContext{Trace: 777, Span: 888}
	if envs[1].Trace != want {
		t.Fatalf("record 1 trace = %+v, want %+v", envs[1].Trace, want)
	}
	if ex, ok := envs[1].Msg.(Exec); !ok || ex.EventID != 12 || ex.TargetPath != "/f" {
		t.Fatalf("record 1 = %+v", envs[1].Msg)
	}
}

// malformedBatchBodies builds the rejection corpus: zero record count, a
// count far over the cap, a truncated record, a nested batch, a nested batch
// ack, a record cut short, a corrupt record after two good ones, and a
// trailing byte after the last record.
func malformedBatchBodies() map[string][]byte {
	okRecord := appendBatchRecord(nil, TExecAck, 0, 0, obs.TraceContext{},
		ExecAck{EventID: 1}.encode(nil))
	truncated := binary.AppendUvarint(nil, 2)
	truncated = append(truncated, okRecord...) // second record missing
	nested := binary.AppendUvarint(nil, 1)
	nested = appendBatchRecord(nested, TBatch, 0, 0, obs.TraceContext{},
		Batch{Envelopes: []Envelope{{Msg: OK{}}}}.encode(nil))
	nestedAck := binary.AppendUvarint(nil, 1)
	nestedAck = appendBatchRecord(nestedAck, TBatchAck, 0, 0, obs.TraceContext{},
		BatchAck{Acks: []BatchAckEntry{{EventID: 1}}}.encode(nil))
	shortRecord := binary.AppendUvarint(nil, 1)
	shortRecord = append(shortRecord, 0xff) // not even a full type field
	lateCorrupt := binary.AppendUvarint(nil, 3)
	lateCorrupt = append(append(lateCorrupt, okRecord...), okRecord...)
	lateCorrupt = appendBatchRecord(lateCorrupt, TExec, 0, 0, obs.TraceContext{}, []byte{1, 2})
	trailing := binary.AppendUvarint(nil, 1)
	trailing = append(append(trailing, okRecord...), 0)
	return map[string][]byte{
		"zero-count":   binary.AppendUvarint(nil, 0),
		"over-count":   binary.AppendUvarint(nil, MaxBatch+1),
		"truncated":    truncated,
		"nested":       nested,
		"nested-ack":   nestedAck,
		"short-record": shortRecord,
		"late-corrupt": lateCorrupt,
		"trailing":     trailing,
	}
}

// TestBatchDecodeRejectsMalformed: a malformed record anywhere in a Batch
// frame fails that frame's first Read, none of its records is delivered or
// left pending or referenced by the Conn, and the next frame reads as it
// would have on its own.
func TestBatchDecodeRejectsMalformed(t *testing.T) {
	for name, body := range malformedBatchBodies() {
		lc := &loopConn{}
		c := NewConn(lc)
		lc.Write(batchFrame(body))
		if err := c.Write(Envelope{Seq: 9, Msg: OK{}}); err != nil {
			t.Fatal(err)
		}
		if env, err := c.Read(); err == nil {
			t.Errorf("%s batch accepted: first record %+v", name, env)
			continue
		}
		if c.Pending() {
			t.Errorf("%s batch left records pending after its failed Read", name)
		}
		for i, rec := range c.run[:cap(c.run)] {
			if !reflect.ValueOf(rec).IsZero() {
				t.Errorf("%s batch left run slot %d holding %+v", name, i, rec)
			}
		}
		if env, err := c.Read(); err != nil || env.Seq != 9 || env.Msg != (OK{}) {
			t.Errorf("%s batch: the next frame read as %+v, %v", name, env, err)
		}
	}
	// A Batch is framing, never a message body.
	if _, err := decodeMessage(TBatch, Batch{Envelopes: []Envelope{{Msg: OK{}}}}.encode(nil), nil, nil); err == nil {
		t.Error("decodeMessage decoded a Batch body")
	}
	// BatchAck rejections share the count rules.
	if _, err := decodeMessage(TBatchAck, binary.AppendUvarint(nil, 0), nil, nil); err == nil {
		t.Error("zero-count batch ack accepted")
	}
	if _, err := decodeMessage(TBatchAck, binary.AppendUvarint(nil, MaxBatch+1), nil, nil); err == nil {
		t.Error("over-count batch ack accepted")
	}
	if _, err := decodeMessage(TBatchAck, binary.AppendUvarint(nil, 2), nil, nil); err == nil {
		t.Error("truncated batch ack accepted")
	}
}

// TestBatchRunShedsLongFrame: draining a MaxBatch-record frame leaves no run
// array over maxIdleRun records behind, while the array of a short frame is
// kept for the next one.
func TestBatchRunShedsLongFrame(t *testing.T) {
	long := make([]Envelope, MaxBatch)
	for i := range long {
		long[i] = Envelope{Seq: uint64(i), Msg: ExecAck{EventID: uint64(i)}}
	}
	c := NewConn(&loopConn{})
	for _, env := range []Envelope{{Msg: Batch{Envelopes: long[:2]}}, {Msg: Batch{Envelopes: long}}} {
		if err := c.Write(env); err != nil {
			t.Fatal(err)
		}
	}
	if frame, err := readFrame(c); err != nil || len(frame) != 2 {
		t.Fatalf("short frame read as %d records, %v", len(frame), err)
	}
	if cap(c.run) == 0 {
		t.Error("a short frame's run array was dropped instead of kept")
	}
	frame, err := readFrame(c)
	if err != nil || len(frame) != MaxBatch {
		t.Fatalf("long frame read as %d records, %v", len(frame), err)
	}
	for i, env := range frame {
		if env.Seq != uint64(i) {
			t.Fatalf("record %d has seq %d", i, env.Seq)
		}
	}
	if c := cap(c.run); c > maxIdleRun {
		t.Errorf("a drained Conn keeps a %d-record run array, cap %d", c, maxIdleRun)
	}
}

// TestWriteAcksMatchesWrite pins WriteAcks to the frames Write puts on the
// wire for the same acknowledgements: a lone entry is an ExecAck with the
// entry's trace in its header, a longer run one BatchAck.
func TestWriteAcksMatchesWrite(t *testing.T) {
	run := []BatchAckEntry{
		{EventID: 1 << 20, Trace: obs.TraceContext{Trace: 7, Span: 8}},
		{EventID: 3},
		{EventID: 1<<20 + 1, Trace: obs.TraceContext{Trace: 9, Span: 10}},
	}
	for _, acks := range [][]BatchAckEntry{run[:1], run[1:2], run} {
		viaWrite, viaAcks := &sinkConn{}, &sinkConn{}
		w, a := NewConn(viaWrite), NewConn(viaAcks)
		env := Envelope{Msg: BatchAck{Acks: acks}}
		if len(acks) == 1 {
			env = Envelope{Trace: acks[0].Trace, Msg: ExecAck{EventID: acks[0].EventID}}
		}
		if err := w.Write(env); err != nil {
			t.Fatal(err)
		}
		if err := a.WriteAcks(acks); err != nil {
			t.Fatal(err)
		}
		if want, got := viaWrite.bytes(), viaAcks.bytes(); string(want) != string(got) {
			t.Errorf("%d acks: WriteAcks wrote\n %x\nWrite wrote\n %x", len(acks), got, want)
		}
	}
}

// TestRetiredBatchBitRefused: the type field has one flag, traceFlag. A frame
// that still sets 0x4000, the bit that once announced batching, names no
// message type: Next fails on it with an error and no record, leaves nothing
// pending, and the next frame reads as it would have on its own.
func TestRetiredBatchBitRefused(t *testing.T) {
	for _, typ := range []Type{TOK, TBatch} {
		lc := &loopConn{}
		c := NewConn(lc)
		lc.Write(retiredBatchBitFrame(typ))
		if err := c.Write(Envelope{Seq: 9, Msg: OK{}}); err != nil {
			t.Fatal(err)
		}
		rec := scribbledRecord()
		if err := c.Next(&rec); err == nil || !reflect.ValueOf(rec).IsZero() || c.Pending() {
			t.Errorf("a %s frame with 0x4000 set read as %+v, %v (pending %v), want an error and no record", typ, rec, err, c.Pending())
		}
		if env, err := c.Read(); err != nil || env.Seq != 9 || env.Msg != (OK{}) {
			t.Errorf("after a %s frame with 0x4000 set, the next frame read as %+v, %v", typ, env, err)
		}
	}
}

// retiredBatchBitFrame frames a well-formed message of type typ — a
// two-record run for TBatch, an OK otherwise — with 0x4000 set in its type
// field, as a sender that still announced batching wrote it.
func retiredBatchBitFrame(typ Type) []byte {
	var body []byte
	if typ == TBatch {
		body = Batch{Envelopes: []Envelope{
			{Msg: Exec{EventID: 1, TargetPath: "/a", Name: "changed"}},
			{Trace: obs.TraceContext{Trace: 5, Span: 6}, Msg: ExecAck{EventID: 1}},
		}}.encode(nil)
	}
	head := binary.LittleEndian.AppendUint16(nil, uint16(typ)|0x4000)
	head = binary.AppendUvarint(head, 0) // seq
	head = binary.AppendUvarint(head, 0) // refSeq
	frame := binary.LittleEndian.AppendUint32(nil, uint32(len(head)+len(body)))
	return append(append(frame, head...), body...)
}
