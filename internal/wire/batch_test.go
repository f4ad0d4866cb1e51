package wire

import (
	"encoding/binary"
	"io"
	"math/rand"
	"net"
	"testing"
	"testing/quick"

	"cosoft/internal/attr"
	"cosoft/internal/obs"
)

// envelopesEqual compares decoded envelopes field by field, with the usual
// nil/empty-slice tolerance on the message payload.
func envelopesEqual(a, b Envelope) bool {
	return a.Seq == b.Seq && a.RefSeq == b.RefSeq && a.Trace == b.Trace &&
		messagesEqual(a.Msg, b.Msg)
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

// Property: a random run of envelopes packed into one Batch frame decodes
// to exactly the envelopes the same run produces when sent singly over a
// trace-enabled connection — same order, same correlation numbers, same
// trace contexts (zero stays zero, non-zero survives exactly).
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
		sa.EnableTrace()
		singles := readN(sb, n)
		for _, env := range envs {
			if err := sa.Write(env); err != nil {
				return false
			}
		}
		got := <-singles
		if len(got) != n {
			return false
		}

		// Batched path: the same run in one frame.
		ba, bb := Pipe()
		defer ba.Close()
		defer bb.Close()
		ba.EnableBatch()
		batched := readN(bb, 1)
		if err := ba.Write(Envelope{Msg: Batch{Envelopes: envs}}); err != nil {
			return false
		}
		frames := <-batched
		if len(frames) != 1 {
			return false
		}
		batch, ok := frames[0].Msg.(Batch)
		if !ok || len(batch.Envelopes) != n {
			return false
		}
		for i := range got {
			if !envelopesEqual(batch.Envelopes[i], got[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestBatchFrameBytesDecode hand-builds a Batch frame and asserts the
// decoder unpacks it — the record byte layout pinned independently of the
// encoder.
func TestBatchFrameBytesDecode(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()

	exec := Exec{EventID: 12, TargetPath: "/f", Name: "changed",
		Args: []attr.Value{attr.String("v")}}
	var body []byte
	body = binary.LittleEndian.AppendUint16(body, uint16(TBatch))
	body = binary.AppendUvarint(body, 0) // seq
	body = binary.AppendUvarint(body, 0) // refSeq
	body = binary.AppendUvarint(body, 2) // record count
	body = appendBatchRecord(body, TSetLocks, 0, 0, obs.TraceContext{},
		SetLocks{Paths: []string{"/f"}, Locked: true}.encode(nil))
	body = appendBatchRecord(body, TExec, 0, 0,
		obs.TraceContext{Trace: 777, Span: 888}, exec.encode(nil))
	frame := binary.LittleEndian.AppendUint32(nil, uint32(len(body)))
	frame = append(frame, body...)

	got := readN(b, 1)
	if err := writeRaw(a, frame); err != nil {
		t.Fatal(err)
	}
	envs := <-got
	if len(envs) != 1 {
		t.Fatal("batch frame rejected")
	}
	batch, ok := envs[0].Msg.(Batch)
	if !ok || len(batch.Envelopes) != 2 {
		t.Fatalf("decoded %+v", envs[0].Msg)
	}
	if sl, ok := batch.Envelopes[0].Msg.(SetLocks); !ok || !sl.Locked || len(sl.Paths) != 1 {
		t.Fatalf("record 0 = %+v", batch.Envelopes[0].Msg)
	}
	if batch.Envelopes[0].Trace.Valid() {
		t.Fatalf("untraced record decoded trace %+v", batch.Envelopes[0].Trace)
	}
	want := obs.TraceContext{Trace: 777, Span: 888}
	if batch.Envelopes[1].Trace != want {
		t.Fatalf("record 1 trace = %+v, want %+v", batch.Envelopes[1].Trace, want)
	}
	if ex, ok := batch.Envelopes[1].Msg.(Exec); !ok || ex.EventID != 12 || ex.TargetPath != "/f" {
		t.Fatalf("record 1 = %+v", batch.Envelopes[1].Msg)
	}
}

// malformedBatchBodies builds the rejection corpus: zero record count, a
// count far over the cap, a truncated record, a nested batch, and a nested
// batch ack.
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
	return map[string][]byte{
		"zero-count":   binary.AppendUvarint(nil, 0),
		"over-count":   binary.AppendUvarint(nil, MaxBatch+1),
		"truncated":    truncated,
		"nested":       nested,
		"nested-ack":   nestedAck,
		"short-record": shortRecord,
	}
}

func TestBatchDecodeRejectsMalformed(t *testing.T) {
	for name, body := range malformedBatchBodies() {
		if _, err := decodeMessage(TBatch, body, nil, nil); err == nil {
			t.Errorf("%s batch accepted", name)
		}
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

// TestBatchAutoDetectFromPeer asserts the acceptor side of the capability
// handshake: after reading one flagged frame, the acceptor may pack its own
// frames, and the initiator unpacks them.
func TestBatchAutoDetectFromPeer(t *testing.T) {
	cli, srv := Pipe()
	defer cli.Close()
	defer srv.Close()
	cli.EnableBatch()

	if srv.BatchAware() {
		t.Fatal("acceptor batch-aware before any frame")
	}
	srvGot := readN(srv, 1)
	if err := cli.Write(Envelope{Seq: 1, Msg: Register{User: "u"}}); err != nil {
		t.Fatal(err)
	}
	<-srvGot
	if !srv.BatchAware() {
		t.Fatal("server conn did not detect batch-aware peer")
	}
	cliGot := readN(cli, 1)
	batch := Batch{Envelopes: []Envelope{
		{Msg: Exec{EventID: 4, TargetPath: "/x", Name: "changed"}},
		{Msg: Exec{EventID: 5, TargetPath: "/y", Name: "changed"}},
	}}
	if err := srv.Write(Envelope{Msg: batch}); err != nil {
		t.Fatal(err)
	}
	envs := <-cliGot
	if len(envs) != 1 {
		t.Fatal("batched reply rejected")
	}
	got, ok := envs[0].Msg.(Batch)
	if !ok || len(got.Envelopes) != 2 {
		t.Fatalf("decoded %+v", envs[0].Msg)
	}
}

// TestBatchFlagSuppressedForLegacyConn pins the raw bytes: a connection that
// never opted in emits frames without the batchFlag bit, and an opted-in
// connection sets it (alongside traceFlag when that is negotiated too).
func TestBatchFlagSuppressedForLegacyConn(t *testing.T) {
	frameType := func(enableBatch, enableTrace bool) uint16 {
		ca, cb := net.Pipe()
		defer ca.Close()
		defer cb.Close()
		c := NewConn(ca)
		if enableBatch {
			c.EnableBatch()
		}
		if enableTrace {
			c.EnableTrace()
		}
		go c.Write(Envelope{Seq: 1, Msg: OK{}}) //nolint:errcheck
		var lenbuf [4]byte
		if _, err := io.ReadFull(cb, lenbuf[:]); err != nil {
			t.Fatal(err)
		}
		body := make([]byte, binary.LittleEndian.Uint32(lenbuf[:]))
		if _, err := io.ReadFull(cb, body); err != nil {
			t.Fatal(err)
		}
		return binary.LittleEndian.Uint16(body)
	}
	if raw := frameType(false, false); raw&flagMask != 0 {
		t.Errorf("legacy frame type %#x carries extension flags", raw)
	}
	if raw := frameType(true, false); raw&batchFlag == 0 || raw&traceFlag != 0 {
		t.Errorf("batch-only frame type = %#x", raw)
	}
	if raw := frameType(true, true); raw&batchFlag == 0 || raw&traceFlag == 0 {
		t.Errorf("batch+trace frame type = %#x", raw)
	}
}
