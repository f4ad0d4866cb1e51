package wire

import (
	"encoding/binary"
	"sync"
	"testing"

	"cosoft/internal/obs"
)

// readN reads n envelopes from c on a goroutine.
func readN(c *Conn, n int) <-chan []Envelope {
	out := make(chan []Envelope, 1)
	go func() {
		var envs []Envelope
		for i := 0; i < n; i++ {
			env, err := c.Read()
			if err != nil {
				break
			}
			envs = append(envs, env)
		}
		out <- envs
	}()
	return out
}

// TestTraceRoundTripWhenEnabled: an envelope's trace context reaches the
// peer with the envelope.
func TestTraceRoundTripWhenEnabled(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()

	tc := obs.TraceContext{Trace: 0xdeadbeef, Span: 0x1234}
	got := readN(b, 1)
	if err := a.Write(Envelope{Seq: 7, Trace: tc, Msg: Event{Path: "/f", Name: "changed"}}); err != nil {
		t.Fatal(err)
	}
	envs := <-got
	if len(envs) != 1 {
		t.Fatal("read failed")
	}
	if envs[0].Trace != tc {
		t.Fatalf("trace = %+v, want %+v", envs[0].Trace, tc)
	}
	if envs[0].Seq != 7 {
		t.Fatalf("seq = %d, want 7", envs[0].Seq)
	}
}

// TestTraceFlagByPresence pins the presence rule on every header writer: a
// frame's header, and a packed record's, carries traceFlag exactly when its
// envelope's context is non-zero, and a context-free frame has the bytes of
// the pre-trace layout.
func TestTraceFlagByPresence(t *testing.T) {
	for _, tc := range []obs.TraceContext{{}, {Trace: 42, Span: 43}, {Span: 43}} {
		env := Envelope{Seq: 1, Trace: tc, Msg: ExecAck{EventID: 12}}
		want := tc != obs.TraceContext{}
		sink := &sinkConn{}
		c := NewConn(sink)
		if err := c.Write(env); err != nil {
			t.Fatal(err)
		}
		frame := sink.bytes()
		flagged := func(header []byte) bool { return binary.LittleEndian.Uint16(header)&traceFlag != 0 }
		if got := flagged(frame[4:]); got != want {
			t.Errorf("context %+v: frame flagged %v, want %v", tc, got, want)
		}
		if got := flagged(AppendEnvelope(nil, env)); got != want {
			t.Errorf("context %+v: record flagged %v, want %v", tc, got, want)
		}
		if !want {
			legacy := binary.LittleEndian.AppendUint32(nil, 0)
			legacy = binary.LittleEndian.AppendUint16(legacy, uint16(TExecAck))
			legacy = binary.AppendUvarint(legacy, 1) // seq
			legacy = binary.AppendUvarint(legacy, 0) // refSeq
			legacy = ExecAck{EventID: 12}.encode(legacy)
			binary.LittleEndian.PutUint32(legacy, uint32(len(legacy)-4))
			if string(frame) != string(legacy) {
				t.Errorf("a context-free frame is %x, the pre-trace layout %x", frame, legacy)
			}
		}
	}
}

// TestLegacyFrameBytesDecode hand-builds a pre-trace frame (no flag bit, no
// trace varints) and asserts the new decoder accepts it unchanged — the
// "new reader, old writer" direction of the compatibility matrix.
func TestLegacyFrameBytesDecode(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()

	var body []byte
	body = binary.LittleEndian.AppendUint16(body, uint16(TEvent))
	body = binary.AppendUvarint(body, 5) // seq
	body = binary.AppendUvarint(body, 0) // refSeq
	body = Event{Path: "/f", Name: "changed"}.encode(body)
	frame := binary.LittleEndian.AppendUint32(nil, uint32(len(body)))
	frame = append(frame, body...)

	got := readN(b, 1)
	if err := writeRaw(a, frame); err != nil {
		t.Fatal(err)
	}
	envs := <-got
	if len(envs) != 1 {
		t.Fatal("legacy frame rejected")
	}
	env := envs[0]
	if env.Trace.Valid() {
		t.Fatalf("legacy frame decoded with trace %+v", env.Trace)
	}
	ev, ok := env.Msg.(Event)
	if !ok || ev.Path != "/f" || ev.Name != "changed" || env.Seq != 5 {
		t.Fatalf("decoded %+v", env)
	}
}

// TestTracedFrameBytesDecode hand-builds a flagged frame and asserts the
// decoder extracts the context — the "new reader, new writer" byte layout
// pinned independently of the encoder.
func TestTracedFrameBytesDecode(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()

	var body []byte
	body = binary.LittleEndian.AppendUint16(body, uint16(TExecAck)|traceFlag)
	body = binary.AppendUvarint(body, 0)   // seq
	body = binary.AppendUvarint(body, 0)   // refSeq
	body = binary.AppendUvarint(body, 777) // trace id
	body = binary.AppendUvarint(body, 888) // span id
	body = ExecAck{EventID: 12}.encode(body)
	frame := binary.LittleEndian.AppendUint32(nil, uint32(len(body)))
	frame = append(frame, body...)

	got := readN(b, 1)
	if err := writeRaw(a, frame); err != nil {
		t.Fatal(err)
	}
	envs := <-got
	if len(envs) != 1 {
		t.Fatal("traced frame rejected")
	}
	want := obs.TraceContext{Trace: 777, Span: 888}
	if envs[0].Trace != want {
		t.Fatalf("trace = %+v, want %+v", envs[0].Trace, want)
	}
	if ack, ok := envs[0].Msg.(ExecAck); !ok || ack.EventID != 12 {
		t.Fatalf("decoded %+v", envs[0].Msg)
	}
}

// TestTracedFrameTruncatedHeader asserts a flagged frame whose trace varints
// are missing is rejected, not misparsed into the body.
func TestTracedFrameTruncatedHeader(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()

	var body []byte
	body = binary.LittleEndian.AppendUint16(body, uint16(TOK)|traceFlag)
	body = binary.AppendUvarint(body, 0) // seq
	body = binary.AppendUvarint(body, 0) // refSeq
	// No trace varints, no body: decoding the trace id must fail cleanly.
	frame := binary.LittleEndian.AppendUint32(nil, uint32(len(body)))
	frame = append(frame, body...)

	errc := make(chan error, 1)
	go func() {
		_, err := b.Read()
		errc <- err
	}()
	if err := writeRaw(a, frame); err != nil {
		t.Fatal(err)
	}
	if err := <-errc; err == nil {
		t.Fatal("truncated traced frame accepted")
	}
}

// TestConcurrentTracedWrites exercises the write path under concurrency:
// mixed traced/untraced envelopes from many goroutines all arrive intact.
func TestConcurrentTracedWrites(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()

	const n = 64
	got := readN(b, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			env := Envelope{Seq: uint64(i + 1), Msg: OK{}}
			if i%2 == 0 {
				env.Trace = obs.TraceContext{Trace: obs.TraceID(i + 1), Span: obs.SpanID(i + 1)}
			}
			if err := a.Write(env); err != nil {
				t.Errorf("write %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	envs := <-got
	if len(envs) != n {
		t.Fatalf("read %d envelopes, want %d", len(envs), n)
	}
	traced := 0
	for _, env := range envs {
		if env.Trace.Valid() {
			traced++
			if uint64(env.Trace.Trace) != env.Seq {
				t.Errorf("seq %d carried trace %d", env.Seq, env.Trace.Trace)
			}
		}
	}
	if traced != n/2 {
		t.Errorf("got %d traced envelopes, want %d", traced, n/2)
	}
}
