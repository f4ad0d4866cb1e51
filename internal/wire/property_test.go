package wire

import (
	"encoding/binary"
	"math/rand"
	"testing"
	"testing/quick"

	"cosoft/internal/attr"
	"cosoft/internal/couple"
	"cosoft/internal/obs"
	"cosoft/internal/widget"
)

// randomMessage builds a random protocol message with random payloads.
func randomMessage(r *rand.Rand) Message {
	str := func() string {
		b := make([]byte, r.Intn(16))
		for i := range b {
			b[i] = byte(r.Intn(256))
		}
		return string(b)
	}
	ref := func() couple.ObjectRef {
		return couple.ObjectRef{Instance: couple.InstanceID(str()), Path: str()}
	}
	vals := func() []attr.Value {
		out := make([]attr.Value, r.Intn(4))
		for i := range out {
			switch r.Intn(4) {
			case 0:
				out[i] = attr.Int(r.Int63() - r.Int63())
			case 1:
				out[i] = attr.String(str())
			case 2:
				out[i] = attr.Bool(r.Intn(2) == 0)
			default:
				out[i] = attr.PointList(attr.Point{X: r.Int31(), Y: r.Int31()})
			}
		}
		if len(out) == 0 {
			return nil
		}
		return out
	}
	ts := func() widget.TreeState {
		root := widget.TreeState{Class: str(), Name: str(), Attrs: attr.NewSet()}
		for i, n := 0, r.Intn(3); i < n; i++ {
			root.Attrs.Put(str(), attr.String(str()))
		}
		for i, n := 0, r.Intn(3); i < n; i++ {
			root.Children = append(root.Children,
				widget.TreeState{Class: str(), Name: str(), Attrs: attr.NewSet()})
		}
		return root
	}
	payload := func() []byte {
		b := make([]byte, r.Intn(32))
		r.Read(b)
		if len(b) == 0 {
			return nil
		}
		return b
	}
	switch r.Intn(16) {
	case 0:
		return Register{AppType: str(), Host: str(), User: str()}
	case 1:
		return Declare{Path: str(), Class: str()}
	case 2:
		return Couple{From: ref(), To: ref()}
	case 3:
		return Event{Path: str(), Name: str(), Args: vals()}
	case 4:
		return Exec{EventID: r.Uint64(), TargetPath: str(), Name: str(), Args: vals(), Origin: ref()}
	case 5:
		return EventResult{OK: r.Intn(2) == 0, Reason: str()}
	case 6:
		paths := make([]string, r.Intn(4))
		for i := range paths {
			paths[i] = str()
		}
		if len(paths) == 0 {
			paths = nil
		}
		return SetLocks{Paths: paths, Locked: r.Intn(2) == 0}
	case 7:
		return CopyTo{FromPath: str(), To: ref(), State: ts(), Destructive: r.Intn(2) == 0}
	case 8:
		return CopyFrom{From: ref(), ToPath: str(), Destructive: r.Intn(2) == 0, Shallow: r.Intn(2) == 0}
	case 9:
		return ApplyState{Path: str(), State: ts(), Origin: couple.InstanceID(str()), Destructive: r.Intn(2) == 0, EventID: r.Uint64()}
	case 10:
		return StateRequest{RequestID: r.Uint64(), Path: str(), RelevantOnly: r.Intn(2) == 0, Shallow: r.Intn(2) == 0}
	case 11:
		return StateReply{RequestID: r.Uint64(), OK: r.Intn(2) == 0, Reason: str(), State: ts()}
	case 12:
		targets := make([]couple.InstanceID, r.Intn(3))
		for i := range targets {
			targets[i] = couple.InstanceID(str())
		}
		if len(targets) == 0 {
			targets = nil
		}
		return Command{Name: str(), Targets: targets, Payload: payload()}
	case 13:
		return CommandDeliver{Name: str(), From: couple.InstanceID(str()), Payload: payload()}
	case 14:
		return LinkAdded{Link: couple.Link{From: ref(), To: ref(), Creator: couple.InstanceID(str())}}
	default:
		return Err{Text: str()}
	}
}

// Property: every random message survives an encode/decode round trip
// through the framed connection.
func TestPropRandomMessagesRoundTrip(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		want := randomMessage(r)
		errc := make(chan error, 1)
		go func() {
			errc <- a.Write(Envelope{Seq: r.Uint64()%1000 + 1, Msg: want})
		}()
		env, err := b.Read()
		if err != nil || <-errc != nil {
			return false
		}
		return messagesEqual(env.Msg, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: every random message round-trips with and without trace
// context, and the received context matches what was sent (zero stays zero,
// non-zero survives exactly).
func TestPropRandomMessagesRoundTripTraced(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		want := randomMessage(r)
		var tc obs.TraceContext
		if r.Intn(2) == 0 {
			tc = obs.TraceContext{Trace: obs.TraceID(r.Uint64() | 1), Span: obs.SpanID(r.Uint64())}
		}
		errc := make(chan error, 1)
		go func() {
			errc <- a.Write(Envelope{Seq: r.Uint64()%1000 + 1, Trace: tc, Msg: want})
		}()
		env, err := b.Read()
		if err != nil || <-errc != nil {
			return false
		}
		return messagesEqual(env.Msg, want) && env.Trace == tc
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: the legacy framing of every random message — built by hand
// without the trace extension — is accepted by the new decoder, decodes to
// an equal message, and never reports trace context. This pins the
// old-writer/new-reader direction of the compatibility matrix.
func TestPropLegacyFramingDecodes(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		want := randomMessage(r)
		seq := r.Uint64() % 1000
		var body []byte
		body = appendLegacyHeader(body, uint16(want.MsgType()), seq, 0)
		body = want.encode(body)
		frame := appendFrameLen(nil, len(body))
		frame = append(frame, body...)
		errc := make(chan error, 1)
		go func() { errc <- writeRaw(a, frame) }()
		env, err := b.Read()
		if err != nil || <-errc != nil {
			return false
		}
		return messagesEqual(env.Msg, want) && env.Seq == seq && !env.Trace.Valid()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// appendLegacyHeader writes the pre-trace envelope header byte layout.
func appendLegacyHeader(buf []byte, msgType uint16, seq, refSeq uint64) []byte {
	buf = binary.LittleEndian.AppendUint16(buf, msgType)
	buf = binary.AppendUvarint(buf, seq)
	return binary.AppendUvarint(buf, refSeq)
}

// appendFrameLen writes the u32 frame length prefix.
func appendFrameLen(buf []byte, n int) []byte {
	return binary.LittleEndian.AppendUint32(buf, uint32(n))
}
