package wire

import (
	"errors"
	"io"
	"net"
	"reflect"
	"sync"
	"testing"

	"cosoft/internal/attr"
	"cosoft/internal/couple"
	"cosoft/internal/obs"
	"cosoft/internal/widget"
)

func sampleTreeState() widget.TreeState {
	return widget.TreeState{
		Class: "form", Name: "query",
		Attrs: attr.Set{"title": attr.String("Q")},
		Children: []widget.TreeState{
			{Class: "textfield", Name: "author", Attrs: attr.Set{"value": attr.String("knuth")}},
			{Class: "menu", Name: "op", Attrs: attr.Set{"items": attr.StringList("eq", "substring")}},
		},
	}
}

func allMessages() []Message {
	refA := couple.ObjectRef{Instance: "i1", Path: "/a"}
	refB := couple.ObjectRef{Instance: "i2", Path: "/b"}
	return []Message{
		Register{AppType: "tori", Host: "h", User: "u"},
		Registered{ID: "tori-1"},
		Deregister{},
		Declare{Path: "/q", Class: "textfield"},
		Retract{Path: "/q"},
		Couple{From: refA, To: refB},
		Decouple{From: refA, To: refB},
		LinkAdded{Link: couple.Link{From: refA, To: refB, Creator: "i3"}},
		LinkRemoved{Link: couple.Link{From: refB, To: refA, Creator: "i1"}},
		Event{Path: "/q", Name: "changed", Args: []attr.Value{attr.String("x"), attr.Int(3)}},
		Event{Path: "/q", Name: "activate"},
		Exec{EventID: 7, TargetPath: "/q2", Name: "changed",
			Args: []attr.Value{attr.String("x")}, Origin: refA},
		ExecAck{EventID: 7},
		EventResult{OK: true},
		EventResult{OK: false, Reason: "locked"},
		SetLocks{Paths: []string{"/a", "/b"}, Locked: true},
		SetLocks{Paths: nil, Locked: false},
		CopyTo{FromPath: "/a", To: refB, State: sampleTreeState(), Destructive: true},
		CopyFrom{From: refA, ToPath: "/b"},
		RemoteCopy{From: refA, To: refB, Destructive: true},
		ApplyState{Path: "/b", State: sampleTreeState(), Origin: "i1"},
		StateRequest{RequestID: 9, Path: "/a"},
		StateReply{RequestID: 9, OK: true, State: sampleTreeState()},
		StateReply{RequestID: 10, OK: false, Reason: "gone"},
		Command{Name: "refresh", Targets: []couple.InstanceID{"i1", "i2"}, Payload: []byte{1, 2, 3}},
		Command{Name: "broadcast"},
		CommandDeliver{Name: "refresh", From: "i3", Payload: []byte("data")},
		FetchState{Ref: refA, RelevantOnly: true},
		StateRequest{RequestID: 3, Path: "/x", RelevantOnly: true},
		Undo{Path: "/a"},
		Redo{Path: "/a"},
		ListInstances{},
		InstanceList{Instances: []InstanceInfo{
			{ID: "i1", AppType: "tori", Host: "h", User: "u",
				Objects: []DeclaredObject{{Path: "/q", Class: "form"}}},
			{ID: "i2", AppType: "cosoft"},
		}},
		GrantPerm{User: "u", State: "i1:*", Right: 2},
		RevokePerm{User: "u", State: "i1:*", Right: 2},
		Ping{Nonce: 42},
		Pong{Nonce: 42},
		SessionToken{},
		SessionToken{Token: "f00dcafe"},
		Resume{Token: "f00dcafe"},
		Batch{Envelopes: []Envelope{
			{Seq: 4, Msg: SetLocks{Paths: []string{"/a", "/b"}, Locked: true}},
			{Trace: obs.TraceContext{Trace: 7, Span: 8},
				Msg: Exec{EventID: 7, TargetPath: "/q", Name: "changed",
					Args: []attr.Value{attr.String("x")}, Origin: refA}},
			{RefSeq: 3, Msg: OK{}},
		}},
		Batch{Envelopes: []Envelope{{Msg: Exec{EventID: 9, TargetPath: "/q", Name: "activate"}}}},
		BatchAck{Acks: []BatchAckEntry{
			{EventID: 7, Trace: obs.TraceContext{Trace: 7, Span: 9}},
			{EventID: 8},
		}},
		OK{},
		Err{Text: "boom"},
	}
}

// messagesEqual compares messages, treating nil and empty slices alike.
func messagesEqual(a, b Message) bool {
	return reflect.DeepEqual(normalize(a), normalize(b))
}

func normalize(m Message) Message {
	switch v := m.(type) {
	case Event:
		if len(v.Args) == 0 {
			v.Args = nil
		}
		return v
	case Exec:
		if len(v.Args) == 0 {
			v.Args = nil
		}
		return v
	case Command:
		if len(v.Payload) == 0 {
			v.Payload = nil
		}
		if len(v.Targets) == 0 {
			v.Targets = nil
		}
		return v
	case CommandDeliver:
		if len(v.Payload) == 0 {
			v.Payload = nil
		}
		return v
	case SetLocks:
		if len(v.Paths) == 0 {
			v.Paths = nil
		}
		return v
	case Batch:
		envs := make([]Envelope, len(v.Envelopes))
		for i, e := range v.Envelopes {
			e.Msg = normalize(e.Msg)
			envs[i] = e
		}
		v.Envelopes = envs
		return v
	case CopyTo:
		v.State = normalizeTS(v.State)
		return v
	case ApplyState:
		v.State = normalizeTS(v.State)
		return v
	case StateReply:
		v.State = normalizeTS(v.State)
		return v
	default:
		return m
	}
}

// normalizeTS maps nil attribute sets to empty ones: the codec cannot
// distinguish them and neither can any consumer.
func normalizeTS(ts widget.TreeState) widget.TreeState {
	if ts.Attrs == nil {
		ts.Attrs = attr.NewSet()
	}
	for i := range ts.Children {
		ts.Children[i] = normalizeTS(ts.Children[i])
	}
	return ts
}

func TestMessageRoundTripOverPipe(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()
	msgs := allMessages()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i, want := range msgs {
			env, err := b.Read()
			if err != nil {
				t.Errorf("read %d: %v", i, err)
				return
			}
			if env.Seq != uint64(i+1) || env.RefSeq != uint64(i) {
				t.Errorf("msg %d: seq=%d refSeq=%d", i, env.Seq, env.RefSeq)
			}
			if !messagesEqual(env.Msg, want) {
				t.Errorf("msg %d (%s): got %#v, want %#v", i, want.MsgType(), env.Msg, want)
			}
		}
	}()
	for i, m := range msgs {
		if err := a.Write(Envelope{Seq: uint64(i + 1), RefSeq: uint64(i), Msg: m}); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	wg.Wait()
}

func TestTypeString(t *testing.T) {
	if got := TEvent.String(); got != "Event" {
		t.Errorf("String = %q", got)
	}
	if got := Type(999).String(); got != "Type(999)" {
		t.Errorf("String = %q", got)
	}
	// Every declared message type must have a name and every message's
	// MsgType must be named.
	for _, m := range allMessages() {
		if _, ok := typeNames[m.MsgType()]; !ok {
			t.Errorf("type %d has no name", m.MsgType())
		}
	}
}

func TestReadEOF(t *testing.T) {
	a, b := Pipe()
	go a.Close()
	if _, err := b.Read(); !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrClosedPipe) {
		t.Errorf("err = %v", err)
	}
	b.Close()
}

func TestWriteNilMessage(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()
	if err := a.Write(Envelope{}); err == nil {
		t.Error("nil message must fail")
	}
}

func TestCorruptFrames(t *testing.T) {
	send := func(t *testing.T, raw []byte) error {
		t.Helper()
		ca, cb := net.Pipe()
		defer ca.Close()
		conn := NewConn(cb)
		defer conn.Close()
		go func() {
			ca.Write(raw)
			ca.Close()
		}()
		_, err := conn.Read()
		return err
	}
	// Oversized frame announcement.
	if err := send(t, []byte{0xff, 0xff, 0xff, 0xff}); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("oversized: %v", err)
	}
	// Too-short frame.
	if err := send(t, []byte{2, 0, 0, 0, 1, 2}); err == nil {
		t.Error("short frame must fail")
	}
	// Unknown type.
	if err := send(t, []byte{4, 0, 0, 0, 0xff, 0x7f, 0, 0}); err == nil {
		t.Error("unknown type must fail")
	}
	// Truncated body for a known type (Register wants three strings).
	if err := send(t, []byte{4, 0, 0, 0, byte(TRegister), 0, 0, 0}); err == nil {
		t.Error("truncated register must fail")
	}
	// Trailing garbage after a valid body.
	if err := send(t, []byte{6, 0, 0, 0, byte(TOK), 0, 0, 0, 9, 9}); err == nil {
		t.Error("trailing bytes must fail")
	}
}

func TestDecodeTrailingAndTruncated(t *testing.T) {
	for _, m := range allMessages() {
		body := m.encode(nil)
		// Trailing byte must be rejected.
		if _, err := decodeMessage(m.MsgType(), append(append([]byte{}, body...), 0), nil); err == nil {
			// Messages whose last field is variable-length may absorb one
			// extra byte legally only if encoding is ambiguous — none are.
			t.Errorf("%s: trailing byte accepted", m.MsgType())
		}
		// Every strict prefix must error or decode to something different,
		// and must never panic.
		for cut := 0; cut < len(body); cut++ {
			got, err := decodeMessage(m.MsgType(), body[:cut], nil)
			if err == nil && messagesEqual(got, m) {
				t.Errorf("%s: prefix %d decoded to identical message", m.MsgType(), cut)
			}
		}
	}
}

func TestConcurrentWrites(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()
	const n = 50
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 2*n; i++ {
			if _, err := b.Read(); err != nil {
				t.Errorf("read: %v", err)
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				if err := a.Write(Envelope{Seq: 1, Msg: OK{}}); err != nil {
					t.Errorf("write: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	<-done
}

func BenchmarkEventRoundTrip(b *testing.B) {
	ca, cb := Pipe()
	defer ca.Close()
	defer cb.Close()
	msg := Event{Path: "/query/author", Name: "changed",
		Args: []attr.Value{attr.String("some typical field content")}}
	go func() {
		for {
			env, err := cb.Read()
			if err != nil {
				return
			}
			if err := cb.Write(Envelope{RefSeq: env.Seq, Msg: OK{}}); err != nil {
				return
			}
		}
	}()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ca.Write(Envelope{Seq: uint64(i + 1), Msg: msg}); err != nil {
			b.Fatal(err)
		}
		if _, err := ca.Read(); err != nil {
			b.Fatal(err)
		}
	}
}

func TestRemoteAddr(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()
	if a.RemoteAddr() == nil {
		t.Error("RemoteAddr nil")
	}
}
