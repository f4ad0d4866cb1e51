package server_test

import (
	"encoding/binary"
	"testing"
	"time"

	"cosoft/internal/attr"
	"cosoft/internal/couple"
	"cosoft/internal/server"
	"cosoft/internal/testbed"
	"cosoft/internal/wire"
)

// rawEvent frames an Event for a raw peer to send untouched: the Path as
// usual, then name and args exactly as given, so a test can put bytes on the
// wire that no encoder writes.
func rawEvent(seq uint64, path string, name, args []byte) []byte {
	body := binary.LittleEndian.AppendUint16(nil, uint16(wire.TEvent))
	body = binary.AppendUvarint(body, seq)
	body = binary.AppendUvarint(body, 0) // refSeq
	body = binary.AppendUvarint(body, uint64(len(path)))
	body = append(body, path...)
	body = append(append(body, name...), args...)
	return append(binary.LittleEndian.AppendUint32(nil, uint32(len(body))), body...)
}

// encName is name with its usual length prefix.
func encName(name string) []byte {
	return append(binary.AppendUvarint(nil, uint64(len(name))), name...)
}

// rawOrigin registers a raw peer whose /o is coupled to member's /m.
func rawOrigin(t *testing.T, bed *testbed.Bed, member *testbed.Peer) *testbed.Peer {
	t.Helper()
	o := bed.Raw(wire.Register{AppType: "app", User: "origin"})
	o.MustOK(wire.Declare{Path: "/o", Class: "textfield"})
	o.MustOK(wire.Couple{From: couple.ObjectRef{Instance: o.ID, Path: "/o"}, To: couple.ObjectRef{Instance: member.ID, Path: "/m"}})
	return o
}

// TestMalformedEventRefused holds the server to refusing an Event whose
// arguments do not decode, now that it checks them without decoding: the
// origin's connection is dropped, no member receives an Exec, and no relay
// body is left behind. A valid but non-canonical encoding is relayed as sent
// and decodes at the member to the values the origin's bytes decode to, which
// is what re-encoding them would have carried.
func TestMalformedEventRefused(t *testing.T) {
	_, bed := newBed(t, server.Options{})
	member := bed.Raw(wire.Register{AppType: "app", User: "member"})
	member.MustOK(wire.Declare{Path: "/m", Class: "textfield"})

	str := func(kind attr.Kind, n int, s string) []byte {
		return append(binary.AppendUvarint([]byte{byte(kind)}, uint64(n)), s...)
	}
	for _, tc := range []struct {
		name string
		args []byte
	}{
		{"truncated string", append([]byte{1}, str(attr.KindString, 10, "abc")...)},
		{"unknown kind", []byte{1, 0x7f}},
		{"4097 values", append(binary.AppendUvarint(nil, attr.MaxValues+1), make([]byte, attr.MaxValues+1)...)},
		{"trailing bytes", append(append([]byte{1}, str(attr.KindString, 1, "x")...), 0)},
	} {
		o := rawOrigin(t, bed, member)
		if err := o.SendRaw(rawEvent(100, "/o", encName("changed"), tc.args)); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		deadline := time.After(5 * time.Second)
	drain:
		for {
			select {
			case env, open := <-o.Events:
				if !open {
					break drain
				}
				if env.RefSeq == 100 {
					t.Fatalf("%s: the event was answered (%#v), want the connection dropped", tc.name, env.Msg)
				}
			case <-deadline:
				t.Fatalf("%s: the origin's connection is still open", tc.name)
			}
		}
		testbed.Wait(t, tc.name+": no relay body left", func() bool { return wire.LiveSharedBodies() == 0 })
	}

	// Non-canonical but valid: a bool as varint 5; a count, a name length and
	// a string length each as an overlong uvarint. The first Exec the member
	// sees is the first of these, so none of the refused events reached it.
	o := rawOrigin(t, bed, member)
	for i, tc := range []struct {
		name, args []byte
		want       attr.Value
	}{
		{encName("changed"), []byte{1, byte(attr.KindBool), 10}, attr.Bool(true)},
		{[]byte{0x87, 0x00, 'c', 'h', 'a', 'n', 'g', 'e', 'd'}, []byte{0x81, 0x00, byte(attr.KindString), 0x83, 0x80, 0x00, 'a', 'b', 'c'}, attr.String("abc")},
	} {
		decoded, rest, err := attr.DecodeValues(tc.args)
		if err != nil || len(rest) != 0 || len(decoded) != 1 || !decoded[0].Equal(tc.want) {
			t.Fatalf("case %d: the origin's bytes decode to %v (%v), want %v", i, decoded, err, tc.want)
		}
		seq := uint64(200 + i)
		if err := o.SendRaw(rawEvent(seq, "/o", tc.name, tc.args)); err != nil {
			t.Fatal(err)
		}
		exec := testbed.Next[wire.Exec](member)
		if exec.Name != "changed" || exec.TargetPath != "/m" || len(exec.Args) != 1 || !exec.Args[0].Equal(decoded[0]) {
			t.Fatalf("case %d: member received %s %v on %s, want changed %v on /m", i, exec.Name, exec.Args, exec.TargetPath, decoded)
		}
		if err := member.Send(wire.ExecAck{EventID: exec.EventID}); err != nil {
			t.Fatal(err)
		}
		if res := nextReply(t, o, seq); !res.OK {
			t.Fatalf("case %d: event refused: %s", i, res.Reason)
		}
		// The unlock follows the last ack; the next event must not find the
		// group still locked.
		for m := testbed.Next[wire.SetLocks](member); m.Locked; m = testbed.Next[wire.SetLocks](member) {
		}
	}
}

// nextReply returns the EventResult answering seq on p's Events.
func nextReply(t *testing.T, p *testbed.Peer, seq uint64) wire.EventResult {
	t.Helper()
	deadline := time.After(5 * time.Second)
	for {
		select {
		case env, open := <-p.Events:
			if !open {
				t.Fatalf("connection closed waiting for the answer to %d", seq)
			}
			if res, ok := env.Msg.(wire.EventResult); ok && env.RefSeq == seq {
				return res
			}
		case <-deadline:
			t.Fatalf("no answer to %d", seq)
		}
	}
}
