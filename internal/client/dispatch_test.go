package client

import (
	"fmt"
	"net"
	"testing"
	"time"

	"cosoft/internal/attr"
	"cosoft/internal/widget"
	"cosoft/internal/wire"
)

// TestAckRunFollowsFrames pins the dispatch loop's acknowledgement rule on a
// batch-aware connection: the Execs of one packed frame are answered by one
// BatchAck in record order, a lone Exec by one ExecAck, and a pending run is
// flushed before any other record is dispatched.
func TestAckRunFollowsFrames(t *testing.T) {
	a, b := net.Pipe()
	srv := wire.NewConn(b)
	acks := make(chan string, 8)
	go func() {
		defer close(acks)
		env, err := srv.Read()
		if err != nil || srv.Write(wire.Envelope{RefSeq: env.Seq, Msg: wire.Registered{ID: "fake-1"}}) != nil {
			return
		}
		for {
			env, err := srv.Read()
			if err != nil {
				return
			}
			switch m := env.Msg.(type) {
			case wire.ExecAck:
				acks <- fmt.Sprintf("ExecAck %d", m.EventID)
			case wire.BatchAck:
				ids := make([]uint64, len(m.Acks))
				for i, e := range m.Acks {
					ids[i] = e.EventID
				}
				acks <- fmt.Sprintf("BatchAck %v", ids)
			case wire.Deregister:
				_ = srv.Write(wire.Envelope{RefSeq: env.Seq, Msg: wire.OK{}})
			}
		}
	}()
	reg := widget.NewRegistry()
	widget.MustBuild(reg, "/", `textfield x value=""`)
	c, err := New(a, Options{Registry: reg, RPCTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	defer c.Close()

	exec := func(id uint64) wire.Envelope {
		return wire.Envelope{Msg: wire.Exec{EventID: id, TargetPath: "/x", Name: widget.EventChanged,
			Args: []attr.Value{attr.String(fmt.Sprint(id))}}}
	}
	lock := wire.Envelope{Msg: wire.SetLocks{Paths: []string{"/x"}, Locked: true}}
	unlock := wire.Envelope{Msg: wire.SetLocks{Paths: []string{"/x"}, Locked: false}}
	packed := func(envs ...wire.Envelope) wire.Envelope { return wire.Envelope{Msg: wire.Batch{Envelopes: envs}} }
	for _, step := range []struct {
		frame wire.Envelope
		want  []string
	}{
		{packed(lock, exec(1), exec(2)), []string{"BatchAck [1 2]"}},
		{exec(3), []string{"ExecAck 3"}},
		{packed(exec(4), unlock, exec(5)), []string{"ExecAck 4", "ExecAck 5"}},
		{packed(exec(6), exec(7), exec(8)), []string{"BatchAck [6 7 8]"}},
	} {
		if err := srv.Write(step.frame); err != nil {
			t.Fatal(err)
		}
		for _, want := range step.want {
			select {
			case got := <-acks:
				if got != want {
					t.Fatalf("after %s: got %s, want %s", step.frame.Msg.MsgType(), got, want)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("after %s: no %s", step.frame.Msg.MsgType(), want)
			}
		}
	}
	c.Close()
	b.Close()
	for extra := range acks {
		t.Errorf("unexpected %s", extra)
	}
}
