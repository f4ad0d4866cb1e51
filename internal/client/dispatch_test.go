package client

import (
	"fmt"
	"net"
	"testing"
	"time"

	"cosoft/internal/attr"
	"cosoft/internal/couple"
	"cosoft/internal/widget"
	"cosoft/internal/wire"
)

// ackServer connects a client with a textfield /x to a stand-in server over
// an in-memory pipe. It returns the client, the server's end, on which the
// test writes frames to the client, and the acknowledgements the client sends
// back, one string per frame ("ExecAck 3", "BatchAck [1 2]"), in order.
func ackServer(t *testing.T, opts Options) (*Client, *wire.Conn, <-chan string) {
	t.Helper()
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
	opts.Registry = widget.NewRegistry()
	widget.MustBuild(opts.Registry, "/", `textfield x value=""`)
	opts.RPCTimeout = 5 * time.Second
	c, err := New(a, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		c.Close()
		b.Close()
		for extra := range acks {
			t.Errorf("unexpected %s", extra)
		}
	})
	return c, srv, acks
}

// execOn is an Exec of event id on /x.
func execOn(id uint64) wire.Envelope {
	return wire.Envelope{Msg: wire.Exec{EventID: id, TargetPath: "/x", Name: widget.EventChanged,
		Args: []attr.Value{attr.String(fmt.Sprint(id))}}}
}

// packed is one Batch frame of envs.
func packed(envs ...wire.Envelope) wire.Envelope {
	return wire.Envelope{Msg: wire.Batch{Envelopes: envs}}
}

// expectAcks reads the next acknowledgement frames and fails unless they are
// want, in order.
func expectAcks(t *testing.T, acks <-chan string, after string, want ...string) {
	t.Helper()
	for _, w := range want {
		select {
		case got := <-acks:
			if got != w {
				t.Fatalf("after %s: got %s, want %s", after, got, w)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("after %s: no %s", after, w)
		}
	}
}

// TestAckRunFollowsFrames pins the dispatch loop's acknowledgement rule on a
// batch-aware connection: the Execs of one packed frame are answered by one
// BatchAck in record order, a lone Exec by one ExecAck, and a pending run is
// flushed before any other record is dispatched. No lock record takes part:
// an Exec is its own lock notice, consumed by the read loop.
func TestAckRunFollowsFrames(t *testing.T) {
	_, srv, acks := ackServer(t, Options{})
	cmd := wire.Envelope{Msg: wire.CommandDeliver{Name: "unhandled"}}
	for _, step := range []struct {
		frame wire.Envelope
		want  []string
	}{
		{packed(execOn(1), execOn(2)), []string{"BatchAck [1 2]"}},
		{execOn(3), []string{"ExecAck 3"}},
		{packed(execOn(4), cmd, execOn(5)), []string{"ExecAck 4", "ExecAck 5"}},
		{packed(execOn(6), execOn(7), execOn(8)), []string{"BatchAck [6 7 8]"}},
	} {
		if err := srv.Write(step.frame); err != nil {
			t.Fatal(err)
		}
		expectAcks(t, acks, step.frame.Msg.MsgType().String(), step.want...)
	}
}

// TestFramesBoundAckRuns queues two packed frames of Execs behind a command
// handler that has not returned. Once it does, each frame is answered by its
// own BatchAck: an ack run ends with the frame its Execs arrived in, so one
// event's ack never waits for a later frame's apply, even though the queue
// never ran empty in between.
func TestFramesBoundAckRuns(t *testing.T) {
	c, srv, acks := ackServer(t, Options{})
	release := make(chan struct{})
	c.OnCommand("block", func(couple.InstanceID, []byte) { <-release })
	for _, frame := range []wire.Envelope{
		{Msg: wire.CommandDeliver{Name: "block"}},
		packed(execOn(1), execOn(2)),
		packed(execOn(3), execOn(4)),
	} {
		if err := srv.Write(frame); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for c.inq.backlog() != 4 {
		if time.Now().After(deadline) {
			close(release)
			t.Fatalf("%d records queued behind the handler, want both frames' 4 Execs", c.inq.backlog())
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	expectAcks(t, acks, "the handler returned", "BatchAck [1 2]", "BatchAck [3 4]")
}

// backlog is the number of records queued and not yet popped.
func (q *inqueue) backlog() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.q) - q.head
}
