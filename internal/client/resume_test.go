package client

import (
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cosoft/internal/attr"
	"cosoft/internal/couple"
	"cosoft/internal/widget"
	"cosoft/internal/wire"
)

// TestResumeReplyPackedWithGroupTraffic: a server that answers a Resume with
// one Batch frame [LinkAdded, Registered, Exec] — group traffic packed on
// both sides of the reply — leaves the client resumed under its own ID, the
// link mirrored, and the Exec applied and acknowledged exactly once.
func TestResumeReplyPackedWithGroupTraffic(t *testing.T) {
	const id = couple.InstanceID("fake-1")
	link := couple.Link{
		From:    couple.ObjectRef{Instance: id, Path: "/x"},
		To:      couple.ObjectRef{Instance: "peer-2", Path: "/y"},
		Creator: "peer-2",
	}
	exec := wire.Exec{EventID: 77, TargetPath: "/x", Name: widget.EventChanged,
		Args: []attr.Value{attr.String("resumed")}, Origin: link.To}

	// serve stands in for the server on one connection: it answers the first
	// frame (a Register, or a Resume with the packed frame), reports every
	// acknowledged event ID, and answers every other request with a token or
	// an OK.
	acks := make(chan uint64, 16)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var conns []net.Conn
	serve := func(conn net.Conn) {
		defer wg.Done()
		srv := wire.NewConn(conn)
		hello, err := srv.Read()
		if err != nil {
			return
		}
		if _, ok := hello.Msg.(wire.Resume); ok {
			err = srv.Write(wire.Envelope{Msg: wire.Batch{Envelopes: []wire.Envelope{
				{Msg: wire.LinkAdded{Link: link}},
				{RefSeq: hello.Seq, Msg: wire.Registered{ID: id}},
				{Msg: exec},
			}}})
		} else {
			err = srv.Write(wire.Envelope{RefSeq: hello.Seq, Msg: wire.Registered{ID: id}})
		}
		for err == nil {
			var req wire.Envelope
			if req, err = srv.Read(); err != nil {
				return
			}
			switch m := req.Msg.(type) {
			case wire.ExecAck:
				acks <- m.EventID
			case wire.BatchAck:
				for _, a := range m.Acks {
					acks <- a.EventID
				}
			case wire.SessionToken:
				err = srv.Write(wire.Envelope{RefSeq: req.Seq, Msg: wire.SessionToken{Token: "tok"}})
			default:
				err = srv.Write(wire.Envelope{RefSeq: req.Seq, Msg: wire.OK{}})
			}
		}
	}
	dial := func() (net.Conn, error) {
		a, b := net.Pipe()
		mu.Lock()
		conns = append(conns, b)
		mu.Unlock()
		wg.Add(1)
		go serve(b)
		return a, nil
	}

	reg := widget.NewRegistry()
	widget.MustBuild(reg, "/", `textfield x value=""`)
	var applied atomic.Int32 // re-executions of the packed Exec
	resynced := make(chan error, 1)
	first, err := dial()
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(first, Options{
		Registry: reg, RPCTimeout: 5 * time.Second,
		OnRemoteEvent: func(*widget.Event) { applied.Add(1) },
		Reconnect:     &ReconnectOptions{Dial: dial, Seed: 1, OnResync: func(err error) { resynced <- err }},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer wg.Wait()
	defer c.Close()

	mu.Lock()
	conns[0].Close() // connection loss: the client redials and resumes
	mu.Unlock()
	select {
	case err := <-resynced:
		if err != nil {
			t.Fatalf("resync after the packed resume reply: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the client never resynchronized")
	}
	if c.ID() != id {
		t.Errorf("resumed as %s, want %s", c.ID(), id)
	}
	if links := c.Links(); len(links) != 1 || links[0].From != link.From || links[0].To != link.To {
		t.Errorf("mirror holds %v, want the packed link %v", links, link)
	}
	select {
	case got := <-acks:
		if got != exec.EventID {
			t.Fatalf("acknowledged event %d, want %d", got, exec.EventID)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the packed Exec was never acknowledged")
	}
	w, err := reg.Lookup("/x")
	if err != nil {
		t.Fatal(err)
	}
	if v := w.Attr(widget.AttrValue); !v.Equal(attr.String("resumed")) {
		t.Errorf("/x = %v after the packed Exec, want \"resumed\"", v)
	}

	// Close runs the Deregister round trip behind any later ack on the same
	// connection; after it, nothing more may have been applied or acked.
	c.Close()
	wg.Wait()
	if n := applied.Load(); n != 1 {
		t.Errorf("the packed Exec was re-executed %d times, want 1", n)
	}
	close(acks)
	for extra := range acks {
		t.Errorf("event %d acknowledged again", extra)
	}
}
