package client

import (
	"fmt"
	"net"
	"reflect"
	"slices"
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
		Reconnect:     &ReconnectOptions{Dial: dial, OnResync: func(err error) { resynced <- err }},
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

// resumeServer stands in for the server across a client's connections: the
// first frame of connection n (0 is the registration) is answered with
// answer(n, hello), and every later request with a token or an OK. A nil
// answer closes the connection instead. dial hands the client the next
// connection; cut closes the current one at the server's end.
type resumeServer struct {
	answer func(n int, hello wire.Envelope) []wire.Envelope
	// hangUp, if set, reports whether connection n is closed right after its
	// answer, before any request is read.
	hangUp func(n int) bool
	// requests, if set, receives every request after the first frames.
	requests chan wire.Message

	mu    sync.Mutex
	conns []net.Conn
	wg    sync.WaitGroup
}

func (s *resumeServer) dial() (net.Conn, error) {
	a, b := net.Pipe()
	s.mu.Lock()
	n := len(s.conns)
	s.conns = append(s.conns, b)
	s.mu.Unlock()
	s.wg.Add(1)
	go s.serve(n, b)
	return a, nil
}

func (s *resumeServer) cut() {
	s.mu.Lock()
	s.conns[len(s.conns)-1].Close()
	s.mu.Unlock()
}

func (s *resumeServer) serve(n int, conn net.Conn) {
	defer s.wg.Done()
	defer conn.Close()
	srv := wire.NewConn(conn)
	hello, err := srv.Read()
	if err != nil {
		return
	}
	answer := s.answer(n, hello)
	if answer == nil {
		return
	}
	if err := srv.Write(wire.Envelope{Msg: wire.Batch{Envelopes: answer}}); err != nil || s.hangUp != nil && s.hangUp(n) {
		return
	}
	for {
		req, err := srv.Read()
		if err != nil {
			return
		}
		if s.requests != nil {
			s.requests <- req.Msg
		}
		var reply wire.Message = wire.OK{}
		switch req.Msg.(type) {
		case wire.SessionToken:
			reply = wire.SessionToken{Token: "tok-0"}
		case wire.ExecAck, wire.BatchAck, wire.Pong:
			continue
		}
		if srv.Write(wire.Envelope{RefSeq: req.Seq, Msg: reply}) != nil {
			return
		}
	}
}

// TestResumeReplyTokenResumesTheNextCut: the token a resume reply carries is
// the one the next resume presents, so a cut that lands right after the
// admission, before the client has asked for anything, leaves the session
// resumable. The stand-in honours only the token it issued last, as the
// server does.
func TestResumeReplyTokenResumesTheNextCut(t *testing.T) {
	const id = couple.InstanceID("fake-1")
	var mu sync.Mutex
	var presented []string
	s := &resumeServer{
		answer: func(n int, hello wire.Envelope) []wire.Envelope {
			reply := wire.Registered{ID: id}
			if m, ok := hello.Msg.(wire.Resume); ok {
				mu.Lock()
				presented = append(presented, m.Token)
				mu.Unlock()
				if want := fmt.Sprintf("tok-%d", n-1); m.Token != want {
					return []wire.Envelope{{RefSeq: hello.Seq, Msg: wire.Err{Text: "unknown session token"}}}
				}
				reply.Token, reply.Kept = fmt.Sprintf("tok-%d", n), true
			}
			return []wire.Envelope{{RefSeq: hello.Seq, Msg: reply}}
		},
		hangUp: func(n int) bool { return n == 1 },
	}
	resynced := make(chan error, 2) // one per resume
	first, _ := s.dial()
	c, err := New(first, Options{
		Registry: widget.NewRegistry(), RPCTimeout: 5 * time.Second,
		Reconnect: &ReconnectOptions{Dial: s.dial, OnResync: func(err error) { resynced <- err }},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.wg.Wait()
	defer c.Close()

	s.cut() // the first resume is cut as soon as it is answered
	for i := 0; i < 2; i++ {
		select {
		case <-resynced:
		case <-time.After(10 * time.Second):
			mu.Lock()
			got := slices.Clone(presented)
			mu.Unlock()
			t.Fatalf("%d resyncs; the resumes presented %v", i, got)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if want := []string{"tok-0", "tok-1"}; !slices.Equal(presented, want) {
		t.Errorf("the resumes presented %v, want %v", presented, want)
	}
}

// TestKeptResumeLevelsTheMirror: on a kept resume the mirror becomes exactly
// the links the server sent ahead of its reply, and resync re-couples and
// pulls nothing; on a dropped one it keeps the links that touch the instance,
// and resync re-creates them and pulls the object's state.
func TestKeptResumeLevelsTheMirror(t *testing.T) {
	const id = couple.InstanceID("fake-1")
	x := couple.ObjectRef{Instance: id, Path: "/x"}
	y := couple.ObjectRef{Instance: "peer-2", Path: "/y"}
	z := couple.ObjectRef{Instance: "peer-3", Path: "/z"}
	xy := couple.Link{From: x, To: y, Creator: id}
	yz := couple.Link{From: y, To: z, Creator: "peer-2"}
	for _, kept := range []bool{true, false} {
		t.Run(fmt.Sprintf("kept=%v", kept), func(t *testing.T) {
			// Room for every request the case sends: about half a dozen.
			s := &resumeServer{requests: make(chan wire.Message, 16), answer: func(n int, hello wire.Envelope) []wire.Envelope {
				if n == 0 {
					// The registration comes with a group of two links.
					return []wire.Envelope{{RefSeq: hello.Seq, Msg: wire.Registered{ID: id}},
						{Msg: wire.LinkAdded{Link: xy}}, {Msg: wire.LinkAdded{Link: yz}}}
				}
				// Meanwhile y and z were decoupled.
				reply := wire.Envelope{RefSeq: hello.Seq, Msg: wire.Registered{ID: id, Token: "tok-1", Kept: kept}}
				if !kept {
					return []wire.Envelope{reply}
				}
				return []wire.Envelope{{Msg: wire.LinkAdded{Link: xy}}, reply}
			}}
			resynced := make(chan error, 1)
			first, _ := s.dial()
			reg := widget.NewRegistry()
			widget.MustBuild(reg, "/", `textfield x value=""`)
			c, err := New(first, Options{
				Registry: reg, RPCTimeout: 5 * time.Second,
				Reconnect: &ReconnectOptions{Dial: s.dial, OnResync: func(err error) { resynced <- err }},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer s.wg.Wait()
			defer c.Close()
			if err := c.Declare("/x"); err != nil {
				t.Fatal(err)
			}
			if got := c.Links(); len(got) != 2 {
				t.Fatalf("registered with %v, want both links", got)
			}
			s.cut()
			select {
			case err := <-resynced:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("the client never resynchronized")
			}
			if got := c.Links(); !reflect.DeepEqual(got, []couple.Link{xy}) {
				t.Errorf("the mirror holds %v after the resume, want %v", got, []couple.Link{xy})
			}
			c.Close()
			s.wg.Wait()
			close(s.requests)
			var recoupled []wire.Couple
			var pulled []wire.CopyFrom
			for m := range s.requests {
				switch m := m.(type) {
				case wire.Couple:
					recoupled = append(recoupled, m)
				case wire.CopyFrom:
					pulled = append(pulled, m)
				}
			}
			want := map[bool]int{true: 0, false: 1}[kept]
			if len(recoupled) != want {
				t.Errorf("resync re-coupled %v, want %d Couple", recoupled, want)
			}
			if len(pulled) != want {
				t.Errorf("resync pulled %v, want %d CopyFrom", pulled, want)
			}
		})
	}
}
