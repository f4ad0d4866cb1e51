package client

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cosoft/internal/clock"
	"cosoft/internal/race"
	"cosoft/internal/widget"
	"cosoft/internal/wire"
)

// fakeServer registers a client made with opts (a fresh registry is filled
// in) with a stand-in server over an in-memory pipe. The stand-in answers
// Register and Deregister itself and hands every other request to answer, on
// its read goroutine. It returns the client and the server's end of the pipe,
// whose Close is a connection loss.
func fakeServer(t *testing.T, opts Options, answer func(srv *wire.Conn, req wire.Envelope)) (*Client, net.Conn) {
	t.Helper()
	a, b := net.Pipe()
	srv := wire.NewConn(b)
	stopped := make(chan struct{})
	go func() {
		defer close(stopped)
		env, err := srv.Read()
		if err != nil || srv.Write(wire.Envelope{RefSeq: env.Seq, Msg: wire.Registered{ID: "fake-1"}}) != nil {
			return
		}
		for {
			req, err := srv.Read()
			if err != nil {
				return
			}
			if _, bye := req.Msg.(wire.Deregister); bye {
				_ = srv.Write(wire.Envelope{RefSeq: req.Seq, Msg: wire.OK{}})
				continue
			}
			answer(srv, req)
		}
	}()
	opts.Registry = widget.NewRegistry()
	c, err := New(a, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		c.Close()
		b.Close()
		<-stopped
	})
	return c, b
}

// echo answers a Ping request with the Pong of the same nonce.
func echo(srv *wire.Conn, req wire.Envelope) {
	_ = srv.Write(wire.Envelope{RefSeq: req.Seq, Msg: wire.Pong{Nonce: req.Msg.(wire.Ping).Nonce}})
}

// checkFreeSlots reports a slot on the free list that is not clean: one
// whose channel was closed or still holds a reply.
func (c *Client) checkFreeSlots() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, ch := range c.free {
		select {
		case env, open := <-ch:
			if !open {
				return fmt.Errorf("free slot %d has a closed channel", i)
			}
			return fmt.Errorf("free slot %d holds a reply (RefSeq %d)", i, env.RefSeq)
		default:
		}
	}
	return nil
}

// TestRPCSlotTimeoutRace answers thousands of calls with a delay spread
// around the RPC timeout, so replies keep landing just as their calls give
// up, and late ones land while the next call waits. A reply the read loop
// routed to a call that then timed out must be drained before the slot is
// reused: every answered call returns its own reply, with the RefSeq of its
// own request. The replies are timers on a clock.Manual, so a reply and the
// sweep that gives up on its call fall due in the same step and race.
func TestRPCSlotTimeoutRace(t *testing.T) {
	const (
		timeout = time.Second
		calls   = 2000
	)
	clk := clock.NewManual()
	var seqs sync.Map // nonce → Seq of the request that carried it
	armed := make(chan struct{}, 1)
	c, _ := fakeServer(t, Options{RPCTimeout: timeout, Clock: clk}, func(srv *wire.Conn, req wire.Envelope) {
		nonce := req.Msg.(wire.Ping).Nonce
		seqs.Store(nonce, req.Seq)
		delay := time.Duration(nonce*7919%1000) * 2 * timeout / 1000 // [0, 2×timeout)
		clk.AfterFunc(delay, func() { echo(srv, req) })
		armed <- struct{}{}
	})
	type result struct {
		env wire.Envelope
		err error
	}
	answered := 0
	for i := uint64(1); i <= calls; i++ {
		done := make(chan result, 1)
		go func() {
			env, err := c.call(wire.Ping{Nonce: i})
			done <- result{env, err}
		}()
		<-armed // the reply's timer is set
		// Time moves a sweep period per step until the call returns.
		var r result
	wait:
		for start := time.Now(); ; {
			select {
			case r = <-done:
				break wait
			default:
			}
			if time.Since(start) > 10*time.Second {
				t.Fatalf("call %d never returned: neither its reply nor its timeout came", i)
			}
			clk.Advance(timeout / 4)
			runtime.Gosched()
		}
		env, err := r.env, r.err
		if errors.Is(err, ErrTimeout) {
			continue
		}
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		answered++
		seq, _ := seqs.Load(i)
		if pong, ok := env.Msg.(wire.Pong); !ok || pong.Nonce != i || env.RefSeq != seq {
			t.Fatalf("call %d (request seq %v) returned %+v with RefSeq %d: the reply of another call", i, seq, env.Msg, env.RefSeq)
		}
	}
	t.Logf("%d of %d calls answered in time", answered, calls)
	if err := c.checkFreeSlots(); err != nil {
		t.Error(err)
	}
}

// TestRPCSlotsDropClosedChannels cuts the connection, or closes the client,
// while calls wait on replies that never come. The waiters' channels are
// closed to fail those calls, and none of them may reach the free list.
func TestRPCSlotsDropClosedChannels(t *testing.T) {
	for _, tc := range []struct {
		name string
		cut  func(c *Client, conn net.Conn)
	}{
		{"connection loss", func(_ *Client, conn net.Conn) { conn.Close() }},
		{"Close", func(c *Client, _ net.Conn) { c.Close() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Pings with a nonce are never answered.
			c, conn := fakeServer(t, Options{RPCTimeout: 5 * time.Second}, func(srv *wire.Conn, req wire.Envelope) {
				if req.Msg.(wire.Ping).Nonce == 0 {
					echo(srv, req)
				}
			})
			const hung = 4
			for i := 0; i < 2*hung; i++ { // fill the free list
				if _, err := c.call(wire.Ping{}); err != nil {
					t.Fatal(err)
				}
			}
			errs := make(chan error, hung)
			for i := 1; i <= hung; i++ {
				go func() {
					_, err := c.call(wire.Ping{Nonce: uint64(i)})
					errs <- err
				}()
			}
			for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
				c.mu.Lock()
				n := len(c.waiters)
				c.mu.Unlock()
				if n == hung {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("%d calls waiting, want %d", n, hung)
				}
			}
			tc.cut(c, conn)
			for i := 0; i < hung; i++ {
				if err := <-errs; !errors.Is(err, ErrDisconnected) && !errors.Is(err, ErrClosed) {
					t.Errorf("hung call ended with %v", err)
				}
			}
			// Calls after the cut fail at once and hand their slots back.
			for i := 0; i < hung; i++ {
				if _, err := c.call(wire.Ping{}); err == nil {
					t.Fatal("a call on a dead connection succeeded")
				}
			}
			if err := c.checkFreeSlots(); err != nil {
				t.Error(err)
			}
		})
	}
}

// failingWrites is a client's end of a connection whose writes fail once
// broken is set, running onFail first when one is set, while its reads go on
// blocking as before — a connection cut under a request's write.
type failingWrites struct {
	net.Conn
	broken atomic.Bool
	onFail func()
}

func (f *failingWrites) Write(p []byte) (int, error) {
	if !f.broken.Load() {
		return f.Conn.Write(p)
	}
	if f.onFail != nil {
		f.onFail()
	}
	return 0, errors.New("connection reset by peer")
}

// TestRequestCutInItsWriteReportsDisconnected: a request whose frame cannot
// be written reports the loss as ErrDisconnected, exactly as a request cut
// while it waits for its reply does, so a caller retrying on that error
// catches both; once Close has begun it reports ErrClosed. A frame too large
// to send is not a loss and says so. Every such call hands its slot back.
func TestRequestCutInItsWriteReportsDisconnected(t *testing.T) {
	a, b := net.Pipe()
	conn := &failingWrites{Conn: a}
	go func() {
		srv := wire.NewConn(b)
		env, err := srv.Read()
		if err != nil || srv.Write(wire.Envelope{RefSeq: env.Seq, Msg: wire.Registered{ID: "fake-1"}}) != nil {
			return
		}
		for {
			if _, err := srv.Read(); err != nil {
				return
			}
		}
	}()
	c, err := New(conn, Options{Registry: widget.NewRegistry(), RPCTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		b.Close()
		c.Close()
	})
	setClosed := func(closed bool) {
		c.mu.Lock()
		c.closed = closed
		c.mu.Unlock()
	}

	// The Conn's buffered writer keeps the first write error and fails every
	// later write with it, so the transport is reached only once.
	conn.onFail = func() { setClosed(true) } // Close begins while the frame is written
	conn.broken.Store(true)
	if _, err := c.call(wire.Ping{Nonce: 1}); !errors.Is(err, ErrClosed) {
		t.Errorf("a request cut in its write by Close failed with %v, want ErrClosed", err)
	}
	setClosed(false)
	if _, err := c.call(wire.Ping{Nonce: 2}); !errors.Is(err, ErrDisconnected) {
		t.Errorf("a request cut in its write failed with %v, want ErrDisconnected", err)
	}
	big := wire.Command{Name: "big", Payload: make([]byte, wire.MaxFrame)}
	if _, err := c.call(big); !errors.Is(err, wire.ErrFrameTooLarge) || errors.Is(err, ErrDisconnected) {
		t.Errorf("an oversized request failed with %v, want ErrFrameTooLarge alone", err)
	}
	if err := c.checkFreeSlots(); err != nil {
		t.Error(err)
	}
}

// TestRPCSlotsConcurrentCallers runs callers side by side, replies arriving
// out of order: each caller gets its own reply. Run it under -race.
func TestRPCSlotsConcurrentCallers(t *testing.T) {
	const callers, calls = 8, 200
	c, _ := fakeServer(t, Options{RPCTimeout: 5 * time.Second}, func(srv *wire.Conn, req wire.Envelope) {
		nonce := req.Msg.(wire.Ping).Nonce
		time.AfterFunc(time.Duration(nonce%7)*10*time.Microsecond, func() { echo(srv, req) })
	})
	var wg sync.WaitGroup
	for g := uint64(0); g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := uint64(1); i <= calls; i++ {
				nonce := g*calls + i
				env, err := c.call(wire.Ping{Nonce: nonce})
				if err != nil {
					t.Error(err)
					return
				}
				if pong, ok := env.Msg.(wire.Pong); !ok || pong.Nonce != nonce {
					t.Errorf("caller %d sent nonce %d and got %+v", g, nonce, env.Msg)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := c.checkFreeSlots(); err != nil {
		t.Error(err)
	}
}

// TestCallAllocBudget gates a steady-state round trip: once a call has
// returned its reply slot, the next call reuses the slot's channel and
// allocates nothing of its own (the request and reply here box nothing).
func TestCallAllocBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts include the race detector's own; `make allocs` runs this without -race")
	}
	c, _ := fakeServer(t, Options{RPCTimeout: 5 * time.Second}, func(srv *wire.Conn, req wire.Envelope) {
		_ = srv.Write(wire.Envelope{RefSeq: req.Seq, Msg: wire.OK{}})
	})
	if got := testing.AllocsPerRun(200, func() {
		if err := c.callOK(wire.OK{}); err != nil {
			t.Fatal(err)
		}
	}); got > 0 {
		t.Errorf("a round trip allocates %.1f times, want 0", got)
	}
}

// TestAckAllocBudget gates the dispatch loop's acknowledgement path as it
// runs after every applied Exec: the entry joins the ack run and the run is
// flushed onto the connection — a lone ExecAck, or a run of them as one
// BatchAck. None of it allocates: the acknowledgements are
// encoded straight from the run, with no message boxed.
func TestAckAllocBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts include the race detector's own; `make allocs` runs this without -race")
	}
	// The stand-in registers the client, then drains the pipe without
	// decoding, so that only the client's side of the ack is counted.
	a, b := net.Pipe()
	go func() {
		srv := wire.NewConn(b)
		env, err := srv.Read()
		if err != nil || srv.Write(wire.Envelope{RefSeq: env.Seq, Msg: wire.Registered{ID: "fake-1"}}) != nil {
			return
		}
		buf := make([]byte, 4096)
		for {
			if _, err := b.Read(buf); err != nil {
				return
			}
		}
	}()
	c, err := New(a, Options{Registry: widget.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		b.Close() // the stand-in answers no Deregister: Close fails it at once
		c.Close()
	})
	entry := wire.BatchAckEntry{EventID: 1 << 20}
	for _, n := range []int{1, 2} {
		if got := testing.AllocsPerRun(200, func() {
			for i := 0; i < n; i++ {
				c.ackRun = append(c.ackRun, entry)
			}
			c.flushAcks()
		}); got > 0 {
			t.Errorf("acknowledging %d Execs allocates %.1f times, want 0", n, got)
		}
	}
}
