package server

import (
	"errors"
	"net"
	"testing"
	"time"

	"cosoft/internal/clock"
	"cosoft/internal/couple"
	"cosoft/internal/obs"
	"cosoft/internal/testbed"
	"cosoft/internal/wire"
)

// send queues env and wakes the writer instead of attempting: the outbox
// tests drive the writer path with it.
func (o *outbox) send(env wire.Envelope) {
	o.enqueue(wire.Outgoing{Env: env})
	o.wake()
}

// sendShared queues one member's frame of an encode-once broadcast and wakes
// the writer, as send does. The outbox takes its own reference to se.
func (o *outbox) sendShared(env wire.Envelope, target string, se *wire.SharedExec) {
	o.enqueue(wire.Outgoing{Env: env, Shared: se, Target: target})
	o.wake()
}

// wake signals the writer, as an attempt that cannot write does.
func (o *outbox) wake() {
	o.mu.Lock()
	o.cond.Signal()
	o.mu.Unlock()
}

// gateConn is a transport whose attempts wait, once they have started, for
// the test to let them through.
type gateConn struct {
	net.Conn
	entered, release chan struct{}
}

func (g *gateConn) TryWrite(p []byte) (int, error) {
	g.entered <- struct{}{}
	<-g.release
	return len(p), nil
}

// TestOutboxCloseWaitsOutALoopAttempt: an outbox closed while a lock holder's
// attempt has its Conn closes once the attempt ends. The writer must not
// take the Conn meanwhile, and the attempt's end must wake it to exit, or
// close — and with it Server.Close — waits forever.
func TestOutboxCloseWaitsOutALoopAttempt(t *testing.T) {
	a, b := net.Pipe()
	defer b.Close()
	g := &gateConn{Conn: a, entered: make(chan struct{}), release: make(chan struct{})}
	reg := obs.NewRegistry()
	o := newOutbox(wire.NewConn(g), clock.Real{}, reg.Gauge("depth"), 8, reg.Histogram("batch"), nil)
	// Park the writer: once it has written a frame and cleared flushing it
	// holds mu until it waits again, so a reader of flushing under mu that
	// sees it clear finds the writer waiting.
	o.send(wire.Envelope{Msg: wire.Ping{Nonce: 1}})
	if _, err := wire.NewConn(b).Read(); err != nil {
		t.Fatal(err)
	}
	testbed.Wait(t, "the writer parked", func() bool {
		o.mu.Lock()
		defer o.mu.Unlock()
		return !o.flushing && len(o.queue) == 0
	})
	o.enqueue(wire.Outgoing{Env: wire.Envelope{Msg: wire.Ping{Nonce: 2}}})
	attempted := make(chan bool)
	go func() { attempted <- o.attempt() }()
	<-g.entered
	closed := make(chan struct{})
	go func() {
		o.close()
		close(closed)
	}()
	testbed.Wait(t, "the outbox closed", func() bool {
		o.mu.Lock()
		defer o.mu.Unlock()
		return o.closed
	})
	select {
	case <-closed:
		t.Fatal("close returned while the loop's attempt still had the Conn")
	default:
	}
	close(g.release)
	if <-attempted {
		t.Error("an attempt the transport took whole reported a push-back")
	}
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("close did not return once the loop's attempt ended")
	}
}

// pushbackConn is a transport whose socket fills up after its first write:
// an attempt takes nothing (once the test lets it through), and every
// blocking write but the first fails.
type pushbackConn struct {
	net.Conn
	entered, release chan struct{}
	wrote            bool // guarded by the Conn's write lock
}

func (p *pushbackConn) TryWrite([]byte) (int, error) {
	p.entered <- struct{}{}
	<-p.release
	return 0, nil
}

func (p *pushbackConn) Write(b []byte) (int, error) {
	if p.wrote {
		return 0, errors.New("connection reset")
	}
	p.wrote = true
	return p.Conn.Write(b)
}

// TestOutboxTailWriteFailureReleasesSharedBodies: a loop's attempt leaves a
// tail, a shared Exec queues behind it, and the writer takes both; when the
// tail's write fails, every shared body the writer took is still released,
// or LiveSharedBodies never returns to 0.
func TestOutboxTailWriteFailureReleasesSharedBodies(t *testing.T) {
	a, b := net.Pipe()
	defer b.Close()
	p := &pushbackConn{Conn: a, entered: make(chan struct{}), release: make(chan struct{})}
	reg := obs.NewRegistry()
	o := newOutbox(wire.NewConn(p), clock.Real{}, reg.Gauge("depth"), 8, reg.Histogram("batch"), nil)
	// Park the writer, as in TestOutboxCloseWaitsOutALoopAttempt.
	o.send(wire.Envelope{Msg: wire.Ping{Nonce: 1}})
	if _, err := wire.NewConn(b).Read(); err != nil {
		t.Fatal(err)
	}
	testbed.Wait(t, "the writer parked", func() bool {
		o.mu.Lock()
		defer o.mu.Unlock()
		return !o.flushing && len(o.queue) == 0
	})
	o.enqueue(wire.Outgoing{Env: wire.Envelope{Msg: wire.Ping{Nonce: 2}}})
	pushed := make(chan bool)
	go func() { pushed <- o.attempt() }()
	// While the attempt has the Conn the writer waits, so the shared record
	// queued now is in the writer's next take, behind the tail.
	<-p.entered
	se := wire.NewSharedExec(9, "set", nil, couple.ObjectRef{Instance: "a", Path: "/n"})
	o.sendShared(wire.Envelope{}, "/m", se)
	se.Release()
	close(p.release)
	if !<-pushed {
		t.Fatal("an attempt the transport took nothing of reported no push-back")
	}
	select {
	case <-o.done:
	case <-time.After(5 * time.Second):
		t.Fatal("the writer did not exit after the tail's write failed")
	}
	waitNoLiveBodies(t)
}
