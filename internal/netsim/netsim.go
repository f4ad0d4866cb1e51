// Package netsim provides instrumented in-process transports for the
// benchmark harness: connection pairs with configurable one-way propagation
// latency and per-direction traffic counters.
//
// The paper's experiments ran on a LAN between an electronic blackboard and
// student workstations; the architecture comparisons depend on message
// counts and propagation delay, which this package reproduces
// deterministically on one machine.
package netsim

import (
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Stats counts traffic over one direction of a link.
type Stats struct {
	// Messages is the number of Write calls (frames, for the wire package's
	// one-flush-per-frame usage).
	Messages atomic.Int64
	// Bytes is the total payload volume.
	Bytes atomic.Int64
}

// Snapshot returns the current counter values.
func (s *Stats) Snapshot() (messages, bytes int64) {
	return s.Messages.Load(), s.Bytes.Load()
}

// Link is a bidirectional in-process connection pair with one-way latency.
type Link struct {
	// A and B are the two endpoints.
	A, B net.Conn
	// AtoB counts traffic written at A; BtoA counts traffic written at B.
	AtoB, BtoA *Stats
}

// NewLink returns a connected pair with the given one-way propagation
// latency (0 for none).
func NewLink(latency time.Duration) *Link {
	ab := newQueue(latency)
	ba := newQueue(latency)
	l := &Link{AtoB: &Stats{}, BtoA: &Stats{}}
	l.A = &conn{send: ab, recv: ba, stats: l.AtoB, local: addr("netsim-a"), remote: addr("netsim-b")}
	l.B = &conn{send: ba, recv: ab, stats: l.BtoA, local: addr("netsim-b"), remote: addr("netsim-a")}
	return l
}

// TotalMessages returns the total frames sent in both directions.
func (l *Link) TotalMessages() int64 {
	return l.AtoB.Messages.Load() + l.BtoA.Messages.Load()
}

// TotalBytes returns the total bytes sent in both directions.
func (l *Link) TotalBytes() int64 {
	return l.AtoB.Bytes.Load() + l.BtoA.Bytes.Load()
}

// Close closes both endpoints.
func (l *Link) Close() {
	l.A.Close()
	l.B.Close()
}

type packet struct {
	data []byte
	due  time.Time
}

// queue is one direction of a link: an unbounded FIFO of timestamped
// packets.
type queue struct {
	latency time.Duration
	mu      sync.Mutex
	cond    *sync.Cond
	packets []packet
	closed  bool
}

func newQueue(latency time.Duration) *queue {
	q := &queue{latency: latency}
	q.cond = sync.NewCond(&q.mu)
	return q
}

func (q *queue) push(data []byte) error {
	cp := make([]byte, len(data))
	copy(cp, data)
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return io.ErrClosedPipe
	}
	q.packets = append(q.packets, packet{data: cp, due: time.Now().Add(q.latency)})
	q.cond.Signal()
	return nil
}

// pop blocks until a packet is available (respecting its due time) or the
// queue is closed and drained.
func (q *queue) pop() ([]byte, error) {
	q.mu.Lock()
	for len(q.packets) == 0 && !q.closed {
		q.cond.Wait()
	}
	if len(q.packets) == 0 {
		q.mu.Unlock()
		return nil, io.EOF
	}
	p := q.packets[0]
	q.packets = q.packets[1:]
	q.mu.Unlock()
	if d := time.Until(p.due); d > 0 {
		time.Sleep(d)
	}
	return p.data, nil
}

func (q *queue) close() {
	q.mu.Lock()
	q.closed = true
	q.cond.Broadcast()
	q.mu.Unlock()
}

// conn is one endpoint of a Link.
type conn struct {
	send    *queue
	recv    *queue
	stats   *Stats
	pending []byte // unread remainder of the last popped packet
	local   addr
	remote  addr
	closed  atomic.Bool
}

var _ net.Conn = (*conn)(nil)

func (c *conn) Read(p []byte) (int, error) {
	if len(c.pending) == 0 {
		data, err := c.recv.pop()
		if err != nil {
			return 0, err
		}
		c.pending = data
	}
	n := copy(p, c.pending)
	c.pending = c.pending[n:]
	return n, nil
}

func (c *conn) Write(p []byte) (int, error) {
	if c.closed.Load() {
		return 0, io.ErrClosedPipe
	}
	if err := c.send.push(p); err != nil {
		return 0, err
	}
	c.stats.Messages.Add(1)
	c.stats.Bytes.Add(int64(len(p)))
	return len(p), nil
}

// TryWrite is Write: a link's queue is unbounded, so a write never blocks
// and always takes everything. It is the non-blocking write a wire.Conn
// attempts with.
func (c *conn) TryWrite(p []byte) (int, error) { return c.Write(p) }

func (c *conn) Close() error {
	if c.closed.Swap(true) {
		return nil
	}
	c.send.close()
	c.recv.close()
	return nil
}

func (c *conn) LocalAddr() net.Addr  { return c.local }
func (c *conn) RemoteAddr() net.Addr { return c.remote }

// Deadlines are not supported; the protocol layers above use blocking reads
// terminated by Close.
func (c *conn) SetDeadline(time.Time) error      { return errNoDeadline }
func (c *conn) SetReadDeadline(time.Time) error  { return errNoDeadline }
func (c *conn) SetWriteDeadline(time.Time) error { return errNoDeadline }

var errNoDeadline = errors.New("netsim: deadlines not supported")

type addr string

func (a addr) Network() string { return "netsim" }
func (a addr) String() string  { return string(a) }

// Listener is an in-process net.Listener whose accepted connections are
// netsim links, so a server can be benchmarked with per-client latency and
// counters.
type Listener struct {
	latency time.Duration
	mu      sync.Mutex
	queue   chan *Link
	links   []*Link
	closed  bool
}

// NewListener returns a listener creating links with the given latency.
func NewListener(latency time.Duration) *Listener {
	return &Listener{latency: latency, queue: make(chan *Link, 64)}
}

// Dial creates a new link; the A side is returned to the caller and the B
// side is delivered to Accept.
func (l *Listener) Dial() (net.Conn, error) {
	link := NewLink(l.latency)
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil, errors.New("netsim: listener closed")
	}
	l.links = append(l.links, link)
	l.mu.Unlock()
	l.queue <- link
	return link.A, nil
}

// Accept returns the server side of the next dialed link.
func (l *Listener) Accept() (net.Conn, error) {
	link, ok := <-l.queue
	if !ok {
		return nil, errors.New("netsim: listener closed")
	}
	return link.B, nil
}

// Close closes the listener and every link it created.
func (l *Listener) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	links := l.links
	l.mu.Unlock()
	close(l.queue)
	for _, link := range links {
		link.Close()
	}
	return nil
}

// Addr returns a placeholder address.
func (l *Listener) Addr() net.Addr { return addr("netsim-listener") }

// Links returns all links created so far (for counter inspection).
func (l *Listener) Links() []*Link {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]*Link, len(l.links))
	copy(out, l.links)
	return out
}
