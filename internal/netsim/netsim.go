// Package netsim is the in-process network every suite, experiment and
// client test runs on: connection pairs with a one-way propagation latency,
// per-direction traffic counters and, on each end, the faults a chaos test
// injects — a seeded per-write schedule of duplicates and delays, and the
// modes that hang or partition the end.
//
// The paper's experiments ran on a LAN between an electronic blackboard and
// student workstations; the architecture comparisons depend on message
// counts and propagation delay, which this package reproduces
// deterministically on one machine.
//
// Time is read from an injected clock.Clock. A packet is due at its write's
// time plus the latency and the schedule's delay, never before the packet
// ahead of it, so a link never reorders and a writer never waits for the
// network. A reader waits for the head packet's due time on a timer of the
// clock; a link with no latency and no delay arms none.
//
// The wire package writes one frame per Write (it assembles whole frames and
// hands them over at once), so a duplicated write delivers the same frames
// twice and never splits one.
package netsim

import (
	"errors"
	"io"
	"math/rand/v2"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"cosoft/internal/clock"
)

// Stats counts traffic over one direction of a link.
type Stats struct {
	// Messages is the number of packets queued (frames, for the wire
	// package's one-flush-per-frame usage; a duplicate counts again).
	Messages atomic.Int64
	// Bytes is the total payload volume.
	Bytes atomic.Int64
}

// Schedule is a deterministic plan for the writes of one end. The zero value
// injects nothing.
type Schedule struct {
	// Seed initializes the PRNG behind DupProb and Jitter. The same seed
	// replays the same fault sequence.
	Seed uint64
	// DupProb queues each write twice with this probability.
	DupProb float64
	// Delay makes each write due this much later; Jitter adds a uniformly
	// distributed extra in [0, Jitter).
	Delay  time.Duration
	Jitter time.Duration
}

// Link is a bidirectional in-process connection pair with one-way latency.
type Link struct {
	// A and B are the two endpoints; B, the server's end, carries the
	// schedule.
	A, B *Conn
	// AtoB counts traffic written at A; BtoA counts traffic written at B.
	AtoB, BtoA *Stats
}

// NewLink returns a connected pair with the given one-way propagation
// latency (0 for none) on clk (nil is the wall clock), whose B end writes
// under sched.
func NewLink(latency time.Duration, clk clock.Clock, sched Schedule) *Link {
	clk = clock.Or(clk)
	ab := newQueue(clk, latency)
	ba := newQueue(clk, latency)
	l := &Link{AtoB: &Stats{}, BtoA: &Stats{}}
	l.A = &Conn{send: ab, recv: ba, stats: l.AtoB, local: addr("netsim-a"), remote: addr("netsim-b")}
	l.B = &Conn{send: ba, recv: ab, stats: l.BtoA, local: addr("netsim-b"), remote: addr("netsim-a"),
		sched: sched, rng: rand.New(rand.NewPCG(sched.Seed, sched.Seed^0x9e3779b97f4a7c15))}
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

// mode is what an end does with its traffic.
type mode uint8

const (
	// flowing passes traffic (subject to the schedule).
	flowing mode = iota
	// hung blocks the end's reads and writes, and takes nothing on an
	// attempt: a wedged process whose receive window has closed.
	hung
	// blackholed discards the end's writes, reporting success, and holds
	// what its peer sends until Restore: a partition the sender cannot see.
	blackholed
)

type packet struct {
	data []byte
	due  time.Time
}

// queue is one direction of a link: an unbounded FIFO of packets, each due at
// a time on the clock, together with the modes of the end that writes it and
// the end that reads it.
type queue struct {
	clk     clock.Clock
	latency time.Duration

	mu      sync.Mutex
	cond    *sync.Cond // broadcast on every push, mode change, wake-up and close
	packets []packet
	timer   clock.Timer // armed while the reader waits for the head packet
	writer  mode
	reader  mode
	closed  bool
}

func newQueue(clk clock.Clock, latency time.Duration) *queue {
	q := &queue{clk: clk, latency: latency}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// wake is the timer of a reader waiting for the head packet's due time.
func (q *queue) wake() {
	q.mu.Lock()
	q.timer = nil
	q.cond.Broadcast()
	q.mu.Unlock()
}

func (q *queue) close() {
	q.mu.Lock()
	q.closed = true
	if q.timer != nil {
		q.timer.Stop()
		q.timer = nil
	}
	q.cond.Broadcast()
	q.mu.Unlock()
}

// Conn is one endpoint of a Link.
type Conn struct {
	send  *queue
	recv  *queue
	stats *Stats
	sched Schedule
	rng   *rand.Rand // guarded by send.mu; nil at A, which has no schedule
	// pending is the unread remainder of the last packet read; recv.mu
	// guards it.
	pending []byte
	local   addr
	remote  addr
}

var _ net.Conn = (*Conn)(nil)

// Read returns bytes of the next packet once it is due. While the end hangs
// or is black-holed it blocks. Once the link is closed it returns what is
// queued, due or not, and then io.EOF; a hung or black-holed end reads io.EOF
// at once.
func (c *Conn) Read(p []byte) (int, error) {
	q := c.recv
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		if q.reader == flowing {
			if len(c.pending) > 0 {
				n := copy(p, c.pending)
				c.pending = c.pending[n:]
				return n, nil
			}
			if len(q.packets) > 0 {
				wait := q.packets[0].due.Sub(q.clk.Now())
				if wait <= 0 || q.closed {
					c.pending = q.packets[0].data
					q.packets = q.packets[1:]
					continue
				}
				if q.timer == nil {
					q.timer = q.clk.AfterFunc(wait, q.wake)
				}
			}
		}
		if q.closed && (q.reader != flowing || len(q.packets) == 0) {
			return 0, io.EOF
		}
		q.cond.Wait()
	}
}

// Write queues p under the end's schedule. While the end hangs it blocks
// until Restore or Close; while it is black-holed p vanishes and the write
// reports success.
func (c *Conn) Write(p []byte) (int, error) { return c.write(p, true) }

// TryWrite is the non-blocking write a wire.Conn attempts with. It takes p
// whole, as Write does, or — while the end hangs — nothing.
func (c *Conn) TryWrite(p []byte) (int, error) { return c.write(p, false) }

func (c *Conn) write(p []byte, block bool) (int, error) {
	q := c.send
	q.mu.Lock()
	defer q.mu.Unlock()
	for block && q.writer == hung && !q.closed {
		q.cond.Wait()
	}
	switch {
	case q.closed:
		return 0, io.ErrClosedPipe
	case q.writer == hung:
		return 0, nil
	case q.writer == blackholed:
		return len(p), nil
	}
	copies := 1
	if c.sched.DupProb > 0 && c.rng.Float64() < c.sched.DupProb {
		copies = 2
	}
	due := q.clk.Now().Add(q.latency + c.sched.Delay)
	if c.sched.Jitter > 0 {
		due = due.Add(time.Duration(c.rng.Int64N(int64(c.sched.Jitter))))
	}
	if n := len(q.packets); n > 0 && due.Before(q.packets[n-1].due) {
		due = q.packets[n-1].due
	}
	data := append([]byte(nil), p...)
	for range copies {
		q.packets = append(q.packets, packet{data: data, due: due})
	}
	c.stats.Messages.Add(int64(copies))
	c.stats.Bytes.Add(int64(copies * len(p)))
	q.cond.Broadcast()
	return len(p), nil
}

// Hang wedges the end: its reads and writes block, and its attempts take
// nothing, until Restore or Close.
func (c *Conn) Hang() { c.setMode(hung) }

// Blackhole partitions the end: its writes vanish while reporting success,
// and its reads block. What the peer sends meanwhile stays queued and is
// read after Restore — the retransmit-after-heal of a real partition.
func (c *Conn) Blackhole() { c.setMode(blackholed) }

// Restore lifts a Hang or Blackhole.
func (c *Conn) Restore() { c.setMode(flowing) }

func (c *Conn) setMode(m mode) {
	c.send.mu.Lock()
	c.send.writer = m
	c.send.cond.Broadcast()
	c.send.mu.Unlock()
	c.recv.mu.Lock()
	c.recv.reader = m
	c.recv.cond.Broadcast()
	c.recv.mu.Unlock()
}

// Close closes the link in both directions and releases every caller blocked
// on either end. Closing again does nothing.
func (c *Conn) Close() error {
	c.send.close()
	c.recv.close()
	return nil
}

func (c *Conn) LocalAddr() net.Addr  { return c.local }
func (c *Conn) RemoteAddr() net.Addr { return c.remote }

// Deadlines are not supported; the protocol layers above use blocking reads
// terminated by Close.
func (c *Conn) SetDeadline(time.Time) error      { return errNoDeadline }
func (c *Conn) SetReadDeadline(time.Time) error  { return errNoDeadline }
func (c *Conn) SetWriteDeadline(time.Time) error { return errNoDeadline }

var errNoDeadline = errors.New("netsim: deadlines not supported")

type addr string

func (a addr) Network() string { return "netsim" }
func (a addr) String() string  { return string(a) }
