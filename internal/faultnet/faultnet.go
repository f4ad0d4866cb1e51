// Package faultnet wraps a net.Conn with deterministic fault injection for
// chaos tests: seeded per-write drop/duplicate/delay schedules plus runtime
// controls that hang or black-hole the connection to simulate partitions
// and wedged processes.
//
// The wire package writes one frame per net.Conn Write (it buffers the
// length prefix and body and flushes once), so per-write faults behave as
// per-frame faults: dropping a write loses one whole envelope and leaves
// the stream decodable, and duplicating one delivers the same envelope
// twice — exactly the message-level faults the protocol must tolerate.
//
// All randomness comes from a seeded PCG generator, so a schedule replays
// identically for a given seed. Tests should assert on convergence (state,
// counters), never on elapsed wall time.
package faultnet

import (
	"math/rand/v2"
	"net"
	"sync"
	"time"
)

// Schedule is a deterministic per-write fault plan. The zero value injects
// nothing.
type Schedule struct {
	// Seed initializes the PRNG behind the probabilistic faults. The same
	// seed replays the same fault sequence.
	Seed uint64
	// DropEveryNth drops every Nth write (1-based; 0 disables). Counting is
	// per connection, independent of the probabilistic faults.
	DropEveryNth int
	// DropProb drops each write with this probability.
	DropProb float64
	// DupProb writes each surviving write twice with this probability.
	DupProb float64
	// Delay pauses each write for this long before it reaches the inner
	// connection; Jitter adds a uniformly distributed extra in [0, Jitter).
	Delay  time.Duration
	Jitter time.Duration
}

// Conn wraps an inner net.Conn with the fault schedule. It implements
// net.Conn; reads and writes degrade according to the schedule and the
// current mode.
type Conn struct {
	inner net.Conn

	mu     sync.Mutex
	cond   *sync.Cond
	rng    *rand.Rand
	sched  Schedule
	writes int
	mode   mode
	closed bool
}

type mode int

const (
	// modeClear passes traffic through (subject to the schedule).
	modeClear mode = iota
	// modeHang blocks reads and writes until Restore or Close: a wedged
	// process that still holds its TCP connection open.
	modeHang
	// modeBlackhole silently discards writes and starves reads: a network
	// partition where the sender cannot tell its packets are dying.
	modeBlackhole
)

// Wrap returns a fault-injecting wrapper around inner.
func Wrap(inner net.Conn, sched Schedule) *Conn {
	c := &Conn{
		inner: inner,
		rng:   rand.New(rand.NewPCG(sched.Seed, sched.Seed^0x9e3779b97f4a7c15)),
		sched: sched,
	}
	c.cond = sync.NewCond(&c.mu)
	return c
}

// Hang wedges the connection: subsequent reads and writes block until
// Restore or Close. In-flight reads on the inner connection are not
// interrupted; new ones do not start.
func (c *Conn) Hang() { c.setMode(modeHang) }

// Blackhole partitions the connection: writes are silently discarded
// (reporting success to the sender) and reads block. Data the peer sends
// meanwhile stays queued in the inner transport and is delivered after
// Restore — the retransmit-after-heal behaviour of a real partition.
func (c *Conn) Blackhole() { c.setMode(modeBlackhole) }

// Restore lifts a Hang or Blackhole.
func (c *Conn) Restore() { c.setMode(modeClear) }

func (c *Conn) setMode(m mode) {
	c.mu.Lock()
	c.mode = m
	c.cond.Broadcast()
	c.mu.Unlock()
}

// awaitReadable blocks while the connection is hung or black-holed. It
// reports false once the connection is closed.
func (c *Conn) awaitReadable() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.mode != modeClear && !c.closed {
		c.cond.Wait()
	}
	return !c.closed
}

// writePlan decides one write's fate under the schedule and current mode.
type writePlan struct {
	drop   bool
	dup    bool
	hang   bool
	delay  time.Duration
	closed bool
}

func (c *Conn) planWrite() writePlan {
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.mode == modeHang && !c.closed {
		c.cond.Wait()
	}
	return c.planLocked()
}

// planLocked judges one write under the schedule. Callers hold mu and have
// waited out a hang.
func (c *Conn) planLocked() writePlan {
	p := writePlan{closed: c.closed}
	if c.closed {
		return p
	}
	if c.mode == modeBlackhole {
		p.drop = true
		return p
	}
	c.writes++
	if n := c.sched.DropEveryNth; n > 0 && c.writes%n == 0 {
		p.drop = true
	}
	if c.sched.DropProb > 0 && c.rng.Float64() < c.sched.DropProb {
		p.drop = true
	}
	if !p.drop && c.sched.DupProb > 0 && c.rng.Float64() < c.sched.DupProb {
		p.dup = true
	}
	p.delay = c.sched.Delay
	if c.sched.Jitter > 0 {
		p.delay += time.Duration(c.rng.Int64N(int64(c.sched.Jitter)))
	}
	return p
}

// Read implements net.Conn. While hung or black-holed it blocks without
// touching the inner connection; Close unblocks it with io.ErrClosedPipe
// from the inner Close.
func (c *Conn) Read(p []byte) (int, error) {
	if !c.awaitReadable() {
		return 0, net.ErrClosed
	}
	return c.inner.Read(p)
}

// Write implements net.Conn, applying the fault schedule. Dropped writes
// report full success so the sender cannot tell (as with a lossy network).
func (c *Conn) Write(p []byte) (int, error) {
	plan := c.planWrite()
	if plan.closed {
		return 0, net.ErrClosed
	}
	if plan.delay > 0 {
		time.Sleep(plan.delay)
	}
	if plan.drop {
		return len(p), nil
	}
	n, err := c.inner.Write(p)
	if err != nil || !plan.dup {
		return n, err
	}
	if _, err := c.inner.Write(p); err != nil {
		return n, err
	}
	return n, nil
}

// tryWriter is the non-blocking write a wire.Conn attempts with.
type tryWriter interface {
	TryWrite(p []byte) (int, error)
}

// NetConn returns c as the net.Conn to serve, the way its inner connection
// would be served: when the inner connection has a TryWrite (netsim has one,
// TCP has not) and the schedule delays no write, with a TryWrite that goes
// through the schedule, so a wire.Conn attempts on it; otherwise c itself,
// which has none, so a wire.Conn writes it only with blocking Writes.
func (c *Conn) NetConn() net.Conn {
	tw, ok := c.inner.(tryWriter)
	if !ok || c.sched.Delay > 0 || c.sched.Jitter > 0 {
		return c
	}
	return &tryConn{Conn: c, inner: tw}
}

// tryConn is a Conn whose inner connection can be attempted. It offers no
// SyscallConn, which would let an attempt's bytes past the schedule.
type tryConn struct {
	*Conn
	inner tryWriter
}

// TryWrite judges an attempt as Write judges a write, so a dropped or
// duplicated attempt loses or repeats whole frames; the inner connection's
// TryWrite takes the bytes. A hung connection's attempt takes nothing and
// leaves the schedule unjudged: the caller's blocking Write then carries the
// bytes through the schedule once the connection is restored.
func (t *tryConn) TryWrite(p []byte) (int, error) {
	c := t.Conn
	c.mu.Lock()
	if c.mode == modeHang && !c.closed {
		c.mu.Unlock()
		return 0, nil
	}
	plan := c.planLocked()
	c.mu.Unlock()
	if plan.closed {
		return 0, net.ErrClosed
	}
	if plan.drop {
		return len(p), nil
	}
	n, err := t.inner.TryWrite(p)
	if err != nil || !plan.dup || n < len(p) {
		return n, err
	}
	if _, err := t.inner.TryWrite(p); err != nil {
		return n, err
	}
	return n, nil
}

// Close closes the inner connection and releases any goroutine blocked in
// a hung Read or Write.
func (c *Conn) Close() error {
	c.mu.Lock()
	c.closed = true
	c.cond.Broadcast()
	c.mu.Unlock()
	return c.inner.Close()
}

// Writes returns how many writes the schedule has judged so far (dropped
// ones included, black-holed ones not).
func (c *Conn) Writes() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.writes
}

func (c *Conn) LocalAddr() net.Addr                { return c.inner.LocalAddr() }
func (c *Conn) RemoteAddr() net.Addr               { return c.inner.RemoteAddr() }
func (c *Conn) SetDeadline(t time.Time) error      { return c.inner.SetDeadline(t) }
func (c *Conn) SetReadDeadline(t time.Time) error  { return c.inner.SetReadDeadline(t) }
func (c *Conn) SetWriteDeadline(t time.Time) error { return c.inner.SetWriteDeadline(t) }

var _ net.Conn = (*Conn)(nil)
