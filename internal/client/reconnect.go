package client

import (
	"fmt"
	"math/rand/v2"
	"net"
	"sort"
	"sync/atomic"
	"time"

	"cosoft/internal/wire"
)

// ReconnectOptions configures automatic reconnection (Options.Reconnect).
type ReconnectOptions struct {
	// Dial establishes a replacement connection to the server. Required.
	Dial func() (net.Conn, error)
	// OnResync, if set, is called after each successful reconnect once
	// re-declaration, re-coupling and the post-resume state pull have
	// finished, with the first error encountered (nil on a clean resync).
	OnResync func(err error)
}

// permanentError marks reconnect failures that retrying cannot fix.
type permanentError struct{ msg string }

func (e *permanentError) Error() string { return e.msg }

// The reconnect schedule: at most maxAttempts consecutive failed attempts
// before the client gives up for good (a refused resume, an unknown session
// token, is permanent and stops at once), and retry k waits a uniform random
// span in [0, min(maxDelay, baseDelay<<(k-1))].
const (
	maxAttempts = 8
	baseDelay   = 50 * time.Millisecond
	maxDelay    = 2 * time.Second
)

// backoffDelay returns the wait before retry attempt (1-based): a uniform
// draw from [0, min(maxDelay, baseDelay·2^(attempt-1))]. Full jitter — the
// entire window is random, not a fixed delay plus a sliver of jitter — so
// concurrent clients that started retrying at the same instant (a server
// restart disconnects everyone at once) decorrelate immediately instead of
// arriving in synchronized waves.
func backoffDelay(rng *rand.Rand, attempt int) time.Duration {
	ceil := maxDelay
	// Guard the shift: past ~62 doublings the window is the cap regardless.
	if shift := attempt - 1; shift < 62 {
		if d := baseDelay << shift; d < ceil {
			ceil = d
		}
	}
	return time.Duration(rng.Int64N(int64(ceil) + 1))
}

// jitterSeeds returns a fresh PRNG seed pair for a client's backoff jitter:
// reconnecting clients sharing one PRNG stream — which is what a zero-value
// PCG seed amounts to — would retry in lockstep, and a mass restart would
// re-synchronize every retry wave.
func jitterSeeds() (uint64, uint64) {
	return rand.Uint64(), rand.Uint64()
}

// redial dials and resumes the session with full-jitter exponential
// backoff, returning the fresh connection plus any records the server
// flushed ahead of the handshake reply. It runs on the supervise goroutine.
func (c *Client) redial() (*wire.Conn, []wire.Record, error) {
	r := c.opts.Reconnect
	rng := rand.New(rand.NewPCG(jitterSeeds()))
	var lastErr error
	for attempt := 0; attempt < maxAttempts; attempt++ {
		if attempt > 0 {
			wake := make(chan struct{})
			t := c.opts.Clock.AfterFunc(backoffDelay(rng, attempt), func() { close(wake) })
			select {
			case <-wake:
			case <-c.done:
				t.Stop()
				return nil, nil, ErrClosed
			}
		}
		raw, err := r.Dial()
		if err != nil {
			lastErr = err
			continue
		}
		conn, pre, err := c.resume(raw)
		if err == nil {
			return conn, pre, nil
		}
		if pe, ok := err.(*permanentError); ok {
			return nil, nil, pe
		}
		lastErr = err
	}
	return nil, nil, fmt.Errorf("client: reconnect gave up after %d attempts: %w",
		maxAttempts, lastErr)
}

// resume performs the Resume handshake on a fresh connection, reclaiming
// the client's instance ID. The reply wait cannot rely on connection
// deadlines (in-process transports lack them), so a watchdog closes the
// connection to abandon a stalled handshake.
//
// The resumed instance is already a member of its coupling groups, so the
// server can start flushing group traffic the moment it admits the session:
// the Registered reply may arrive packed in a Batch with notifications or
// replayed events, or even after them when a broadcast wins the race with
// the admission: event-lock holders see the instance connected a moment
// before the reply is queued. Every record read before the reply
// is stashed and returned for the read loop to route once the resume is
// accepted, and records packed after it stay in the Conn for the read loop —
// abandoning the connection here would orphan a session whose single-use
// token the admission already consumed, permanently stranding the client.
func (c *Client) resume(raw net.Conn) (*wire.Conn, []wire.Record, error) {
	conn := wire.NewConn(raw)
	c.mu.Lock()
	tok := c.token
	c.mu.Unlock()
	if err := conn.Write(wire.Envelope{Seq: 1, Msg: wire.Resume{Token: tok}}); err != nil {
		conn.Close()
		return nil, nil, err
	}
	var timedOut, closing atomic.Bool
	timer := c.opts.Clock.AfterFunc(c.opts.RPCTimeout, func() {
		timedOut.Store(true)
		conn.Close()
	})
	defer timer.Stop()
	watchDone := make(chan struct{})
	defer close(watchDone)
	go func() {
		select {
		case <-c.done:
			closing.Store(true)
			conn.Close()
		case <-watchDone:
		}
	}()
	var pre []wire.Record
	for {
		var rec wire.Record
		if err := conn.Next(&rec); err != nil {
			conn.Close()
			if closing.Load() {
				return nil, nil, ErrClosed
			}
			if timedOut.Load() {
				return nil, nil, fmt.Errorf("%w: resume handshake", ErrTimeout)
			}
			return nil, nil, err
		}
		switch m := rec.Msg.(type) {
		case wire.Registered:
			if m.ID != c.id {
				conn.Close()
				return nil, nil, &permanentError{fmt.Sprintf(
					"client: resume returned foreign ID %s (have %s)", m.ID, c.id)}
			}
			return conn, pre, nil
		case wire.Err:
			conn.Close()
			return nil, nil, &permanentError{"client: resume refused: " + m.Text}
		default:
			pre = append(pre, rec)
		}
	}
}

// resync restores the server's view of this instance after a resume: the
// disconnect cost the server every declaration and couple link of the old
// incarnation, while the local mirror kept the links that touch this instance
// (forgetFarLinks dropped the rest). Declarations are replayed, those links
// are re-created — each Couple brings back the far side of its group as the
// server has it now — and every re-coupled object pulls a peer's current
// state via the CopyFrom path, so local state converges with whatever the
// group did while this client was gone.
func (c *Client) resync() {
	defer c.wg.Done()
	var firstErr error
	fail := func(err error) {
		if firstErr == nil {
			firstErr = err
		}
	}

	// The resume consumed the session token (tokens are single-use at the
	// server), so mint a replacement first: a subsequent disconnect must
	// still be resumable.
	if tok, err := c.sessionToken(); err != nil {
		fail(fmt.Errorf("re-mint session token: %w", err))
	} else {
		c.mu.Lock()
		c.token = tok
		c.mu.Unlock()
	}

	c.mu.Lock()
	paths := make([]string, 0, len(c.declared))
	classes := make(map[string]string, len(c.declared))
	for p, class := range c.declared {
		paths = append(paths, p)
		classes[p] = class
	}
	c.mu.Unlock()
	sort.Strings(paths)
	for _, p := range paths {
		if err := c.callOK(wire.Declare{Path: p, Class: classes[p]}); err != nil {
			fail(fmt.Errorf("re-declare %s: %w", p, err))
		}
	}
	for _, l := range c.links.Links() {
		if l.From.Instance != c.id && l.To.Instance != c.id {
			continue
		}
		if err := c.callOK(wire.Couple{From: l.From, To: l.To}); err != nil {
			fail(fmt.Errorf("re-couple %s -> %s: %w", l.From, l.To, err))
		}
	}
	for _, p := range paths {
		for _, peer := range c.links.CO(c.Ref(p)) {
			if peer.Instance == c.id {
				continue
			}
			if err := c.callOK(wire.CopyFrom{From: peer, ToPath: p}); err != nil {
				fail(fmt.Errorf("state pull for %s: %w", p, err))
			}
			break
		}
	}

	if firstErr != nil {
		c.slog.Warn("resync incomplete", "error", firstErr.Error())
	} else {
		c.slog.Info("resynchronized after reconnect", "objects", len(paths))
	}
	if h := c.opts.Reconnect.OnResync; h != nil {
		c.guard("resync callback", "", 0, func() { h(firstErr) })
	}
}
