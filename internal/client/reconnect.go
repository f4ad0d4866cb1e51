package client

import (
	"errors"
	"fmt"
	"maps"
	"math/rand/v2"
	"net"
	"sort"
	"sync/atomic"
	"time"

	"cosoft/internal/couple"
	"cosoft/internal/wire"
)

// ReconnectOptions configures automatic reconnection (Options.Reconnect).
type ReconnectOptions struct {
	// Dial establishes a replacement connection to the server. Required.
	Dial func() (net.Conn, error)
	// OnResync, if set, is called after each successful reconnect once the
	// re-declaration has finished and, when the server had dropped the
	// instance, the re-coupling and the state pulls too, with the first error
	// encountered (nil on a clean resync). Each pull has landed by then: it
	// held its group's floor until this instance acknowledged the state. A
	// kept resume pulls nothing: the server held the instance's groups until
	// it came back, so neither an event nor a state transfer reached them.
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
// backoff, returning the fresh connection, the server's reply and the records
// it sent ahead of the reply. It runs on the supervise goroutine.
func (c *Client) redial() (*wire.Conn, wire.Registered, []wire.Record, error) {
	r := c.opts.Reconnect
	rng := rand.New(rand.NewPCG(jitterSeeds()))
	var lastErr error
	for attempt := 0; attempt < maxAttempts; attempt++ {
		if attempt > 0 && !c.wait(backoffDelay(rng, attempt)) {
			return nil, wire.Registered{}, nil, ErrClosed
		}
		raw, err := r.Dial()
		if err != nil {
			lastErr = err
			continue
		}
		c.mu.Lock()
		tok := c.token
		c.mu.Unlock()
		conn, reg, pre, err := c.handshake(raw, wire.Resume{Token: tok})
		if err == nil {
			return conn, reg, pre, nil
		}
		if pe, ok := err.(*permanentError); ok {
			return nil, wire.Registered{}, nil, pe
		}
		lastErr = err
	}
	return nil, wire.Registered{}, nil, fmt.Errorf("client: reconnect gave up after %d attempts: %w",
		maxAttempts, lastErr)
}

// wait sleeps d on the client's clock, reporting false if Close came first.
func (c *Client) wait(d time.Duration) bool {
	wake := make(chan struct{})
	t := c.opts.Clock.AfterFunc(d, func() { close(wake) })
	select {
	case <-wake:
		return true
	case <-c.done:
		t.Stop()
		return false
	}
}

// handshake sends hello (a Register, or a Resume presenting the token) as
// raw's first frame and reads until the server answers it, or a watchdog on
// the client's clock closes raw after the RPC timeout or at Close. An Err
// answer is a refusal, and so is a resume answered with another instance's
// ID. The answer may come among group traffic: the records before it are
// returned for the read loop to route first; those after it stay in the Conn.
func (c *Client) handshake(raw net.Conn, hello wire.Message) (*wire.Conn, wire.Registered, []wire.Record, error) {
	conn := wire.NewConn(raw)
	kind := hello.MsgType()
	fail := func(err error) (*wire.Conn, wire.Registered, []wire.Record, error) {
		conn.Close()
		return nil, wire.Registered{}, nil, err
	}
	if err := conn.Write(wire.Envelope{Seq: 1, Msg: hello}); err != nil {
		return fail(fmt.Errorf("client: %s: %w", kind, err))
	}
	var cause atomic.Pointer[error] // why the watchdog closed conn
	abandon := func(err error) {
		cause.CompareAndSwap(nil, &err)
		conn.Close()
	}
	timer := c.opts.Clock.AfterFunc(c.opts.RPCTimeout, func() { abandon(fmt.Errorf("%w: %s handshake", ErrTimeout, kind)) })
	defer timer.Stop()
	watchDone := make(chan struct{})
	defer close(watchDone)
	go func() {
		select {
		case <-c.done:
			abandon(ErrClosed)
		case <-watchDone:
		}
	}()
	var pre []wire.Record
	for {
		var rec wire.Record
		if err := conn.Next(&rec); err != nil {
			if why := cause.Load(); why != nil {
				err = *why
			}
			return fail(err)
		}
		if rec.RefSeq != 1 {
			pre = append(pre, rec)
			continue
		}
		switch m := rec.Msg.(type) {
		case wire.Registered:
			if c.id != "" && m.ID != c.id {
				return fail(&permanentError{fmt.Sprintf(
					"client: resume returned foreign ID %s (have %s)", m.ID, c.id)})
			}
			return conn, m, pre, nil
		case wire.Err:
			return fail(&permanentError{fmt.Sprintf("client: %s refused: %s", kind, m.Text)})
		default:
			return fail(&permanentError{fmt.Sprintf("client: unexpected %s reply %s", kind, rec.Type)})
		}
	}
}

// route routes the records that arrived ahead of a handshake's reply, in
// order. A failure means the connection died; the read loop notices at once.
func (c *Client) route(conn *wire.Conn, pre []wire.Record) {
	for i := range pre {
		if !c.handleIncoming(conn, &pre[i]) {
			return
		}
	}
}

// level makes the mirror what the resume reply says, once the records ahead
// of it are routed. On a kept resume it is exactly the links sent ahead of
// the reply (added before the rest is pruned, so a coupled object never reads
// as uncoupled); on a dropped one, the links that touch this instance, which
// resync re-creates, each Couple answered with the far side of its group.
func (c *Client) level(kept bool, pre []wire.Record) {
	sent := make(map[couple.Link]bool) // by endpoints: RemoveLink ignores the creator
	for i := range pre {
		if m, ok := pre[i].Msg.(wire.LinkAdded); ok {
			sent[couple.Link{From: m.Link.From, To: m.Link.To}] = true
		}
	}
	for _, l := range c.links.Links() {
		if kept && !sent[couple.Link{From: l.From, To: l.To}] || !kept && l.From.Instance != c.id && l.To.Instance != c.id {
			c.links.RemoveLink(l.From, l.To)
		}
	}
}

// resync restores the server's view of this instance after a resume.
// Declarations are the instance's own and are replayed on both paths (on a
// kept resume a no-op unless a crash lost one). A kept instance has nothing
// else to restore: the server kept its links, and held its groups' floors
// until it resumed, so nothing reached them while it was away. A dropped one
// re-creates the links that touch it, and every coupled object then pulls
// its state from the first peer that serves it (see pull), so it converges
// with whatever the group did meanwhile.
func (c *Client) resync(kept bool) {
	defer c.wg.Done()
	var firstErr error
	fail := func(err error) {
		if firstErr == nil {
			firstErr = err
		}
	}

	c.mu.Lock()
	classes := maps.Clone(c.declared)
	c.mu.Unlock()
	paths := make([]string, 0, len(classes))
	for p := range classes {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if err := c.callOK(wire.Declare{Path: p, Class: classes[p]}); err != nil {
			fail(fmt.Errorf("re-declare %s: %w", p, err))
		}
	}
	if !kept {
		for _, l := range c.links.Links() {
			if l.From.Instance != c.id && l.To.Instance != c.id {
				continue
			}
			if err := c.callOK(wire.Couple{From: l.From, To: l.To}); err != nil {
				fail(fmt.Errorf("re-couple %s -> %s: %w", l.From, l.To, err))
			}
		}
		for _, p := range paths {
			if err := c.pull(p); err != nil {
				fail(fmt.Errorf("state pull for %s: %w", p, err))
			}
		}
	}

	if firstErr != nil {
		c.slog.Warn("resync incomplete", "error", firstErr.Error())
	} else {
		c.slog.Info("resynchronized after reconnect", "objects", len(paths), "kept", kept)
	}
	if h := c.opts.Reconnect.OnResync; h != nil {
		c.guard("resync callback", "", 0, func() { h(firstErr) })
	}
}

// pull copies onto the local object at path the state of its coupled peers,
// trying them in order until one serves it, and returns the last failure when
// none did. The server holds the floor of path's group from the pull's read
// until this instance has applied the state, so no event of the group lands
// between. A pull refused that floor is tried again until the floor is free
// (see transfer), which it is within the event deadline, the restore window
// or a departure; another peer would meet the same floor.
func (c *Client) pull(path string) error {
	var err error
	for _, peer := range c.links.CO(c.Ref(path)) {
		if peer.Instance == c.id {
			continue
		}
		if err = c.transfer(wire.CopyFrom{From: peer, ToPath: path}, 0); err == nil || errors.Is(err, ErrClosed) {
			return err
		}
	}
	return err
}

// transfer asks the server for the state transfer m (a copy, undo or redo),
// which it refuses while another event or transfer holds the floor of the
// destination's group, or a restored member that may still resume (see
// floorBusy). A refused transfer is tried again on the reconnect backoff, at
// most attempts times in all, or until the floor is free or Close with
// attempts 0; the public calls pass maxAttempts, which outlasts the acks of a
// group's event, and then report the refusal.
func (c *Client) transfer(m wire.Message, attempts int) error {
	rng := rand.New(rand.NewPCG(jitterSeeds()))
	for attempt := 1; ; attempt++ {
		err := c.callOK(m)
		if !floorBusy(err) || attempt == attempts {
			return err
		}
		if !c.wait(backoffDelay(rng, attempt)) {
			return ErrClosed
		}
	}
}

// floorBusy reports whether err is the server refusing a transfer the floor
// of its group, as it denies an event: another event or transfer holds it,
// or a restored member that may still resume.
func floorBusy(err error) bool {
	return err != nil && (err.Error() == "group locked" || err.Error() == "a member is resuming")
}
