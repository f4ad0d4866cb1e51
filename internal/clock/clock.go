// Package clock is the one source of time for every deadline, ticker and
// timer in the server, the client and the event log. Real reads the wall
// clock and is what a nil Clock means; Manual moves only when a test advances
// it, so a test reaches a deadline by stepping past it instead of sleeping
// through it.
//
// The package imports nothing of the project, so any package's own tests can
// use it without an import cycle.
package clock

import (
	"sync"
	"time"
)

// Clock tells the time and arms tickers and timers against it.
type Clock interface {
	Now() time.Time
	// NewTicker returns a ticker that delivers the time on C every d, as
	// time.NewTicker does: a tick the receiver is not ready for is dropped.
	NewTicker(d time.Duration) Ticker
	// AfterFunc runs f on its own goroutine once d has passed, as
	// time.AfterFunc does.
	AfterFunc(d time.Duration, f func()) Timer
}

// Ticker is a running ticker of a Clock.
type Ticker interface {
	C() <-chan time.Time
	Stop()
}

// Timer is an armed AfterFunc of a Clock.
type Timer interface {
	// Stop disarms the timer; it reports false if the timer had already
	// fired or been stopped.
	Stop() bool
}

// Or returns c, or Real when c is nil.
func Or(c Clock) Clock {
	if c == nil {
		return Real{}
	}
	return c
}

// Real is the wall clock. It is a zero-size value, so holding it in a Clock
// allocates nothing.
type Real struct{}

func (Real) Now() time.Time { return time.Now() }

func (Real) NewTicker(d time.Duration) Ticker { return realTicker{time.NewTicker(d)} }

func (Real) AfterFunc(d time.Duration, f func()) Timer { return time.AfterFunc(d, f) }

// realTicker is a time.Ticker behind the Ticker interface; holding its one
// pointer in an interface allocates nothing.
type realTicker struct{ t *time.Ticker }

func (r realTicker) C() <-chan time.Time { return r.t.C }
func (r realTicker) Stop()               { r.t.Stop() }

// Manual is a clock that stands still until Advance moves it. Tickers and
// timers armed on it fire only inside Advance, in the order they fall due.
type Manual struct {
	mu      sync.Mutex
	changed *sync.Cond // broadcast whenever a timer is armed or disarmed
	now     time.Time
	armed   []*manualTimer
}

// manualTimer is a ticker (period > 0) or an AfterFunc (f != nil) of a
// Manual; it is armed while it is in Manual.armed.
type manualTimer struct {
	m      *Manual
	when   time.Time // next time it falls due
	period time.Duration
	c      chan time.Time
	f      func()
}

// Epoch is the time a new Manual reads. It is not the zero time.Time, which
// callers take for "unset".
var Epoch = time.Date(2000, time.January, 1, 0, 0, 0, 0, time.UTC)

// NewManual returns a Manual reading Epoch.
func NewManual() *Manual {
	m := &Manual{now: Epoch}
	m.changed = sync.NewCond(&m.mu)
	return m
}

// Now returns the time the clock was last advanced to.
func (m *Manual) Now() time.Time {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.now
}

// NewTicker arms a ticker whose first tick falls due d from now.
func (m *Manual) NewTicker(d time.Duration) Ticker {
	if d <= 0 {
		panic("clock: non-positive ticker period")
	}
	t := &manualTimer{m: m, period: d, c: make(chan time.Time, 1)}
	m.arm(t, d)
	return manualTicker{t}
}

// AfterFunc arms f to run on its own goroutine once the clock has advanced d;
// with d <= 0 it runs at once, as time.AfterFunc does.
func (m *Manual) AfterFunc(d time.Duration, f func()) Timer {
	t := &manualTimer{m: m, f: f}
	if d <= 0 {
		go f()
		return t
	}
	m.arm(t, d)
	return t
}

func (m *Manual) arm(t *manualTimer, d time.Duration) {
	m.mu.Lock()
	t.when = m.now.Add(d)
	m.armed = append(m.armed, t)
	m.changed.Broadcast()
	m.mu.Unlock()
}

// Advance moves the clock d forward and fires what falls due on the way, in
// order: a ticker delivers its latest due tick if its channel has room and
// drops the ones it missed, as time.Ticker does, and an AfterFunc runs on a
// goroutine of its own. When Advance returns the clock reads the new time;
// what fired may still be running.
func (m *Manual) Advance(d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	end := m.now.Add(d)
	for {
		t := m.due(end)
		if t == nil {
			break
		}
		if t.when.After(m.now) {
			m.now = t.when
		}
		if t.f != nil {
			m.disarm(t)
			go t.f()
			continue
		}
		// Every tick up to end falls due now; only the last is delivered.
		missed := end.Sub(t.when) / t.period
		tick := t.when.Add(missed * t.period)
		select {
		case t.c <- tick:
		default:
		}
		t.when = tick.Add(t.period)
	}
	m.now = end
}

// due returns the armed timer that falls due first, if it does by end.
// m.mu is held.
func (m *Manual) due(end time.Time) *manualTimer {
	var first *manualTimer
	for _, t := range m.armed {
		if !t.when.After(end) && (first == nil || t.when.Before(first.when)) {
			first = t
		}
	}
	return first
}

// disarm takes t off the armed list, reporting whether it was on it. m.mu is
// held.
func (m *Manual) disarm(t *manualTimer) bool {
	for i, a := range m.armed {
		if a == t {
			m.armed = append(m.armed[:i], m.armed[i+1:]...)
			m.changed.Broadcast()
			return true
		}
	}
	return false
}

// Armed returns how many tickers and timers are armed.
func (m *Manual) Armed() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.armed)
}

// BlockUntil waits until at least n tickers and timers are armed, so that a
// test advances only once the goroutine under test has set its timer.
func (m *Manual) BlockUntil(n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for len(m.armed) < n {
		m.changed.Wait()
	}
}

// manualTicker is a ticker of a Manual.
type manualTicker struct{ t *manualTimer }

func (k manualTicker) C() <-chan time.Time { return k.t.c }
func (k manualTicker) Stop()               { k.t.Stop() }

func (t *manualTimer) Stop() bool {
	t.m.mu.Lock()
	defer t.m.mu.Unlock()
	return t.m.disarm(t)
}
