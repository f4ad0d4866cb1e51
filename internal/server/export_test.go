package server

import (
	"fmt"
	"time"

	"cosoft/internal/couple"
)

// Test-only views of the lock table and the couple graph for the external
// server_test package.

// The server's defenses, for tests that move a clock.Manual past them.
const (
	Heartbeat     time.Duration = heartbeat
	EventDeadline time.Duration = eventDeadline
	OutboxLimit                 = outboxLimit
	OutboxGrace   time.Duration = outboxGrace
	SweepPeriod   time.Duration = sweepPeriod
)

// withEvents runs fn under the event lock, as a read goroutine runs an
// event: what fn sends is flushed once the lock is released.
func (s *Server) withEvents(fn func()) {
	s.ev.lock()
	defer s.ev.unlock()
	fn()
}

// withGlobal runs fn under gmu, as a read goroutine runs a control-plane
// message: what fn sends is flushed once the lock is released. Once the
// server is closing it runs nothing.
func (s *Server) withGlobal(fn func()) {
	s.gmu.lock()
	defer s.gmu.unlock()
	if !s.closing {
		fn()
	}
}

// LocksHeld counts the lock table's entries.
func (s *Server) LocksHeld() int { return s.locks.Len() }

// UncachedCO is CO(ref) straight from the couple graph — what every cached
// broadcast plan must agree with.
func (s *Server) UncachedCO(ref couple.ObjectRef) []couple.ObjectRef { return s.st.graph.CO(ref) }

// GroupLinks is the couple graph's view of ref's group: what every instance
// with an object in it must mirror.
func (s *Server) GroupLinks(ref couple.ObjectRef) ([]couple.ObjectRef, []couple.Link) {
	return s.st.graph.GroupLinks(ref)
}

// FoldDivergence checks the invariant live = fold(log): it restores a fresh
// state from the server's log directory, reads the live state under the
// locks that own it, and describes how the two differ — "" when they do not, when
// the server has no log, or once it is closed.
func (s *Server) FoldDivergence() string {
	if s.elog == nil {
		return ""
	}
	live := liveDigest(s)
	if live == "" {
		return ""
	}
	fold := newState(s.opts.HistoryDepth, nil)
	if _, _, err := fold.restore(s.elog.Dir(), nil); err != nil {
		return "restore: " + err.Error()
	}
	if restored := fold.digest(); live != restored {
		return fmt.Sprintf("live state\n%s\nrestored from the log\n%s", live, restored)
	}
	return ""
}
