// Durable-log integration: every transition of the replayable state is one
// log record, durable before the state changes; state.restore folds those
// records back into the server's databases after a crash or restart.
//
// A control-plane transition takes one path, commit: its handler validates
// it with read-only checks and reads what its notices need, the blocking
// Append makes the record durable under the sync policy, and only then does
// state.apply — which restore, the snapshotter's replica and the test shadow
// run too — change the live state. So a transition is live only if its
// record is in the log, whatever the log refuses. A gmu holder appends, so a
// record is in the log before its acknowledgement and before any request
// that depends on it can reach the event lock; a connection's later records
// wait behind the append (under the always policy, behind its fsync). And no
// event ID is issued twice: the server grants IDs only below a ceiling it has
// leased with a durable KindLease record (see logEvent), and a restart
// starts above the highest ceiling it replays.
//
// An event's own record is an audit entry written behind the event: the
// event lock's holder queues it and broadcasts at once, so event records land
// among other goroutines' records in whatever order the appends happen to
// take, and a crash may lose the records of events already acked. Neither can matter:
// apply of an event record only raises the event-ID floor to the max, which
// the lease before it already covers, so an event record commutes with
// every record in the fold (TestEventRecordsCommute).
//
// Failure policy, one for every durable write: a record the log refuses (it
// is closed or failed, or the record is too large) refuses the request that
// needed it. A control-plane request is answered with the error and changes
// nothing; an event unlocks its group, sends no Exec, and answers the origin
// EventResult{OK: false}. The log fails closed, so every later request that
// writes is refused too, until a restart. A departure whose record is
// refused leaves the instance registered, linked and resumable.
package server

import (
	"fmt"

	"cosoft/internal/eventlog"
)

// commit performs a validated control-plane transition, which is exactly its
// log record: the log makes it durable, then the state applies it. Its caller
// holds gmu and not the event lock, and queues its notices and acknowledgement
// only once commit returns nil. A record the log refuses is counted
// (server.log.append_errors), changes nothing, and is the client's answer.
// Without a log commit is apply.
func (s *Server) commit(rec eventlog.Record) error {
	if s.elog != nil {
		if err := s.elog.Append(rec); err != nil {
			s.mLogAppendErrs.Inc()
			s.slog.Warn("request refused: log append failed",
				"kind", int(rec.Kind), "inst", rec.Origin, "err", err)
			return fmt.Errorf("server: event log append failed: %w", err)
		}
	}
	// Validation leaves apply nothing to refuse; if it did, restore would
	// skip the record the same way, so live = fold holds regardless.
	return s.st.apply(rec)
}
