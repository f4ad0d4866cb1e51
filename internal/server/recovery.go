// Durable-log integration: every state-mutating hop appends one record
// before its acknowledgement is enqueued; state.restore folds those records
// back into the server's databases after a crash or restart.
//
// The guarantee, in two clauses. Every state a restart restores was durable,
// under the configured sync policy, before the ack that exposed it: a gmu
// holder's records (register, declare, couple, copy, …) go through the
// blocking Append, so each is in the log before its acknowledgement and
// before any request that depends on it can reach a shard. A control-plane
// message is appended on the read goroutine that decoded it, so its
// connection's later records wait behind the append — under the always sync
// policy, behind its fsync. And no event
// ID is issued twice: a shard grants IDs only below a ceiling it has leased
// with a durable KindLease record (see logEvent), and a restart starts every
// shard above the highest ceiling it replays.
//
// An event's own record is an audit entry written behind the event: the
// shard's lock holder queues it and broadcasts at once, so event records land
// among other goroutines' records in whatever order the appends happen to
// take, and a crash may lose the records of events already acked. Neither can matter:
// apply of an event record only raises the event-ID floor to the max, which
// the lease before it already covers, so an event record commutes with
// every record in the fold (TestEventRecordsCommute).
//
// Failure policy: a failed lease, or an event record the log refuses (it is
// closed or has failed), refuses the event — it unlocks the group, sends no
// Exec or SetLocks, and answers the origin EventResult{OK: false}; the
// shard's sequence does not advance. The log fails closed, so every later
// lease is refused too and the shard refuses events until a restart. A
// failed control-plane append is warned about, counted and acknowledged
// anyway: the transition was already applied to the live state, and refusing
// the client would not take it back.
package server

import "cosoft/internal/eventlog"

// commit performs a transition that is exactly its log record: the state
// applies it, then the log makes it durable — callers place commit before the
// transition's acknowledgement is enqueued. Its caller holds gmu, which owns
// the state. A record the state refuses is not logged, and the
// refusal is the answer to the client.
func (s *Server) commit(rec eventlog.Record) error {
	if err := s.st.apply(rec); err != nil {
		return err
	}
	s.logRecord(rec)
	return nil
}

// logRecord appends one control-plane record to the durable event log,
// blocking until it reaches the configured durability. Its caller holds gmu
// and no shard lock. A failed append is counted
// (server.log.append_errors), logged and dropped: the server keeps serving
// (durability degrades, live consistency does not). No-op when durability is
// off.
func (s *Server) logRecord(rec eventlog.Record) {
	if s.elog == nil {
		return
	}
	if err := s.elog.Append(rec); err != nil {
		s.mLogAppendErrs.Inc()
		s.slog.Warn("event log append failed",
			"kind", int(rec.Kind), "inst", rec.Origin, "err", err)
	}
}
