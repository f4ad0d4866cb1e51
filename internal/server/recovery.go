// Durable-log integration: every state-mutating hop appends one record
// before its acknowledgement is enqueued; state.restore folds those records
// back into the server's databases after a crash or restart.
//
// Ordering: the log's order is the order appends reach its fill buffer. The
// global loop's records (register, declare, couple, copy, …) are appended
// with the blocking Append, so each is in the log before its
// acknowledgement, and before any request that depends on it can reach a
// shard loop. A shard loop's event record goes onto its lane and the loop
// moves on, so event records land among other loops' records in whatever
// order the appends happen to take. That order cannot matter: apply of an
// event record only raises the event-ID floor to the max, so an event record
// commutes with every record in the fold, and a late-landing event record
// cannot change what replay rebuilds (TestEventRecordsCommute). What the
// event causes stays behind its record: nothing about the event leaves the
// server until the record is durable, and per-group order holds because the
// event holds its group's floor meanwhile.
//
// Failure policy: a failed event append refuses the event — the continuation
// in broadcast unlocks the group, sends no Exec or SetLocks, and answers the
// origin EventResult{OK: false}. A failed control-plane append is warned
// about, counted and acknowledged anyway: the transition was already applied
// to the live state, and refusing the client would not take it back.
package server

import "cosoft/internal/eventlog"

// commit performs a transition that is exactly its log record: the state
// applies it, then the log makes it durable — callers place commit before the
// transition's acknowledgement is enqueued. It runs on the global loop,
// which owns the state. A record the state refuses is not logged, and the
// refusal is the answer to the client.
func (s *Server) commit(rec eventlog.Record) error {
	if err := s.st.apply(rec); err != nil {
		return err
	}
	s.logRecord(rec)
	return nil
}

// logRecord appends one control-plane record to the durable event log,
// blocking until it reaches the configured durability. It runs on the
// global loop, never on a shard loop. A failed append is counted
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
