// Durable-log integration: every state-mutating hop appends one record
// before its acknowledgement is enqueued; state.restore folds those records
// back into the server's databases after a crash or restart.
//
// Ordering: appends block the calling loop until the record is written (and
// fsynced under the `always` policy), and global-loop records (register,
// couple, declare) complete before any dependent event can reach a shard
// loop — so the single log's record order always respects the causality the
// loops established, even though shard streams interleave freely between
// causally unrelated records.
package server

import (
	"cosoft/internal/couple"
	"cosoft/internal/eventlog"
	"cosoft/internal/wire"
)

// commit performs a transition that is exactly its log record: the state
// applies it, then the log makes it durable — callers place commit before the
// transition's acknowledgement is enqueued. It runs on the loop that owns
// what rec's kind touches. A record the state refuses is not logged, and the
// refusal is the answer to the client.
func (s *Server) commit(rec eventlog.Record) error {
	if err := s.st.apply(rec); err != nil {
		return err
	}
	s.logRecord(rec)
	return nil
}

// logAppend records a transition the caller already made through the state's
// own methods (or, for KindEvent, committed by taking the group lock).
func (s *Server) logAppend(kind eventlog.Kind, origin couple.InstanceID, group string, msg wire.Message) {
	s.logRecord(eventlog.Record{
		Kind:   kind,
		Origin: string(origin),
		Group:  group,
		Env:    wire.Envelope{Msg: msg},
	})
}

// logRecord appends one record to the durable event log, blocking until it
// reaches the configured durability. A failed append is counted
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
