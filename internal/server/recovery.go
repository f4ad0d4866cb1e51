// Durable-log integration: append hooks and startup replay. Every
// state-mutating hop appends one record before its
// acknowledgement is enqueued; replaying those records through the same
// mutations (without clients, notifications, or broadcasts) rebuilds the
// server's databases after a crash or restart.
//
// Ordering: appends block the calling loop until the record is written (and
// fsynced under the `always` policy), and global-loop records (register,
// couple, declare) complete before any dependent event can reach a shard
// loop — so the single log's record order always respects the causality the
// loops established, even though shard streams interleave freely between
// causally unrelated records.
//
// Replay deliberately does NOT restore the lock table or pending-event wait
// sets: a logged event was committed (its group lock granted and broadcast
// begun), and its waiters died with the crashed process — holding its lock
// after recovery would wedge the group waiting for acknowledgements no one
// will send. Locks are transient floor control; the log persists the
// decisions, not the floor.
package server

import (
	"cosoft/internal/couple"
	"cosoft/internal/eventlog"
	"cosoft/internal/hist"
	"cosoft/internal/perm"
	"cosoft/internal/registry"
	"cosoft/internal/wire"
)

// logAppend appends one record to the durable event log, blocking until it
// reaches the configured durability — callers place it before the
// transition's acknowledgement is enqueued. A failed append is counted
// (server.log.append_errors), logged and dropped: the server keeps serving
// (durability degrades, live consistency does not). No-op when durability is
// off.
func (s *Server) logAppend(kind eventlog.Kind, origin couple.InstanceID, group string, msg wire.Message) {
	if s.elog == nil {
		return
	}
	err := s.elog.Append(eventlog.Record{
		Kind:   kind,
		Origin: string(origin),
		Group:  group,
		Env:    wire.Envelope{Msg: msg},
	})
	if err != nil {
		s.mLogAppendErrs.Inc()
		s.slog.Warn("event log append failed",
			"kind", int(kind), "inst", string(origin), "err", err)
	}
}

// replayLog rebuilds the server databases from the durable log. It runs in
// New before any loop goroutine starts, so every mutation below touches the
// freshly built shards single-threaded. Replay starts from the newest
// decodable snapshot when one exists (reading only post-snapshot bytes),
// falling back to older snapshots and finally to offset zero. Individually
// damaged or stale records are skipped with a warning; replay never aborts
// recovery.
func (s *Server) replayLog() {
	from := int64(0)
	usedSnap := false
	if snaps, err := s.elog.Snapshots(); err != nil {
		s.slog.Warn("snapshot scan failed; replaying from offset zero", "err", err)
	} else {
		for _, ref := range snaps {
			st, derr := decodeState(ref.Payload)
			if derr != nil {
				s.slog.Warn("snapshot undecodable; falling back",
					"offset", ref.Offset, "err", derr)
				continue
			}
			s.installState(st)
			from = ref.Offset
			usedSnap = true
			break
		}
	}
	n := 0
	apply := func(rec eventlog.Record) error {
		s.replayRecord(rec)
		n++
		return nil
	}
	var err error
	if usedSnap {
		_, err = s.elog.ReplayFrom(from, apply)
	} else {
		err = s.elog.Replay(apply)
	}
	if err != nil {
		s.slog.Warn("event log replay stopped early", "records", n, "err", err)
	}
	if n > 0 || usedSnap {
		s.slog.Info("event log replayed", "records", n, "snapshot_offset", from,
			"instances", s.reg.Len(), "links", s.graph.Len())
	}
}

// replayRecord applies one logged transition. Mutations mirror the live
// handlers minus everything connection-shaped: no clients exist yet, so
// there are no notifications, broadcasts, or replies to reproduce.
func (s *Server) replayRecord(rec eventlog.Record) {
	origin := couple.InstanceID(rec.Origin)
	warn := func(why string) {
		s.slog.Warn("event log record skipped",
			"kind", int(rec.Kind), "inst", rec.Origin, "why", why)
	}
	switch rec.Kind {
	case eventlog.KindRegister:
		m, ok := rec.Env.Msg.(wire.Register)
		if !ok {
			warn("payload is not Register")
			return
		}
		// Advance the ID allocator past every recovered ID so post-restart
		// registrations can never collide with pre-crash instances.
		s.reg.RestoreSeq(origin)
		r := registry.Record{ID: origin, AppType: m.AppType, Host: m.Host, User: m.User}
		if err := s.reg.Register(r); err != nil {
			warn(err.Error())
		}
	case eventlog.KindDisconnect:
		s.replayDisconnect(origin)
	case eventlog.KindToken:
		m, ok := rec.Env.Msg.(wire.SessionToken)
		if !ok {
			warn("payload is not SessionToken")
			return
		}
		r, err := s.reg.Lookup(origin)
		if err != nil {
			warn(err.Error())
			return
		}
		if old, ok := s.sessionTok[origin]; ok {
			delete(s.sessions, old)
		}
		s.sessionTok[origin] = m.Token
		s.sessions[m.Token] = sessionRec{id: r.ID, appType: r.AppType, host: r.Host, user: r.User}
	case eventlog.KindTokenDrop:
		if tok, ok := s.sessionTok[origin]; ok {
			delete(s.sessions, tok)
			delete(s.sessionTok, origin)
		}
	case eventlog.KindResume:
		m, ok := rec.Env.Msg.(wire.Resume)
		if !ok {
			warn("payload is not Resume")
			return
		}
		sess, ok := s.sessions[m.Token]
		if !ok {
			warn("resume of unknown token")
			return
		}
		delete(s.sessions, m.Token)
		if s.sessionTok[sess.id] == m.Token {
			delete(s.sessionTok, sess.id)
		}
		if _, err := s.reg.Lookup(sess.id); err != nil {
			r := registry.Record{ID: sess.id, AppType: sess.appType, Host: sess.host, User: sess.user}
			if err := s.reg.Register(r); err != nil {
				warn(err.Error())
			}
		}
	case eventlog.KindDeclare:
		m, ok := rec.Env.Msg.(wire.Declare)
		if !ok {
			warn("payload is not Declare")
			return
		}
		if err := s.reg.DeclareObject(origin, m.Path, m.Class); err != nil {
			warn(err.Error())
		}
	case eventlog.KindRetract:
		m, ok := rec.Env.Msg.(wire.Retract)
		if !ok {
			warn("payload is not Retract")
			return
		}
		ref := couple.ObjectRef{Instance: origin, Path: m.Path}
		s.graph.RemoveObject(ref)
		s.reg.RetractObject(origin, m.Path)
		s.shardForRef(ref).history.Forget(ref)
		s.router.dropRef(ref)
	case eventlog.KindCouple:
		m, ok := rec.Env.Msg.(wire.Couple)
		if !ok {
			warn("payload is not Couple")
			return
		}
		s.replayMergeShards(m.From, m.To)
		if err := s.graph.AddLink(couple.Link{From: m.From, To: m.To, Creator: origin}); err != nil {
			warn(err.Error())
		}
	case eventlog.KindDecouple:
		m, ok := rec.Env.Msg.(wire.Decouple)
		if !ok {
			warn("payload is not Decouple")
			return
		}
		if !s.graph.RemoveLink(m.From, m.To) {
			s.graph.RemoveLink(m.To, m.From)
		}
	case eventlog.KindEvent:
		m, ok := rec.Env.Msg.(wire.Exec)
		if !ok {
			warn("payload is not Exec")
			return
		}
		// Restore the birth shard's sequence so post-restart events get IDs
		// strictly greater than every logged one. The event itself was
		// fully resolved or died with its waiters — only the ID allocation
		// survives it.
		sh := s.birthShard(m.EventID)
		if q := (m.EventID-1)/uint64(len(s.shards)) + 1; q > sh.seq {
			sh.seq = q
		}
	case eventlog.KindHist:
		m, ok := rec.Env.Msg.(wire.CopyTo)
		if !ok {
			warn("payload is not CopyTo")
			return
		}
		sh := s.shardForRef(m.To)
		sh.history.Record(hist.Snapshot{Ref: m.To, State: m.State, Origin: origin})
	case eventlog.KindUndo, eventlog.KindRedo:
		m, ok := rec.Env.Msg.(wire.CopyTo)
		if !ok {
			warn("payload is not CopyTo")
			return
		}
		sh := s.shardForRef(m.To)
		var err error
		if rec.Kind == eventlog.KindUndo {
			_, err = sh.history.Undo(m.To, m.State)
		} else {
			_, err = sh.history.Redo(m.To, m.State)
		}
		if err != nil {
			warn(err.Error())
		}
	case eventlog.KindPerm:
		switch m := rec.Env.Msg.(type) {
		case wire.GrantPerm:
			s.perms.Grant(perm.Rule{User: m.User, State: m.State, Right: perm.Right(m.Right)})
		case wire.RevokePerm:
			s.perms.Revoke(perm.Rule{User: m.User, State: m.State, Right: perm.Right(m.Right)})
		default:
			warn("payload is not GrantPerm or RevokePerm")
		}
	default:
		warn("unknown record kind")
	}
}

// replayDisconnect prunes an instance exactly as dropClient does, minus the
// connection-shaped parts (outboxes, notifications, pending events — none
// exist during replay). Session tokens deliberately survive, matching live
// behavior: a disconnected instance may still resume.
func (s *Server) replayDisconnect(id couple.InstanceID) {
	s.graph.RemoveInstance(id)
	for _, sh := range s.shards {
		sh.locks.ReleaseInstance(id)
		sh.history.ForgetInstance(id)
	}
	s.router.dropInstance(id)
	s.reg.Deregister(id)
}

// replayMergeShards is mergeShards for replay time: no loops are running,
// so the group state moves synchronously instead of via hold markers and
// install channels. Locks and pending events do not exist during replay;
// only histories and routes migrate.
func (s *Server) replayMergeShards(from, to couple.ObjectRef) {
	shFrom := s.shardForRef(from)
	shTo := s.shardForRef(to)
	if shFrom == shTo {
		return
	}
	gFrom := s.graph.Group(from)
	gTo := s.graph.Group(to)
	winner, loser, refs := shFrom, shTo, gTo
	if len(gTo) > len(gFrom) {
		winner, loser, refs = shTo, shFrom, gFrom
	}
	refset := make(map[couple.ObjectRef]bool, len(refs))
	for _, ref := range refs {
		refset[ref] = true
	}
	s.router.setRoutes(refs, winner.idx)
	winner.history.Install(loser.history.Extract(refset))
}
