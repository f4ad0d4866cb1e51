package server

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"cosoft/internal/couple"
	"cosoft/internal/eventlog"
	"cosoft/internal/lock"
	"cosoft/internal/obs"
	"cosoft/internal/perm"
	"cosoft/internal/wire"
)

// handle dispatches one control-plane message from a registered client. It
// runs on the global loop; dispatch routes Event, ExecAck and BatchAck
// straight to the shard loops, so they never reach it.
func (s *Server) handle(cl *client, env wire.Envelope) {
	switch m := env.Msg.(type) {
	case wire.Declare:
		s.reply(cl, env.Seq, s.commit(s.record(eventlog.KindDeclare, cl, m)))
	case wire.Retract:
		s.handleRetract(cl, env.Seq, m)
	case wire.Deregister:
		// Deregistration invalidates any outstanding session token: an
		// instance that left on purpose must not be resumable.
		if _, ok := s.st.sessionTok[cl.id]; ok {
			_ = s.commit(s.record(eventlog.KindTokenDrop, cl, m)) // dropping a token cannot fail
		}
		s.dropClient(cl, "deregistered")
		s.reply(cl, env.Seq, nil)
	case wire.Couple:
		s.handleCouple(cl, env.Seq, m)
	case wire.Decouple:
		s.handleDecouple(cl, env.Seq, m)
	case wire.CopyTo:
		s.handleCopyTo(cl, env.Seq, m)
	case wire.CopyFrom:
		s.handleCopyFrom(cl, env.Seq, m)
	case wire.RemoteCopy:
		s.handleRemoteCopy(cl, env.Seq, m)
	case wire.StateReply:
		s.handleStateReply(cl, m)
	case wire.Command:
		s.handleCommand(cl, env.Seq, m)
	case wire.FetchState:
		s.handleFetchState(cl, env.Seq, m)
	case wire.Undo:
		s.handleUndoRedo(cl, env.Seq, m.Path, true)
	case wire.Redo:
		s.handleUndoRedo(cl, env.Seq, m.Path, false)
	case wire.ListInstances:
		s.handleListInstances(cl, env.Seq)
	case wire.GrantPerm, wire.RevokePerm:
		s.reply(cl, env.Seq, s.commit(s.record(eventlog.KindPerm, cl, m)))
	case wire.Ping:
		// Client-initiated probe: answer so it can measure liveness too.
		cl.out.send(wire.Envelope{RefSeq: env.Seq, Msg: wire.Pong{Nonce: m.Nonce}})
	case wire.Pong:
		// Liveness reply; lastSeen was already refreshed on arrival.
	case wire.SessionToken:
		s.handleSessionToken(cl, env.Seq)
	default:
		s.reply(cl, env.Seq, fmt.Errorf("server: unexpected message %s", env.Msg.MsgType()))
	}
}

// record is the log record of a transition cl asked for.
func (s *Server) record(kind eventlog.Kind, cl *client, msg wire.Message) eventlog.Record {
	return eventlog.Record{Kind: kind, Origin: string(cl.id), Env: wire.Envelope{Msg: msg}}
}

// groupRecord is record keyed by the coupling group of ref.
func (s *Server) groupRecord(kind eventlog.Kind, cl *client, ref couple.ObjectRef, msg wire.Message) eventlog.Record {
	rec := s.record(kind, cl, msg)
	rec.Group = stateID(ref)
	return rec
}

// reply sends OK or Err correlated to the request.
func (s *Server) reply(cl *client, seq uint64, err error) {
	if err != nil {
		cl.out.send(wire.Envelope{RefSeq: seq, Msg: wire.Err{Text: err.Error()}})
		return
	}
	cl.out.send(wire.Envelope{RefSeq: seq, Msg: wire.OK{}})
}

// stateID renders the permission identifier of an object.
func stateID(ref couple.ObjectRef) string {
	return string(ref.Instance) + ":" + ref.Path
}

// checkPerm verifies cl's right on ref; rights on the client's own objects
// are implicit.
func (s *Server) checkPerm(cl *client, ref couple.ObjectRef, right perm.Right) error {
	if ref.Instance == cl.id {
		return nil
	}
	if !s.st.perms.Allowed(cl.user, stateID(ref), right) {
		return fmt.Errorf("server: %w: user %q lacks %s on %s", errPerm, cl.user, right, stateID(ref))
	}
	return nil
}

// checkDeclared verifies the object is registered as couplable and returns
// its class.
func (s *Server) checkDeclared(ref couple.ObjectRef) (string, error) {
	class, ok := s.st.reg.ObjectClass(ref)
	if !ok {
		return "", fmt.Errorf("server: object %s not declared", stateID(ref))
	}
	return class, nil
}

func (s *Server) handleRetract(cl *client, seq uint64, m wire.Retract) {
	ref := couple.ObjectRef{Instance: cl.id, Path: m.Path}
	// Collect the group *before* removal, as handleDecouple does: computing
	// it afterwards loses the members connected only through the retracted
	// object, so the split halves would keep stale mirrored links.
	members := s.st.graph.Group(ref)
	s.notifyLinks(instancesOf(members), s.st.retract(ref), false)
	s.routes.dropRef(ref)
	s.logRecord(s.record(eventlog.KindRetract, cl, m))
	s.reply(cl, seq, nil)
}

// handleCouple validates and installs a link created by cl. It implements
// both the local Couple primitive and RemoteCouple: the creator need not own
// either endpoint (§3.3 "allow a third application instance to couple
// objects in remote instances").
//
// Every instance mirrors the links of the groups its own objects are in, so
// a merge is replicated as a delta (DESIGN §16): an instance on one side of
// the new link already holds that side and is sent the other side plus the
// link itself — "objects already connected to o2 are added to the list of
// targets, and objects already connected to o1 are added to the source"
// (§3.2) — and an instance on both sides lacks only the link. AddLink is
// idempotent and commutative at the mirrors, so a complete mirror plus what
// the merge added is again complete.
func (s *Server) handleCouple(cl *client, seq uint64, m wire.Couple) {
	l := couple.Link{From: m.From, To: m.To, Creator: cl.id}
	if err := s.checkCouple(cl, l); err != nil {
		s.reply(cl, seq, err)
		return
	}
	// The two groups as they are before the link merges them: what their
	// instances' mirrors hold.
	gFrom, linksFrom := s.st.graph.GroupLinks(l.From)
	// A member that couples two endpoints some link already joins is
	// resynchronizing after a server restart — it re-creates every link it
	// knows, as itself — and is re-sent the group as it stands, which brings
	// its mirror level with whatever it missed.
	refresh := owns(gFrom, cl.id) && slices.ContainsFunc(linksFrom, func(gl couple.Link) bool {
		return gl.From == l.From && gl.To == l.To || gl.From == l.To && gl.To == l.From
	})
	// A Couple whose exact link exists changes nothing and nobody else is
	// told.
	if !s.st.graph.Has(l) {
		gTo, linksTo := s.st.graph.GroupLinks(l.To)
		// Co-locate the two groups before the link merges them: every member
		// of one coupling group serializes on one shard loop.
		s.mergeShards(gFrom, gTo)
		if err := s.st.graph.AddLink(l); err != nil {
			s.reply(cl, seq, err)
			return
		}
		s.logRecord(s.groupRecord(eventlog.KindCouple, cl, l.From, m))
		// A link inside one group has every instance on both sides: the
		// group hears about it once.
		all := instancesOf(gFrom, gTo)
		var fromOnly, toOnly []couple.InstanceID
		for _, id := range all {
			switch {
			case !owns(gTo, id):
				fromOnly = append(fromOnly, id)
			case !owns(gFrom, id):
				toOnly = append(toOnly, id)
			}
		}
		s.notifyLinks(fromOnly, linksTo, true)
		s.notifyLinks(toOnly, linksFrom, true)
		s.notifyLinks(all, []couple.Link{l}, true)
	}
	if refresh {
		s.notifyLinks([]couple.InstanceID{cl.id}, linksFrom, true)
	}
	// Every notice is queued before the OK: on the caller's connection a
	// Couple call observes its own link in the mirror, and the other members'
	// notices are on their way when the call returns.
	s.reply(cl, seq, nil)
}

// checkCouple verifies that l's creator may couple its two endpoints.
func (s *Server) checkCouple(cl *client, l couple.Link) error {
	classFrom, err := s.checkDeclared(l.From)
	if err != nil {
		return err
	}
	classTo, err := s.checkDeclared(l.To)
	if err != nil {
		return err
	}
	if err := s.checkPerm(cl, l.From, perm.RightCouple); err != nil {
		return err
	}
	if err := s.checkPerm(cl, l.To, perm.RightCouple); err != nil {
		return err
	}
	if _, ok := s.checker.Direct(classFrom, classTo); !ok {
		return fmt.Errorf("server: classes %q and %q are not compatible", classFrom, classTo)
	}
	return nil
}

func (s *Server) handleDecouple(cl *client, seq uint64, m wire.Decouple) {
	if err := s.checkPerm(cl, m.From, perm.RightCouple); err != nil {
		s.reply(cl, seq, err)
		return
	}
	if err := s.checkPerm(cl, m.To, perm.RightCouple); err != nil {
		s.reply(cl, seq, err)
		return
	}
	// Collect the group *before* removal so both halves hear about it.
	members := s.st.graph.Group(m.From)
	l, err := s.st.decouple(m.From, m.To)
	if err != nil {
		s.reply(cl, seq, err)
		return
	}
	l.Creator = cl.id
	s.notifyLinks(instancesOf(members), []couple.Link{l}, false)
	s.logRecord(s.groupRecord(eventlog.KindDecouple, cl, l.From, wire.Decouple{From: l.From, To: l.To}))
	s.reply(cl, seq, nil)
}

// notifyLinks tells each connected instance of instances that links were
// added to (or removed from) a group it mirrors, in the order given.
func (s *Server) notifyLinks(instances []couple.InstanceID, links []couple.Link, added bool) {
	clients := make([]*client, 0, len(instances))
	for _, id := range instances {
		if c, ok := s.clientOf(id); ok {
			clients = append(clients, c)
		}
	}
	for _, l := range links {
		var msg wire.Message = wire.LinkRemoved{Link: l}
		if added {
			msg = wire.LinkAdded{Link: l}
		}
		for _, c := range clients {
			c.out.send(wire.Envelope{Msg: msg})
		}
	}
	s.mLinkNotices.Add(uint64(len(clients) * len(links)))
}

// instancesOf returns the distinct instances owning a member of any of the
// groups, sorted.
func instancesOf(groups ...[]couple.ObjectRef) []couple.InstanceID {
	var ids []couple.InstanceID
	for _, refs := range groups {
		for _, ref := range refs {
			ids = append(ids, ref.Instance)
		}
	}
	slices.Sort(ids)
	return slices.Compact(ids)
}

// owns reports whether id owns a member of the group refs, which is sorted
// as couple.Graph returns it.
func owns(refs []couple.ObjectRef, id couple.InstanceID) bool {
	_, ok := slices.BinarySearchFunc(refs, id, func(ref couple.ObjectRef, id couple.InstanceID) int {
		return cmp.Compare(ref.Instance, id)
	})
	return ok
}

func (s *Server) handleCommand(cl *client, seq uint64, m wire.Command) {
	targets := m.Targets
	if len(targets) == 0 {
		s.cmu.RLock()
		for id := range s.clients {
			if id != cl.id {
				targets = append(targets, id)
			}
		}
		s.cmu.RUnlock()
	}
	// Validate every target before delivering to any: a failure after
	// partial delivery would tell the sender "error" while some targets
	// already received the command.
	for _, id := range targets {
		if _, ok := s.clientOf(id); !ok {
			s.reply(cl, seq, fmt.Errorf("server: unknown target instance %q", id))
			return
		}
	}
	deliver := wire.CommandDeliver{Name: m.Name, From: cl.id, Payload: m.Payload}
	for _, id := range targets {
		if c, ok := s.clientOf(id); ok {
			c.out.send(wire.Envelope{Msg: deliver})
		}
	}
	s.reply(cl, seq, nil)
}

func (s *Server) handleListInstances(cl *client, seq uint64) {
	var list wire.InstanceList
	for _, id := range s.st.reg.Instances() {
		rec, err := s.st.reg.Lookup(id)
		if err != nil {
			continue
		}
		info := wire.InstanceInfo{ID: rec.ID, AppType: rec.AppType, Host: rec.Host, User: rec.User}
		for path, class := range rec.Objects {
			info.Objects = append(info.Objects, wire.DeclaredObject{Path: path, Class: class})
		}
		sort.Slice(info.Objects, func(i, j int) bool {
			return info.Objects[i].Path < info.Objects[j].Path
		})
		list.Instances = append(list.Instances, info)
	}
	cl.out.send(wire.Envelope{RefSeq: seq, Msg: list})
}

// handleSessionToken mints a resumable session token bound to cl's
// registration record and sends it back. A reconnecting client presents the
// token in a Resume handshake to reclaim the same instance ID.
func (s *Server) handleSessionToken(cl *client, seq uint64) {
	tok, err := mintToken()
	if err != nil {
		s.reply(cl, seq, err)
		return
	}
	// The token is durable before the client holds it: a token the client
	// could present after a server restart is always one replay can honor.
	msg := wire.SessionToken{Token: tok}
	if err := s.commit(s.record(eventlog.KindToken, cl, msg)); err != nil {
		s.reply(cl, seq, err)
		return
	}
	cl.out.send(wire.Envelope{RefSeq: seq, Msg: msg})
}

// dropClient removes a disconnected or deregistering instance: its couple
// links are removed (the automatic decoupling of §3.2), its locks are
// released, pending work is resolved, and its records are dropped.
func (s *Server) dropClient(cl *client, reason string) {
	// Identity check, not just key presence: after a Resume takeover the
	// instance ID maps to the NEW client, and the superseded connection's
	// deferred drop must not tear that one down.
	if cur, ok := s.clientOf(cl.id); !ok || cur != cl {
		return // already dropped or superseded
	}
	// Durable before any database mutation below: replay prunes the
	// instance the same way. Session tokens deliberately survive (resume
	// works across a disconnect); only Deregister revokes them. Drops
	// provoked by Close itself are not departures — nothing is logged, so
	// a restart finds every instance still registered and resumable.
	if !s.closing {
		s.logRecord(s.record(eventlog.KindDisconnect, cl, wire.Err{Text: reason}))
	}
	s.slog.Info("instance leaving", "inst", string(cl.id), "reason", reason)
	s.cmu.Lock()
	delete(s.clients, cl.id)
	s.cmu.Unlock()
	s.mClients.Add(-1)

	// Decouple everything the instance participated in, notifying survivors.
	// Each affected group is read *before* its links are removed: afterwards
	// the members connected to a peer only through the departed instance sit
	// in separate components (the chain A–B–C where B leaves), and each would
	// miss the removal of the other's link and keep it mirrored — the same
	// ordering bug handleRetract fixed. A group is walked once, and its
	// notices are queued ahead of the removal, which no member can tell from
	// the other order.
	covered := make(map[couple.Link]bool)
	for _, l := range s.st.graph.InstanceLinks(cl.id) {
		if covered[l] {
			continue
		}
		members, links := s.st.graph.GroupLinks(l.From)
		removed := links[:0]
		for _, gl := range links {
			if gl.From.Instance == cl.id || gl.To.Instance == cl.id {
				removed = append(removed, gl)
				covered[gl] = true
			}
		}
		s.notifyLinks(instancesOf(members), removed, false)
	}
	s.st.dropInstance(cl.id)
	s.routes.dropInstance(cl.id)

	// Resolve group-scoped state on every shard: events the instance
	// originated are finished, and events awaiting its ack are acked by
	// absence. Locks follow their event, so that releases every lock the
	// instance held — except a committing event's: its record may already be
	// durable, so it keeps its floor until its commit lands, and is finished
	// as soon as it has gone out. Nothing was sent for it yet, so it waits
	// for no one.
	for _, sh := range s.shards {
		sh := sh
		s.postShard(sh, func() {
			for id, pe := range sh.pending {
				switch {
				case pe.committing():
					if pe.source.Instance == cl.id {
						pe.originLeft = true
					}
				case pe.source.Instance == cl.id || pe.dropWaiter(cl.id):
					s.finishEvent(sh, id, pe, false)
				}
			}
		})
	}
	// Resolve pending state fetches involving the instance.
	for id, f := range s.pendingFetch {
		if f.target == cl.id {
			s.failFetch(id, f, fmt.Sprintf("instance %s disconnected", cl.id))
		} else if f.requester == cl.id {
			delete(s.pendingFetch, id)
		}
	}
}

// lockGroup applies the configured group-locking variant on the given
// shard's table, recording a "lock.acquire" span under tc when tracing.
func (s *Server) lockGroup(t *lock.Table, tc obs.TraceContext, refs []couple.ObjectRef, owner lock.Owner) (bool, int) {
	if s.opts.OrderedLocking {
		return t.TryLockGroupOrderedCtx(tc, refs, owner)
	}
	return t.TryLockGroupCtx(tc, refs, owner)
}
