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

// handle dispatches one control-plane message from a registered client. Its
// caller holds gmu; dispatch runs Event, ExecAck and BatchAck under the
// event lock and drops Pong, so they never reach it. A connection whose
// instance has left (deregistered, or dropped with requests still in flight)
// is refused: nothing it asks for can be validated against its registration.
func (s *Server) handle(cl *client, env wire.Envelope) {
	if cur, _ := s.clientOf(cl.id); cur != cl {
		s.reply(cl, env.Seq, fmt.Errorf("server: instance %s has left", cl.id))
		return
	}
	switch m := env.Msg.(type) {
	case wire.Declare:
		// A declaration the registry holds changes nothing and is not logged.
		var err error
		if class, ok := s.st.reg.ObjectClass(couple.ObjectRef{Instance: cl.id, Path: m.Path}); !ok || class != m.Class {
			err = s.commit(s.record(eventlog.KindDeclare, cl, m))
		}
		s.reply(cl, env.Seq, err)
	case wire.Retract:
		s.handleRetract(cl, env.Seq, m)
	case wire.Deregister:
		// Deregistration invalidates any outstanding session token: an
		// instance that left on purpose must not be resumable.
		var err error
		if _, ok := s.st.sessionTok[cl.id]; ok {
			err = s.commit(s.record(eventlog.KindTokenDrop, cl, m))
		}
		if err == nil {
			err = s.dropClient(cl, "deregistered")
		}
		s.reply(cl, env.Seq, err)
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
		s.gmu.out.send(cl, wire.Envelope{RefSeq: env.Seq, Msg: wire.Pong{Nonce: m.Nonce}})
	case wire.SessionToken:
		// A reconnecting client presents the token in a Resume handshake to
		// reclaim the same instance ID.
		if tok, err := s.mintSession(cl); err != nil {
			s.reply(cl, env.Seq, err)
		} else {
			s.gmu.out.send(cl, wire.Envelope{RefSeq: env.Seq, Msg: wire.SessionToken{Token: tok}})
		}
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
		s.gmu.out.send(cl, wire.Envelope{RefSeq: seq, Msg: wire.Err{Text: err.Error()}})
		return
	}
	s.gmu.out.send(cl, wire.Envelope{RefSeq: seq, Msg: wire.OK{}})
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
	// Read the group and the object's links *before* removal, as
	// handleDecouple does: computing the group afterwards loses the members
	// connected only through the retracted object, so the split halves would
	// keep stale mirrored links.
	members, links := s.st.graph.Group(ref), s.st.graph.LinksOf(ref)
	if err := s.commit(s.record(eventlog.KindRetract, cl, m)); err != nil {
		s.reply(cl, seq, err)
		return
	}
	s.notifyLinks(instancesOf(members), links, false)
	s.reply(cl, seq, nil)
}

// handleCouple validates and installs a link created by cl. It implements
// both the local Couple primitive and RemoteCouple: the creator need not own
// either endpoint (§3.3 "allow a third application instance to couple
// objects in remote instances").
//
// Every instance mirrors the links of the groups its own objects are in, so a
// merge is replicated as a delta (DESIGN §16): an instance on one side of the
// new link is sent the other side and the link — "objects already connected
// to o2 are added to the list of targets, and objects already connected to o1
// are added to the source" (§3.2) — and one on both sides only the link.
func (s *Server) handleCouple(cl *client, seq uint64, m wire.Couple) {
	l := couple.Link{From: m.From, To: m.To, Creator: cl.id}
	if err := s.checkCouple(cl, l); err != nil {
		s.reply(cl, seq, err)
		return
	}
	// A Couple whose exact link exists changes nothing and nobody is told.
	if !s.st.graph.Has(l) {
		// The two groups as they are before the link merges them: what their
		// instances' mirrors hold.
		gFrom, linksFrom := s.st.graph.GroupLinks(l.From)
		gTo, linksTo := s.st.graph.GroupLinks(l.To)
		if err := s.commit(s.groupRecord(eventlog.KindCouple, cl, l.From, m)); err != nil {
			s.reply(cl, seq, err)
			return
		}
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
	// Every notice is queued before the OK: on the caller's connection a
	// Couple call observes its own link in the mirror, and the other members'
	// notices are on their way when the call returns.
	s.reply(cl, seq, nil)
}

// checkCouple verifies that l's creator may couple its two endpoints, which
// are two objects.
func (s *Server) checkCouple(cl *client, l couple.Link) error {
	if l.From == l.To {
		return fmt.Errorf("server: cannot couple %s to itself", stateID(l.From))
	}
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
	l, ok := storedLink(s.st.graph, m.From, m.To)
	if !ok {
		s.reply(cl, seq, fmt.Errorf("server: no link between %s and %s", stateID(m.From), stateID(m.To)))
		return
	}
	// Collect the group *before* removal so both halves hear about it.
	members := s.st.graph.Group(m.From)
	if err := s.commit(s.groupRecord(eventlog.KindDecouple, cl, l.From, wire.Decouple{From: l.From, To: l.To})); err != nil {
		s.reply(cl, seq, err)
		return
	}
	l.Creator = cl.id
	s.notifyLinks(instancesOf(members), []couple.Link{l}, false)
	s.reply(cl, seq, nil)
}

// storedLink returns the link between from and to in its stored direction,
// from → to first as apply's Decouple: a notice or a record naming the other
// would leave the members' mirrors, or a replay, with a stale entry.
func storedLink(g *couple.Graph, from, to couple.ObjectRef) (l couple.Link, ok bool) {
	for _, gl := range g.LinksOf(from) {
		switch {
		case gl.From == from && gl.To == to:
			return couple.Link{From: from, To: to}, true
		case gl.From == to && gl.To == from:
			l, ok = couple.Link{From: to, To: from}, true
		}
	}
	return l, ok
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
			s.gmu.out.send(c, wire.Envelope{Msg: msg})
		}
	}
	s.mLinkNotices.Add(uint64(len(clients) * len(links)))
}

// instanceGroups calls fn once for every group that has an object of id,
// with its members and links as GroupLinks returns them.
func (s *Server) instanceGroups(id couple.InstanceID, fn func(members []couple.ObjectRef, links []couple.Link)) {
	covered := make(map[couple.Link]bool)
	for _, l := range s.st.graph.InstanceLinks(id) {
		if covered[l] {
			continue
		}
		members, links := s.st.graph.GroupLinks(l.From)
		for _, gl := range links {
			covered[gl] = true
		}
		fn(members, links)
	}
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
			s.gmu.out.send(c, wire.Envelope{Msg: deliver})
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
	s.gmu.out.send(cl, wire.Envelope{RefSeq: seq, Msg: list})
}

// mintSession mints cl's next session token, replacing the previous one. It
// is logged before the client holds it, so replay honors any token a client
// can present after a restart.
func (s *Server) mintSession(cl *client) (string, error) {
	tok, err := mintToken()
	if err != nil {
		return "", err
	}
	return tok, s.commit(s.record(eventlog.KindToken, cl, wire.SessionToken{Token: tok}))
}

// dropClient removes a disconnected or deregistering instance: its
// connection's entry in the client map goes, and the instance departs. Its
// caller holds gmu and has checked the server is not closing: a drop provoked
// by Close is not a departure.
func (s *Server) dropClient(cl *client, reason string) error {
	// Identity check, not just key presence: after a Resume takeover the
	// instance ID maps to the NEW client, and the superseded connection's
	// deferred drop must not tear that one down.
	if cur, ok := s.clientOf(cl.id); !ok || cur != cl {
		return nil // already dropped or superseded
	}
	s.slog.Info("instance leaving", "inst", string(cl.id), "reason", reason)
	s.cmu.Lock()
	delete(s.clients, cl.id)
	s.cmu.Unlock()
	s.mClients.Add(-1)
	return s.depart(cl.id, reason)
}

// depart commits the departure of an instance that has no connection (any
// longer): its couple links go (the automatic decoupling of §3.2), the
// survivors are told, its record and history go, its session token stays —
// and what waited on it goes: its pending events, transfers and locks, its
// restored floor, its pending fetches. A departure the log refuses is returned and leaves the instance
// registered, linked and resumable, as a restart would find it. Its caller
// holds gmu.
func (s *Server) depart(id couple.InstanceID, reason string) error {
	// Each affected group is read *before* its links are removed: afterwards
	// the members connected to a peer only through the departed instance sit
	// in separate components (the chain A–B–C where B leaves), and each would
	// miss the removal of the other's link and keep it mirrored — the same
	// ordering bug handleRetract fixed.
	var notices []func()
	s.instanceGroups(id, func(members []couple.ObjectRef, links []couple.Link) {
		removed := links[:0]
		for _, gl := range links {
			if gl.From.Instance == id || gl.To.Instance == id {
				removed = append(removed, gl)
			}
		}
		notices = append(notices, func() { s.notifyLinks(instancesOf(members), removed, false) })
	})
	err := s.commit(eventlog.Record{Kind: eventlog.KindDisconnect, Origin: string(id), Env: wire.Envelope{Msg: wire.Err{Text: reason}}})
	if err == nil {
		for _, notify := range notices {
			notify()
		}
	}

	// Resolve group-scoped state under the event lock: events the instance
	// originated are finished, and events and transfers awaiting its ack are
	// acked by absence. A lock is released only by finishing its event or
	// transfer, or its restored instance's resume or departure, so that
	// releases every lock the instance held.
	s.ev.lock()
	for eid, pe := range s.ev.pending {
		if pe.source.Instance == id || pe.dropWaiter(id) {
			s.finishEvent(eid, pe, false)
		}
	}
	s.ev.unlock()
	s.releaseRestored(id)
	// Fail the pending state fetches involving the instance, so a transfer
	// waiting on one lets its floor go.
	for fid, f := range s.pendingFetch {
		if f.target == id || f.requester == id {
			s.failFetch(fid, f, fmt.Sprintf("instance %s disconnected", id))
		}
	}
	return err
}

// lockGroup takes the floor of refs for owner with the configured
// group-locking variant, recording a "lock.acquire" span under tc when
// tracing. It returns nil once the floor is held, or else the verdict of
// the refusal, named for the owner of the lock that refused it: a restored
// member that has not resumed (sequence 0, see restoreOwner) is "a member is
// resuming", another event or transfer "group locked".
func (s *Server) lockGroup(tc obs.TraceContext, refs []couple.ObjectRef, owner lock.Owner) wire.Message {
	var ok bool
	var holder lock.Owner
	if s.opts.OrderedLocking {
		ok, holder = s.locks.TryLockGroupOrderedCtx(tc, refs, owner)
	} else {
		ok, holder = s.locks.TryLockGroupCtx(tc, refs, owner)
	}
	switch {
	case ok:
		return nil
	case holder.Seq == 0:
		return eventResuming
	}
	return eventDenied
}
