package server

import (
	"strings"
	"time"

	"cosoft/internal/couple"
	"cosoft/internal/eventlog"
	"cosoft/internal/lock"
	"cosoft/internal/obs"
	"cosoft/internal/wire"
)

// pendingEvent tracks one broadcast event until every member instance has
// acknowledged re-execution, at which point the group is unlocked ("They are
// unlocked when the processing of this event is completed", §3.2).
type pendingEvent struct {
	origin couple.InstanceID
	source couple.ObjectRef
	// plan is the broadcast plan the event went out under: CO(o) as locked,
	// and the instances notified. It is shared with other events and never
	// written.
	plan  *plan
	owner lock.Owner
	// waiting counts outstanding Exec acknowledgements per instance (an
	// instance may hold several coupled members), indexed like plan.insts;
	// left is the number of instances still owing at least one.
	waiting []int
	left    int
	// start is the Event's arrival time for the round-trip histogram; zero
	// when latency measurement is disabled.
	start time.Time
	// tc is the arrival span's trace context: the parent of the ack and
	// unlock spans recorded when the round trip completes (zero when the
	// event was not traced).
	tc obs.TraceContext
	// timer fires the event deadline (nil when deadlines are disabled). It
	// is stopped when the event resolves normally.
	timer *time.Timer
	// migrated marks an event carried to another shard by a group
	// migration; its router forwarding entry is cleared on resolution.
	migrated bool
}

// handleEvent implements the multiple-execution algorithm of §3.2. The
// originating client has already applied the event's built-in feedback
// locally; the server locks CO(o), broadcasts Exec to every coupled member,
// and tells the origin whether to keep or undo its feedback. It runs on sh's
// loop — the shard owning the source object's coupling group.
//
// tc is the trace context the Event envelope carried (the origin's
// "client.event_send" span); every hop recorded here descends from it.
func (s *Server) handleEvent(sh *shard, cl *client, seq uint64, m wire.Event, tc obs.TraceContext) {
	source := couple.ObjectRef{Instance: cl.id, Path: m.Path}
	// Ownership recheck: the group may have migrated between the read
	// goroutine's routing decision and this closure running. Forward to the
	// current owner rather than touching the wrong shard's state.
	if own := s.shardForRef(source); own != sh {
		s.forwardEvent(own, cl, seq, m, tc)
		return
	}
	s.mEvents.Inc()
	sh.mEvents.Inc()
	start := s.mEventRTT.Start()
	arrival := s.tr.StartSpan(tc, "server.event_arrival", "server")
	if arrival.Active() {
		arrival.SetNote(m.Path + " " + m.Name)
	}
	actx := arrival.Context()
	p := s.planFor(sh, source)
	if p == nil {
		// Uncoupled object: nothing to synchronize; the local feedback
		// stands.
		cl.out.send(wire.Envelope{
			RefSeq: seq,
			Trace:  s.tr.Point(actx, "server.event_result", "server", "ok uncoupled"),
			Msg:    eventAccepted,
		})
		arrival.EndNote("uncoupled")
		return
	}

	// Event IDs interleave across shards: shard i allocates i+1, i+1+N,
	// i+1+2N, … so IDs stay globally unique and the birth shard is
	// recoverable as (id-1) mod N.
	sh.seq++
	eventID := (sh.seq-1)*uint64(len(s.shards)) + uint64(sh.idx) + 1
	owner := lock.Owner{Instance: cl.id, Seq: eventID}
	ok, _ := s.lockGroup(sh.locks, actx, p.members, owner)
	if !ok {
		// Lock failed: the origin must undo the event's syntactic feedback.
		s.slog.Debug("event denied: group locked",
			"inst", string(cl.id), "path", m.Path, "event", m.Name, "trace", tc.Trace)
		cl.out.send(wire.Envelope{
			RefSeq: seq,
			Trace:  s.tr.Point(actx, "server.event_result", "server", "denied: group locked"),
			Msg:    eventDenied,
		})
		arrival.EndNote("lock denied")
		return
	}

	// The event is committed: the group lock is held and the broadcast is
	// about to fan out. Make it durable before any member — including the
	// origin's EventResult — hears about it, so an acked event is always in
	// the replayable stream. The append runs on this shard's loop but the
	// file I/O happens on the log's writer goroutine; concurrent shards
	// group-commit into one write+fsync. (logAppend checks for a log itself;
	// asking first keeps the record from being built and boxed without one.)
	if s.elog != nil {
		s.logAppend(eventlog.KindEvent, cl.id, stateID(source), wire.Exec{
			EventID:    eventID,
			TargetPath: m.Path,
			Name:       m.Name,
			Args:       m.Args,
			Origin:     source,
		})
	}

	pe := &pendingEvent{
		origin:  cl.id,
		source:  source,
		plan:    p,
		owner:   owner,
		waiting: make([]int, len(p.insts)),
		start:   start,
		tc:      actx,
	}
	// Disable the locked objects at their instances, then broadcast the
	// event for re-execution. The member-independent suffix of the Exec body
	// (Name, Args, Origin) is encoded once into a shared refcounted buffer;
	// each member's outbox queues a reference and splices it in at flush, so
	// the broadcast costs O(1) body encodes regardless of fan-out.
	s.notifyLocks(p, actx, true)
	se := wire.NewSharedExec(eventID, m.Name, m.Args, source)
	s.mBytesEncoded.Add(uint64(se.TailLen()))
	fanout := 0
	for i := range p.insts {
		pi := &p.insts[i]
		target, connected := s.clientOf(pi.id)
		if !connected {
			continue
		}
		for _, path := range pi.paths {
			var execTC obs.TraceContext
			if actx.Valid() {
				execTC = s.tr.Point(actx, "server.exec_send", "server", string(pi.id)+" "+path)
			}
			target.out.sendShared(wire.Envelope{Trace: execTC}, path, se)
		}
		pe.waiting[i] = len(pi.paths)
		pe.left++
		fanout += len(pi.paths)
	}
	se.Release()
	s.mExecsSent.Add(uint64(fanout))
	s.mFanout.Observe(int64(fanout))
	cl.out.send(wire.Envelope{
		RefSeq: seq,
		Trace:  s.tr.Point(actx, "server.event_result", "server", "ok"),
		Msg:    eventAccepted,
	})
	arrival.End()
	if pe.left == 0 {
		// All members belonged to disconnected instances.
		s.unlockEvent(sh, pe, false)
		return
	}
	sh.pending[eventID] = pe
	if d := s.opts.EventDeadline; d > 0 {
		// AfterFunc posts back to the birth shard's loop; post refuses after
		// Close, so a late firing is harmless, and if the event migrated the
		// miss-forward in timeoutEvent chases it.
		pe.timer = time.AfterFunc(d, func() {
			s.postShard(sh, func() { s.timeoutEvent(sh, eventID) })
		})
	}
}

// eventAccepted and eventDenied are the two verdicts handleEvent sends,
// boxed once.
var (
	eventAccepted wire.Message = wire.EventResult{OK: true}
	eventDenied   wire.Message = wire.EventResult{OK: false, Reason: "group locked"}
)

// forwardEvent re-posts an Event that reached a shard its group has since
// migrated away from. It is a function of its own so that the closure's
// captures do not make every handleEvent call's parameters escape.
func (s *Server) forwardEvent(own *shard, cl *client, seq uint64, m wire.Event, tc obs.TraceContext) {
	s.postShard(own, func() { s.handleEvent(own, cl, seq, m, tc) })
}

// timeoutEvent resolves an event whose deadline expired before every member
// acknowledged: the stragglers are dropped from the wait set and the group
// unlocks, so one hung member cannot wedge the whole coupling group.
func (s *Server) timeoutEvent(sh *shard, id uint64) {
	pe, ok := sh.pending[id]
	if !ok {
		if to, moved := s.eventOwner(sh, id); moved {
			s.postShard(to, func() { s.timeoutEvent(to, id) })
		}
		return
	}
	stragglers := make([]string, 0, pe.left)
	for _, inst := range pe.awaited() { // in plan order: sorted by instance ID
		stragglers = append(stragglers, string(inst))
		// Deadline drops are attributed per member: every instance still in
		// the wait set when the deadline fires gets a timeout mark. This is
		// a cold path, so the family lookup's lock is fine.
		s.mMember.Get(string(inst)).Counter(memberTimeouts).Inc()
	}
	s.mEventTOs.Inc()
	s.tr.Point(pe.tc, "server.event_timeout", "server", strings.Join(stragglers, " "))
	s.slog.Warn("event deadline expired",
		"event_id", id, "origin", string(pe.origin), "path", pe.source.Path,
		"stragglers", strings.Join(stragglers, " "), "trace", pe.tc.Trace)
	s.finishEvent(sh, id, pe, true)
}

// awaited lists the instances the event still waits on, in plan order
// (sorted by instance ID).
func (pe *pendingEvent) awaited() []couple.InstanceID {
	var out []couple.InstanceID
	for i, n := range pe.waiting {
		if n > 0 {
			out = append(out, pe.plan.insts[i].id)
		}
	}
	return out
}

// dropWaiter stops the event waiting on inst — it disconnected, which acks by
// absence — and reports whether that emptied the wait set.
func (pe *pendingEvent) dropWaiter(inst couple.InstanceID) bool {
	i, ok := pe.plan.pos[inst]
	if !ok || pe.waiting[i] == 0 {
		return false
	}
	pe.waiting[i] = 0
	pe.left--
	return pe.left == 0
}

// ackClock reads the clock once for a coalesced run of acks (dispatchEnv
// stamps every entry of a BatchAck with it), so per-member latency
// attribution costs one clock read per BatchAck frame rather than one per
// entry. Zero when metrics are disabled — ackExec then never reads the clock
// either.
func (s *Server) ackClock() time.Time {
	if s.mMember == nil {
		return time.Time{}
	}
	return time.Now()
}

// ackExec is the ack-resolution core: decrement the acking instance's
// outstanding count for the event and unlock the group when the wait set
// empties. It runs on the event's birth shard; if the event migrated with
// its group, the ack is forwarded to the current owner. The hit path
// allocates nothing: the request arrived by value and nothing here captures
// it.
func (s *Server) ackExec(sh *shard, a execAck) {
	pe, ok := sh.pending[a.eventID]
	if !ok {
		// Stale ack (event already resolved by a deadline or disconnect) —
		// unless the event migrated, in which case chase it.
		if to, moved := s.eventOwner(sh, a.eventID); moved {
			s.postAck(to, a)
		}
		return
	}
	cl := a.cl
	i, ok := pe.plan.pos[cl.id]
	if !ok || pe.waiting[i] == 0 {
		return // ack from an instance we were not waiting for
	}
	s.tr.Point(a.tc, "server.exec_ack", "server", string(cl.id))
	pe.waiting[i]--
	if pe.waiting[i] == 0 {
		pe.left--
	}
	// Straggler attribution: charge this ack's latency (Event arrival →
	// now) to the acking member, and when the wait set just emptied, credit
	// it as the event's last acker — the member the whole group blocked on.
	// cl.health is the entry cached at admission, so this is lock-free; it
	// is nil when metrics are disabled, and pe.start is zero then too, so
	// the clock is never read on the disabled path.
	if e := cl.health; e != nil && !pe.start.IsZero() {
		now := a.now
		if now.IsZero() {
			now = time.Now()
		}
		lat := int64(now.Sub(pe.start))
		e.Hist().Observe(lat)
		e.EWMA().Observe(float64(lat))
		e.Counter(memberAcks).Inc()
		if pe.left == 0 {
			e.Counter(memberLastAcks).Inc()
		}
	}
	if pe.left == 0 {
		s.finishEvent(sh, a.eventID, pe, false)
	}
}

// eventOwner resolves a miss on sh's pending map: a migrated event leaves a
// forwarding entry in the router until it resolves, naming the shard that
// holds it now. Without an entry the miss is final (stale ack / stale timer).
func (s *Server) eventOwner(sh *shard, id uint64) (*shard, bool) {
	if idx, ok := s.router.eventShard(id); ok && s.shards[idx] != sh {
		return s.shards[idx], true
	}
	return nil, false
}

func (s *Server) finishEvent(sh *shard, id uint64, pe *pendingEvent, timedOut bool) {
	delete(sh.pending, id)
	if pe.timer != nil {
		pe.timer.Stop()
	}
	if pe.migrated {
		s.router.clearEvent(id)
	}
	s.unlockEvent(sh, pe, timedOut)
}

func (s *Server) unlockEvent(sh *shard, pe *pendingEvent, timedOut bool) {
	sh.locks.UnlockGroup(pe.plan.members, pe.owner)
	s.tr.Point(pe.tc, "server.unlock", "server", "")
	s.notifyLocks(pe.plan, pe.tc, false)
	// Deadline-resolved events waited the full deadline by construction;
	// folding them into the round-trip histogram would inject an outlier
	// equal to the deadline per expiry, so they get their own histogram.
	if timedOut {
		s.mEventTOWait.ObserveSince(pe.start)
	} else {
		s.mEventRTT.ObserveSince(pe.start)
	}
}
