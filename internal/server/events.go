package server

import (
	"strings"
	"time"

	"cosoft/internal/couple"
	"cosoft/internal/lock"
	"cosoft/internal/obs"
	"cosoft/internal/wire"
)

// pendingEvent tracks one broadcast event until every member instance has
// acknowledged re-execution, at which point the group is unlocked ("They are
// unlocked when the processing of this event is completed", §3.2).
type pendingEvent struct {
	source couple.ObjectRef // its Instance is the event's origin
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
	// timer fires the event deadline (nil when deadlines are disabled, and
	// until the event is broadcast). It is stopped when the event resolves
	// normally.
	timer *time.Timer
	// se is the broadcast's encode-once Exec while the event is committing:
	// granted, its log record on the way to disk, nothing sent yet. The
	// continuation (broadcast) sends se to the members, answers the origin's
	// connection from on its request refSeq, and clears se.
	se     *wire.SharedExec
	from   *client
	refSeq uint64
	// migrated marks an event carried to another shard by a group
	// migration; its router forwarding entry is cleared on resolution.
	migrated bool
	// originLeft marks a committing event whose origin disconnected: it is
	// resolved as soon as it has been broadcast, as dropClient resolves an
	// event that was already out.
	originLeft bool
}

// committing reports whether the event's log record is still on its way.
func (pe *pendingEvent) committing() bool { return pe.se != nil }

const (
	// maxFreePending bounds a shard's free list of resolved events. A shard
	// has at most one event pending per group it serves, so a few dozen cover
	// the groups that dispatch at once.
	maxFreePending = 64
	// maxFreeWaitSet is the largest wait set, in instances, a recycled event
	// keeps, so one huge group does not pin its wait set.
	maxFreeWaitSet = 1024
)

// newPending takes an event off sh's free list, or makes one, with a wait set
// of n instances. Every field is zero and every count in the wait set too:
// recycle zeroes an event when it takes it back.
func (sh *shard) newPending(n int) *pendingEvent {
	k := len(sh.free)
	if k == 0 {
		return &pendingEvent{waiting: make([]int, n)}
	}
	pe := sh.free[k-1]
	sh.free[k-1] = nil
	sh.free = sh.free[:k-1]
	if cap(pe.waiting) < n {
		pe.waiting = make([]int, n)
	} else {
		pe.waiting = pe.waiting[:n]
	}
	return pe
}

// recycle takes back a resolved event, one no pending map, migration bundle
// or commit report can reach any more, and zeroes it for newPending. Only the
// wait set's array survives, cleared: every count beyond its length already
// is zero, since each event writes only within its own wait set.
func (sh *shard) recycle(pe *pendingEvent) {
	if len(sh.free) == maxFreePending || cap(pe.waiting) > maxFreeWaitSet {
		return
	}
	clear(pe.waiting)
	*pe = pendingEvent{waiting: pe.waiting[:0]}
	sh.free = append(sh.free, pe)
}

// abandon drops what an unresolved event holds outside the server at
// shutdown: its deadline timer and its shared body.
func (pe *pendingEvent) abandon() {
	if pe.timer != nil {
		pe.timer.Stop()
	}
	if pe.se != nil {
		pe.se.Release()
		pe.se = nil
	}
}

// handleEvent implements the multiple-execution algorithm of §3.2. The
// originating client has already applied the event's built-in feedback
// locally; the server locks CO(o), broadcasts Exec to every coupled member,
// and tells the origin whether to keep or undo its feedback. It runs on sh's
// loop — the shard owning the source object's coupling group.
//
// ev.tc is the trace context the Event envelope carried (the origin's
// "client.event_send" span); every hop recorded here descends from it.
func (s *Server) handleEvent(sh *shard, ev eventReq) {
	cl, seq, m, tc := ev.cl, ev.seq, &ev.m, ev.tc
	source := couple.ObjectRef{Instance: cl.id, Path: m.Path}
	// Ownership recheck: the group may have migrated between the read
	// goroutine's routing decision and this request running. Forward it to
	// the current owner rather than touching the wrong shard's state.
	if own := s.shardForRef(source); own != sh {
		s.postShardReq(own, shardReq{event: ev})
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
	// recoverable as (id-1) mod N. The sequence counts granted events only: a
	// denied event's ID is never sent or logged, and the next event reuses it.
	eventID := sh.seq*uint64(len(s.shards)) + uint64(sh.idx) + 1
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
	sh.seq++

	// The event is granted: the group lock is held. The member-independent
	// suffix of the Exec body (Name, Args, Origin) is encoded once into a
	// shared refcounted buffer, which both the log record and every member's
	// frame copy in. The event is pending from here on, so the health
	// plane and the invariants see it while it commits.
	pe := sh.newPending(len(p.insts))
	pe.source, pe.plan, pe.owner, pe.start, pe.tc = source, p, owner, start, actx
	pe.se = wire.NewSharedExec(eventID, m.Name, m.Args, source)
	pe.from, pe.refSeq = cl, seq
	sh.pending[eventID] = pe
	// Nothing about the event leaves the server before its record is
	// durable, so an acked event is always in the replayable stream. The
	// record goes onto the shard's lane and the loop moves on; the writer's
	// report brings the event back to broadcast (see commitsDone), on
	// whichever shard owns it by then. Without a log, or when the log
	// refuses the append at once, the continuation runs here.
	if sh.lane == nil {
		s.broadcast(sh, eventID, pe, nil)
	} else if n, err := sh.lane.AppendEvent(source, pe.se); err != nil {
		s.broadcast(sh, eventID, pe, err)
	} else {
		sh.commits = append(sh.commits, logCommit{n: n, id: eventID})
	}
	arrival.End()
}

// broadcast is a granted event's continuation once the fate of its log
// record is known (err is the append's error), on the shard that owns the
// event now. A refused record refuses the event: it unlocks, the origin
// undoes its feedback, and no member hears of it. Otherwise the locked
// objects are disabled at their instances and the event goes out for
// re-execution under the plan its lock was taken with: each member's outbox
// queues a reference to the shared body and copies it in at flush, so the
// broadcast costs O(1) body encodes regardless of fan-out.
func (s *Server) broadcast(sh *shard, eventID uint64, pe *pendingEvent, err error) {
	se, cl, p, actx := pe.se, pe.from, pe.plan, pe.tc
	pe.se = nil
	if err != nil {
		se.Release()
		s.dropPending(sh, eventID, pe)
		sh.locks.UnlockGroup(p.members, pe.owner)
		s.mLogAppendErrs.Inc()
		s.slog.Warn("event refused: log append failed",
			"event_id", eventID, "inst", string(cl.id), "path", pe.source.Path, "err", err, "trace", actx.Trace)
		cl.out.send(wire.Envelope{
			RefSeq: pe.refSeq,
			Trace:  s.tr.Point(actx, "server.event_result", "server", "refused: log append failed"),
			Msg:    eventUnlogged,
		})
		sh.recycle(pe)
		return
	}
	s.notifyLocks(p, actx, true)
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
		RefSeq: pe.refSeq,
		Trace:  s.tr.Point(actx, "server.event_result", "server", "ok"),
		Msg:    eventAccepted,
	})
	if pe.left == 0 || pe.originLeft {
		// All members belonged to disconnected instances, or the origin left
		// while the event committed.
		s.finishEvent(sh, eventID, pe, false)
		return
	}
	if d := s.opts.EventDeadline; d > 0 {
		// AfterFunc posts back to the owning shard's loop; post refuses after
		// Close, so a late firing is harmless, and if the event migrated the
		// miss-forward in timeoutEvent chases it.
		pe.timer = time.AfterFunc(d, func() {
			s.postShard(sh, func() { s.timeoutEvent(sh, eventID) })
		})
	}
}

// eventAccepted, eventDenied and eventUnlogged are the verdicts an event
// gets, boxed once.
var (
	eventAccepted wire.Message = wire.EventResult{OK: true}
	eventDenied   wire.Message = wire.EventResult{OK: false, Reason: "group locked"}
	eventUnlogged wire.Message = wire.EventResult{OK: false, Reason: "event log append failed"}
)

// logCommit is one event whose record is on the shard's lane: the record's
// number there, and the event's ID.
type logCommit struct{ n, id uint64 }

// commitsDone runs on sh's loop when the writer signals its lane: every
// event whose record the writer is finished with leaves the queue, oldest
// first, and goes on to broadcast with its record's outcome.
func (s *Server) commitsDone(sh *shard) {
	done, durable, err := sh.lane.Committed()
	k := 0
	for ; k < len(sh.commits) && sh.commits[k].n <= done; k++ {
		c := sh.commits[k]
		var cerr error
		if c.n > durable {
			cerr = err
		}
		s.committed(sh, c.id, cerr)
	}
	sh.commits = sh.commits[:copy(sh.commits, sh.commits[k:])]
}

// committed hands event id its record's outcome on sh, where it was born. An
// event that migrated with its group while it committed is chased to its
// owner, the way an ack is.
func (s *Server) committed(sh *shard, id uint64, err error) {
	if pe, ok := sh.pending[id]; ok {
		s.broadcast(sh, id, pe, err)
	} else if to, moved := s.eventOwner(sh, id); moved {
		s.postShard(to, func() { s.committed(to, id, err) })
	}
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
		"event_id", id, "origin", string(pe.source.Instance), "path", pe.source.Path,
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

// ackClock reads the clock once for a coalesced run of acks (dispatch
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
	s.dropPending(sh, id, pe)
	s.unlockEvent(sh, pe, timedOut)
	sh.recycle(pe)
}

// dropPending forgets a resolved event: its wait set, its deadline and the
// forwarding entry of a migrated one.
func (s *Server) dropPending(sh *shard, id uint64, pe *pendingEvent) {
	delete(sh.pending, id)
	if pe.timer != nil {
		pe.timer.Stop()
	}
	if pe.migrated {
		s.router.clearEvent(id)
	}
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
