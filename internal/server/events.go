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
// unlocked when the processing of this event is completed", §3.2). A state
// transfer is one too, whose one member is its receiver (see xfer.go): acks,
// departures, the deadline and the unlock resolve both alike.
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
	// expires is when the event deadline passes; the sweep's expiry pass
	// times the event out after it.
	expires time.Time
	// xfer is set on a state transfer: whom to answer once it resolves.
	xfer *transfer
}

const (
	// maxFreePending bounds the free list of resolved events. At most one
	// event is pending per group, so a few dozen cover the groups that
	// dispatch at once.
	maxFreePending = 64
	// maxFreeWaitSet is the largest wait set, in instances, a recycled event
	// keeps, so one huge group does not pin its wait set.
	maxFreeWaitSet = 1024
)

// newPending takes an event off the free list, or makes one, with a wait set
// of n instances. Every field is zero and every count in the wait set too:
// recycle zeroes an event when it takes it back.
func (e *eventLock) newPending(n int) *pendingEvent {
	k := len(e.free)
	if k == 0 {
		return &pendingEvent{waiting: make([]int, n)}
	}
	pe := e.free[k-1]
	e.free[k-1] = nil
	e.free = e.free[:k-1]
	if cap(pe.waiting) < n {
		pe.waiting = make([]int, n)
	} else {
		pe.waiting = pe.waiting[:n]
	}
	return pe
}

// recycle takes back a resolved event, one no pending map can reach any
// more, and zeroes it for newPending. Only the wait set's array survives,
// cleared: every count beyond its length already is zero, since each event
// writes only within its own wait set.
func (e *eventLock) recycle(pe *pendingEvent) {
	if len(e.free) == maxFreePending || cap(pe.waiting) > maxFreeWaitSet {
		return
	}
	clear(pe.waiting)
	*pe = pendingEvent{waiting: pe.waiting[:0]}
	e.free = append(e.free, pe)
}

// handleEvent implements the multiple-execution algorithm of §3.2. The
// originating client has already applied the event's built-in feedback
// locally; the server locks CO(o), broadcasts Exec to every coupled member,
// and tells the origin whether to keep or undo its feedback. It runs under
// the event lock (see dispatch).
//
// req.tc is the trace context the Event envelope carried (the origin's
// "client.event_send" span); every hop recorded here descends from it.
// req.body, the origin's payload sealed with the source ref, becomes the
// broadcast's shared body if the event is granted; every other outcome
// releases it.
func (s *Server) handleEvent(req eventReq) {
	cl, seq, m, tc := req.cl, req.seq, &req.m, req.tc
	source := couple.ObjectRef{Instance: cl.id, Path: m.Path}
	s.mEvents.Inc()
	start := s.mEventRTT.Start()
	arrival := s.tr.StartSpan(tc, "server.event_arrival", "server")
	if arrival.Active() {
		arrival.SetNote(m.Path + " " + m.Name)
	}
	actx := arrival.Context()
	p := s.planFor(source)
	if p == nil {
		// Uncoupled object: nothing to synchronize; the local feedback
		// stands.
		req.body.Release()
		s.ev.out.send(cl, wire.Envelope{
			RefSeq: seq,
			Trace:  s.tr.Point(actx, "server.event_result", "server", "ok uncoupled"),
			Msg:    eventAccepted,
		})
		arrival.EndNote("uncoupled")
		return
	}

	// The sequence counts granted events only: a denied event's ID is never
	// sent or logged, and the next event reuses it.
	eventID := s.ev.seq + 1
	owner := lock.Owner{Instance: cl.id, Seq: eventID}
	if verdict := s.lockGroup(actx, p.members, owner); verdict != nil {
		// Lock failed: the origin must undo the event's syntactic feedback.
		req.body.Release()
		reason := verdict.(wire.EventResult).Reason
		s.slog.Debug("event denied: "+reason,
			"inst", string(cl.id), "path", m.Path, "event", m.Name, "trace", tc.Trace)
		s.ev.out.send(cl, wire.Envelope{
			RefSeq: seq,
			Trace:  s.tr.Point(actx, "server.event_result", "server", "denied: "+reason),
			Msg:    verdict,
		})
		arrival.EndNote("lock denied")
		return
	}

	// The event is granted: the group lock is held. The relay body already
	// is the member-independent suffix of the Exec body (Name, Args, Origin);
	// stamped with the event ID it is the broadcast's shared body, which both
	// the log record and every member's frame copy in. A log that refuses the
	// event's lease or record refuses the event: it unlocks, the origin undoes
	// its feedback, no member hears of it, and its ID stays unused.
	req.body.Stamp(eventID)
	if err := s.logEvent(eventID, source, req.body); err != nil {
		req.body.Release()
		s.locks.UnlockGroup(p.members, owner)
		s.mLogAppendErrs.Inc()
		s.slog.Warn("event refused: log append failed",
			"event_id", eventID, "inst", string(cl.id), "path", m.Path, "err", err, "trace", tc.Trace)
		s.ev.out.send(cl, wire.Envelope{
			RefSeq: seq,
			Trace:  s.tr.Point(actx, "server.event_result", "server", "refused: log append failed"),
			Msg:    eventUnlogged,
		})
		arrival.EndNote("log append failed")
		return
	}
	s.ev.seq = eventID
	pe := s.ev.newPending(len(p.insts))
	pe.source, pe.plan, pe.owner, pe.start, pe.tc = source, p, owner, start, actx
	pe.expires = s.opts.Clock.Now().Add(eventDeadline)
	s.ev.pending[eventID] = pe
	s.broadcast(pe, req.body)
	s.ev.out.send(cl, wire.Envelope{
		RefSeq: seq,
		Trace:  s.tr.Point(actx, "server.event_result", "server", "ok"),
		Msg:    eventAccepted,
	})
	arrival.End()
	if pe.left == 0 {
		// All members belonged to disconnected instances.
		s.finishEvent(eventID, pe, false)
	}
}

// leaseBlock is how many event IDs one lease covers, so the event lock waits
// on the log once per leaseBlock events.
const leaseBlock = 1 << 16

// logEvent makes sure event id can never be issued again (see lease) and
// queues its record. The record is an audit entry: AppendEvent queues it,
// and only an immediate refusal (the log is closed or failed) comes back.
func (s *Server) logEvent(id uint64, src couple.ObjectRef, se *wire.SharedExec) error {
	if err := s.lease(id); err != nil || s.elog == nil {
		return err
	}
	return s.elog.AppendEvent(src, se)
}

// lease makes sure ID id, an event's or a state transfer's, can never be
// issued again. An ID at or above the ceiling first takes a lease: a
// KindLease record naming a ceiling leaseBlock IDs further on, appended with
// the blocking Append, so it is durable per the sync policy before the ID
// goes out. A restart starts above the highest ceiling it replays, whatever
// became of the records behind it. Without a log there is nothing to do.
func (s *Server) lease(id uint64) error {
	if s.elog == nil || id < s.ev.ceiling {
		return nil
	}
	ceiling := id + leaseBlock
	if err := s.elog.Append(eventlog.Record{Kind: eventlog.KindLease, Env: wire.Envelope{Msg: wire.Exec{EventID: ceiling}}}); err != nil {
		return err
	}
	s.ev.ceiling = ceiling
	return nil
}

// broadcast sends a granted event out for re-execution under the plan its
// lock was taken with: the locked objects are disabled at their instances,
// and each member's outbox queues a reference to the shared body se and
// copies it in at flush, so the broadcast costs O(1) body encodes regardless
// of fan-out. It fills the event's wait set and gives up the caller's
// reference to se.
func (s *Server) broadcast(pe *pendingEvent, se *wire.SharedExec) {
	p, actx := pe.plan, pe.tc
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
			s.ev.out.sendShared(target, wire.Envelope{Trace: execTC}, path, se)
		}
		pe.waiting[i] = len(pi.paths)
		pe.left++
		fanout += len(pi.paths)
	}
	se.Release()
	s.mExecsSent.Add(uint64(fanout))
	s.mFanout.Observe(int64(fanout))
}

// eventAccepted, eventDenied, eventResuming and eventUnlogged are the
// verdicts an event gets, boxed once.
var (
	eventAccepted wire.Message = wire.EventResult{OK: true}
	eventDenied   wire.Message = wire.EventResult{OK: false, Reason: "group locked"}
	eventResuming wire.Message = wire.EventResult{OK: false, Reason: "a member is resuming"}
	eventUnlogged wire.Message = wire.EventResult{OK: false, Reason: "event log append failed"}
)

// expireEvents is the sweep's expiry pass: under the event lock, every
// pending event whose deadline has passed times out, and so does every
// transfer but one whose history record is being committed (see landTransfer).
func (s *Server) expireEvents() {
	now := s.opts.Clock.Now()
	s.ev.lock()
	for id, pe := range s.ev.pending {
		if now.After(pe.expires) && (pe.xfer == nil || !pe.xfer.committing) {
			s.timeoutEvent(id, pe)
		}
	}
	s.ev.unlock()
}

// timeoutEvent resolves an event whose deadline expired before every member
// acknowledged: the stragglers are dropped from the wait set and the group
// unlocks, so one hung member cannot wedge the whole coupling group.
func (s *Server) timeoutEvent(id uint64, pe *pendingEvent) {
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
	s.finishEvent(id, pe, true)
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
	// Wall time, not Options.Clock: it is compared against pe.start, which
	// the obs histogram's Start read off the wall clock.
	return time.Now()
}

// ackExec is the ack-resolution core: decrement the acking instance's
// outstanding count for the event and unlock the group when the wait set
// empties. It runs under the event lock. The hit path allocates nothing: the
// request arrived by value and nothing here captures it.
func (s *Server) ackExec(a execAck) {
	pe, ok := s.ev.pending[a.eventID]
	if !ok {
		return // stale ack: the event already resolved by a deadline or disconnect
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
			now = time.Now() // wall time, like pe.start (see ackClock)
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
		s.finishEvent(a.eventID, pe, false)
	}
}

func (s *Server) finishEvent(id uint64, pe *pendingEvent, timedOut bool) {
	delete(s.ev.pending, id)
	s.unlockEvent(pe, timedOut)
	s.ev.recycle(pe)
}

// unlockEvent re-enables the event's group at its members, then releases its
// floor. The next event of the group is granted after UnlockGroup returns,
// under the same event lock, so its lock notices and Execs land behind these
// unlock notices on every member's outbox.
func (s *Server) unlockEvent(pe *pendingEvent, timedOut bool) {
	if pe.xfer != nil {
		s.locks.UnlockGroup(pe.plan.members, pe.owner)
		s.answerTransfer(pe, timedOut)
		return
	}
	s.tr.Point(pe.tc, "server.unlock", "server", "")
	s.notifyLocks(pe.plan, pe.tc, false)
	s.locks.UnlockGroup(pe.plan.members, pe.owner)
	// Deadline-resolved events waited the full deadline by construction;
	// folding them into the round-trip histogram would inject an outlier
	// equal to the deadline per expiry, so they get their own histogram.
	if timedOut {
		s.mEventTOWait.ObserveSince(pe.start)
	} else {
		s.mEventRTT.ObserveSince(pe.start)
	}
}
