// The event lock: what an event touches besides the floor (its pending wait
// set, the broadcast plans and the event-ID sequence) sits behind one lock,
// while the replayable state (registry, sessions, couple graph, permissions,
// history) and the client/outbox map stay global, under gmu. The floor
// itself is the server's one lock table: the paper serializes a coupling
// group with the floor lock over CO(o) and nothing else (§3.2), and
// TryLockGroup takes a whole group, all or nothing, under the table's own
// mutex. Events of one group from different sources take the event lock in
// turn and meet at the floor, where all but one are denied.
//
// The event lock is state behind one mutex, not a goroutine, as the global
// state is behind gmu. The read goroutine that decoded an Event or an
// acknowledgement takes it, runs it, lets it go and flushes what it sent;
// the sweeper, gmu holders and the health plane take the same lock for
// their passes.
package server

import (
	"slices"
	"sync"
	"time"

	"cosoft/internal/couple"
	"cosoft/internal/obs"
	"cosoft/internal/wire"
)

// eventLock is the event lock and the event state it guards.
type eventLock struct {
	// serial's mu serializes the event state: its holder owns every field
	// below. The lock order is global → event lock → leaf:
	//   - a gmu holder may take the event lock, but an event-lock holder
	//     never takes gmu;
	//   - under it a holder takes only leaf locks (the lock table's, the
	//     client map's read lock, an outbox's, the couple graph's), and its
	//     one blocking call is the lease Append, once per leaseBlock events
	//     (see logEvent).
	//
	// An unlock queues its SetLocks notices before UnlockGroup releases the
	// group's entries (see unlockEvent), and the next event of the group is
	// granted only under the same lock, so its lock notices and Execs queue
	// behind them on every member's outbox.
	serial

	// seq is the last event ID granted; the next event gets seq+1 (see
	// handleEvent). New starts it at the event-ID floor the log restored.
	// ceiling is the durable lease: with a log, no ID at or above it is
	// granted before a lease record past it is durable.
	seq     uint64
	ceiling uint64
	pending map[uint64]*pendingEvent
	// free holds resolved events, wait sets and all, zeroed for the next
	// events granted (see newPending and recycle).
	free []*pendingEvent
	// plans caches the broadcast plan of every source that dispatched since
	// the couple graph last changed (generation planGen); see planFor.
	plans   map[couple.ObjectRef]*plan
	planGen uint64
}

// serial is one serialization point — the event lock, or the global state
// (Server.gmu) — behind one mutex. Its holder queues what it sends on out,
// and flushes it once it has let the mutex go.
type serial struct {
	mu sync.Mutex
	// since is when the holder took mu (zero when busy time is not counted).
	since  time.Time
	out    outgoing
	mBusy  *obs.Counter // server.event_lock.busy_ns or server.global.busy_ns: time spent holding mu
	mDepth *obs.Gauge   // server.event_lock.queue_depth or server.global.queue_depth: goroutines waiting for mu
}

// lock takes the lock. Only a failed TryLock touches the queue_depth gauge,
// so an uncontended lock costs what the mutex costs; the time held is charged
// to busy_ns (a no-op under obs.Disabled, whose Start never reads the clock).
func (l *serial) lock() {
	if !l.mu.TryLock() {
		l.mDepth.Add(1)
		l.mu.Lock()
		l.mDepth.Add(-1)
	}
	l.since = l.mBusy.Start()
}

// unlock releases the lock and then flushes what the holder sent (see
// outgoing.flush). The holder takes its list with it and leaves the lock an
// empty one from outgoingPool, so the next holder queues while this one
// flushes. Each member's order was fixed when the frames were queued under
// the lock, and an outbox lets one flush have its Conn at a time, so a
// flush that runs behind a later holder's still writes them in that order.
func (l *serial) unlock() {
	if len(l.out) == 0 {
		l.mBusy.AddSince(l.since)
		l.mu.Unlock()
		return
	}
	g := outgoingPool.Get().(*outgoing)
	*g, l.out = l.out, *g
	l.mBusy.AddSince(l.since)
	l.mu.Unlock()
	g.flush()
	outgoingPool.Put(g)
}

// outgoingPool holds the emptied lists of holders that flushed, so a swap
// in unlock reuses one instead of allocating.
var outgoingPool = sync.Pool{New: func() any { return new(outgoing) }}

// outgoing is what one lock holder — of the event lock, or of gmu — sent:
// the clients it queued frames for. The holder flushes their outboxes once
// it has let the lock go, each with one attempt (see outbox.attempt).
type outgoing []*client

// send queues env for cl without waking cl's writer: the holder flushes cl's
// outbox itself once it unlocks.
func (g *outgoing) send(cl *client, env wire.Envelope) {
	cl.out.enqueue(wire.Outgoing{Env: env})
	g.touch(cl)
}

// sendShared queues one member's frame of an encode-once broadcast the way
// send queues a frame: env carries the correlation numbers and trace context
// (its Msg stays nil — the Exec is never materialized on the hot path),
// target the member's path, se the shared body suffix. The outbox takes its
// own reference — the caller must still hold one, and releases it when done
// enqueueing.
func (g *outgoing) sendShared(cl *client, env wire.Envelope, target string, se *wire.SharedExec) {
	cl.out.enqueue(wire.Outgoing{Env: env, Shared: se, Target: target})
	g.touch(cl)
}

// touch lists cl among the clients the holder sent to, once. An event sends
// to its group and a control-plane message to a group or, for a sweep or a
// broadcast command, to every client once, so the scan stays cheap at the
// scale a server serves (hundreds of clients).
func (g *outgoing) touch(cl *client) {
	if !slices.Contains(*g, cl) {
		*g = append(*g, cl)
	}
}

// flush flushes the outbox of every client the holder sent to: it writes
// each with one attempt, or wakes its writer (see outbox.attempt). A socket
// that did not take its attempt whole counts as a push-back against the
// member (server.member.pushbacks).
func (g *outgoing) flush() {
	for _, cl := range *g {
		if cl.out.attempt() && cl.health != nil {
			cl.health.Counter(memberPushbacks).Inc()
		}
	}
	clear(*g)
	*g = (*g)[:0]
}

// eventReq is one Event as its origin's connection read it: its Path and
// Name in m, and its Name and Args as the origin encoded them in body, the
// relay body sealed with the source ref. The request owns body until
// handleEvent grants the event or releases it.
type eventReq struct {
	cl   *client
	seq  uint64
	m    wire.Event
	body *wire.SharedExec
	tc   obs.TraceContext // the origin's send span
}

// execAck is one member's acknowledgement of one Exec.
type execAck struct {
	cl      *client
	eventID uint64
	tc      obs.TraceContext // the member's apply span
	// now is the ack clock read once for a coalesced run (see ackClock); zero
	// means ackExec reads the clock itself if attribution needs it.
	now time.Time
}

// dispatch runs one record on the connection's read goroutine: Event, ExecAck
// and BatchAck traffic under the event lock, an Event or an ExecAck by value
// as the record holds it; everything else (coupling, copies, commands,
// permissions) under gmu. An Event's relay body is sealed with its source ref
// here and travels with the request. It reports false once the server is
// closing.
func (s *Server) dispatch(cl *client, rec *wire.Record) bool {
	switch rec.Type {
	case wire.TEvent:
		s.recordRecv(cl, rec)
		rec.Relay.Seal(couple.ObjectRef{Instance: cl.id, Path: rec.Event.Path})
		s.ev.lock()
		s.handleEvent(eventReq{cl: cl, seq: rec.Seq, m: rec.Event, body: rec.Relay, tc: rec.Trace})
		s.ev.unlock()
		return true
	case wire.TExecAck:
		s.recordRecv(cl, rec)
		s.ev.lock()
		s.ackExec(execAck{cl: cl, eventID: rec.ExecAck.EventID, tc: rec.Trace})
		s.ev.unlock()
		return true
	case wire.TBatchAck:
		// Each entry resolves in entry order — identical to the same
		// ExecAcks arriving singly.
		s.recordRecv(cl, rec)
		acks := rec.Msg.(wire.BatchAck).Acks
		s.mAcksCoalesced.Add(uint64(len(acks)))
		now := s.ackClock()
		s.ev.lock()
		for _, a := range acks {
			s.ackExec(execAck{cl: cl, eventID: a.EventID, tc: a.Trace, now: now})
		}
		s.ev.unlock()
		return true
	case wire.TPong:
		// A liveness reply: the read loop already refreshed lastSeen.
		s.recordRecv(cl, rec)
		return true
	}
	env := rec.Box()
	s.gmu.lock()
	defer s.gmu.unlock()
	if s.closing {
		return false
	}
	s.recordFlight(cl, "recv", env)
	s.handle(cl, env)
	return true
}

// recordRecv logs a record the read loop runs under the event lock, boxing
// it only when the flight recorder is on.
func (s *Server) recordRecv(cl *client, rec *wire.Record) {
	if s.flight != nil {
		s.recordFlight(cl, "recv", rec.Box())
	}
}
