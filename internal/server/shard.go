// Sharded event state: what an event touches besides the floor (its pending
// wait set, the broadcast plans and the event-ID sequence) is striped across
// N shards, while the replayable state (registry, sessions, couple graph,
// permissions, history) and the client/outbox map stay global, under gmu.
// The floor itself is the server's one lock table, shared by every shard:
// the paper serializes a coupling group with the floor lock over CO(o) and
// nothing else (§3.2), and TryLockGroup takes a whole group, all or
// nothing, under the table's own mutex. So a group needs no home shard: an
// Event runs on the shard its source ref hashes to, an acknowledgement on
// its event's birth shard, and nothing ever moves. Events of one group from
// different sources run side by side up to the floor, where all but one are
// denied.
//
// A shard is its state behind one mutex, not a goroutine, as the global state
// is behind gmu. The read goroutine that decoded an Event or an
// acknowledgement takes its shard's lock, runs it, flushes what it sent and
// unlocks; the sweeper, gmu holders and the health plane take the same lock
// for their passes. With N = 1 every ref hashes to shard 0.
package server

import (
	"hash/fnv"
	"slices"
	"sync"
	"time"

	"cosoft/internal/couple"
	"cosoft/internal/obs"
	"cosoft/internal/wire"
)

// shard owns the events of the sources that hash to it.
type shard struct {
	// serial's mu serializes the shard: its holder owns every field below.
	// The lock order is global → shard → leaf:
	//   - a gmu holder may take shard locks, but a shard-lock holder never
	//     takes gmu;
	//   - a goroutine holds one shard lock at a time, except CheckInvariants,
	//     which takes them all in index order;
	//   - under it a holder takes only leaf locks (the lock table's, the
	//     client map's read lock, an outbox's, the couple graph's), and its
	//     one blocking call is the lease Append, once per leaseBlock of the
	//     shard's events (see logEvent).
	//
	// The floor serializes a group across shards under one ordering rule: an
	// event's unlock queues its SetLocks notices before UnlockGroup releases
	// its entries (see unlockEvent). Otherwise an event of the same group,
	// granted on another shard the moment the entries go, could queue its
	// lock notices and Execs on a member's outbox ahead of them.
	serial
	idx int

	// seq counts the events granted on the shard; the next one gets the ID
	// seq·N + idx + 1 (see handleEvent). New starts it past the event-ID
	// floor the log restored. ceiling is the shard's durable lease: with a
	// log, no ID at or above it is granted before a lease record past it is
	// durable.
	seq     uint64
	ceiling uint64
	pending map[uint64]*pendingEvent
	// free holds events resolved here, wait sets and all, zeroed for the
	// next events granted here (see newPending and recycle).
	free []*pendingEvent
	// plans caches the broadcast plan of every source that dispatched since
	// the couple graph last changed (generation planGen); see planFor.
	plans   map[couple.ObjectRef]*plan
	planGen uint64

	mEvents *obs.Counter // per-shard event counter (server.shard.<idx>.events)
}

// serial is one serialization point — a shard's state, or the global state
// (Server.gmu) — behind one mutex. Its holder queues what it sends on out and
// flushes it before it unlocks.
type serial struct {
	mu sync.Mutex
	// since is when the holder took mu (zero when busy time is not counted).
	since  time.Time
	out    outgoing
	mBusy  *obs.Counter // server.shard.<idx>.busy_ns or server.global.busy_ns: time spent holding mu
	mDepth *obs.Gauge   // server.shard.<idx>.queue_depth or server.global.queue_depth: goroutines waiting for mu
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

// unlock flushes what the holder sent (see outgoing.flush) and releases the
// lock.
func (l *serial) unlock() {
	l.out.flush()
	l.mBusy.AddSince(l.since)
	l.mu.Unlock()
}

// outgoing is what one lock holder — of a shard, or of gmu — sent: the
// clients it queued frames for. The holder flushes their outboxes before it
// unlocks, each with one attempt (see outbox.attempt).
type outgoing []*client

// send queues env for cl without waking cl's writer: the holder flushes cl's
// outbox itself before it unlocks.
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

// hashRef places a source ref on a shard (FNV-1a over the global object
// name): its events run there.
func hashRef(ref couple.ObjectRef) uint32 {
	h := fnv.New32a()
	h.Write([]byte(ref.Instance))
	h.Write([]byte{0})
	h.Write([]byte(ref.Path))
	return h.Sum32()
}

// shardForRef returns the shard the events of source ref run on.
func (s *Server) shardForRef(ref couple.ObjectRef) *shard {
	return s.shards[hashRef(ref)%uint32(len(s.shards))]
}

// birthShard decodes the shard an event ID was allocated on: the shard its
// event is pending on, and its acknowledgements resolve on.
func (s *Server) birthShard(eventID uint64) *shard {
	return s.shards[int((eventID-1)%uint64(len(s.shards)))]
}

// dispatch runs one record on the connection's read goroutine: Event, ExecAck
// and BatchAck traffic under a shard's lock, an Event or an ExecAck
// by value as the record holds it; everything else (coupling, copies,
// commands, permissions) under gmu. An Event's relay body is
// sealed with its source ref here and travels with the request. It reports
// false once the server is closing.
func (s *Server) dispatch(cl *client, rec *wire.Record) bool {
	switch rec.Type {
	case wire.TEvent:
		s.recordRecv(cl, rec)
		source := couple.ObjectRef{Instance: cl.id, Path: rec.Event.Path}
		rec.Relay.Seal(source)
		sh := s.shardForRef(source)
		sh.lock()
		s.handleEvent(sh, eventReq{cl: cl, seq: rec.Seq, m: rec.Event, body: rec.Relay, tc: rec.Trace})
		sh.unlock()
		return true
	case wire.TExecAck:
		s.recordRecv(cl, rec)
		s.runAck(execAck{cl: cl, eventID: rec.ExecAck.EventID, tc: rec.Trace})
		return true
	case wire.TBatchAck:
		// Each entry resolves in entry order — identical to the same
		// ExecAcks arriving singly.
		s.recordRecv(cl, rec)
		acks := rec.Msg.(wire.BatchAck).Acks
		s.mAcksCoalesced.Add(uint64(len(acks)))
		now := s.ackClock()
		for _, a := range acks {
			s.runAck(execAck{cl: cl, eventID: a.EventID, tc: a.Trace, now: now})
		}
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

// runAck resolves one acknowledgement under the lock of its event's birth
// shard.
func (s *Server) runAck(a execAck) {
	sh := s.birthShard(a.eventID)
	sh.lock()
	s.ackExec(sh, a)
	sh.unlock()
}

// recordRecv logs a record the read loop hands to a shard, boxing it only
// when the flight recorder is on.
func (s *Server) recordRecv(cl *client, rec *wire.Record) {
	if s.flight != nil {
		s.recordFlight(cl, "recv", rec.Box())
	}
}
