// Sharded group state: what an event touches (the lock table, the
// pending-event wait sets, the broadcast plans and the event-ID sequence) is
// partitioned across N shards, routed by coupling group, while the
// replayable state (registry, sessions, couple graph, permissions, history)
// and the client/outbox map stay global, under gmu. The paper's floor lock
// makes the coupling group the natural unit of serialization (§3.2): events
// of one group must serialize against each other, but events of disjoint
// groups never share state, so they can run side by side.
//
// A shard is its state behind one mutex, not a goroutine, as the global state
// is behind gmu. The read goroutine that decoded an Event or an
// acknowledgement takes its shard's lock, runs it, flushes what it sent and
// unlocks; the sweeper, gmu holders and the health plane take the same lock
// for their passes. Every server has this topology: one global lock, N ≥ 1
// shards and a router. With N = 1 every ref hashes to shard 0 and nothing
// ever migrates.
//
// When a new couple link joins two groups living on different shards, the
// smaller group migrates to the larger one's shard before the link is
// installed, in one step under gmu: it locks both shards in index order,
// moves the group's pending events and the locks those events hold, flips
// the routes and the router entries, and unlocks. No holder of either lock
// ever sees the group half-moved. An Event whose group moved while its
// read goroutine waited finds the route changed under the lock and follows
// it; an acknowledgement of a migrated event follows its router entry.
//
// Locks follow their event: a lock entry lives in the table of the shard its
// owning pending event lives on, and is released there when the event
// resolves. The migration moves the two together and nothing else moves
// either, so there is never a lock without a live pending event behind it. A
// member that was decoupled from the event's group and coupled across shards
// while the event waited for acks leaves its lock entry behind with the
// event; its new group starts unlocked on the receiving shard.
package server

import (
	"hash/fnv"
	"slices"
	"sync"
	"time"

	"cosoft/internal/couple"
	"cosoft/internal/lock"
	"cosoft/internal/obs"
	"cosoft/internal/wire"
)

// shard owns the group-scoped state of the coupling groups routed to it.
type shard struct {
	// serial's mu serializes the shard: its holder owns every field below.
	// The lock order is global → shard → leaf:
	//   - a gmu holder may take shard locks, but a shard-lock holder never
	//     takes gmu;
	//   - a goroutine holds one shard lock at a time, except the migration
	//     (two) and CheckInvariants (all), which take them in index order;
	//   - an Event whose group moved and an ack chasing a migrated event are
	//     run again by their read goroutine after it unlocks;
	//   - under it a holder takes only leaf locks (routes, router, the client
	//     map's read lock, an outbox's, a lock table's, the couple graph's),
	//     and its one blocking call is the lease Append, once per leaseBlock
	//     of the shard's events (see logEvent).
	serial
	idx int

	// seq counts the events granted on the shard; the next one gets the ID
	// seq·N + idx + 1 (see handleEvent). New starts it past the event-ID
	// floor the log restored. ceiling is the shard's durable lease: with a
	// log, no ID at or above it is granted before a lease record past it is
	// durable.
	seq     uint64
	ceiling uint64
	locks   *lock.Table
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

// routes places refs on shards. It is read from connection read loops, so it
// carries its own lock.
type routes struct {
	mu sync.RWMutex
	n  int
	// obj holds explicit overrides created by migrations. Refs without one
	// route by hash, so the map stays small: only groups that crossed a shard
	// boundary since start-up are listed.
	obj map[couple.ObjectRef]int
}

// hashRef is the default ref→shard placement (FNV-1a over the global object
// name). All members of a group must agree on a shard; migrations record
// overrides when coupling breaks the hash placement.
func hashRef(ref couple.ObjectRef) uint32 {
	h := fnv.New32a()
	h.Write([]byte(ref.Instance))
	h.Write([]byte{0})
	h.Write([]byte(ref.Path))
	return h.Sum32()
}

func (r *routes) shard(ref couple.ObjectRef) int {
	r.mu.RLock()
	i, ok := r.obj[ref]
	r.mu.RUnlock()
	if ok {
		return i
	}
	return int(hashRef(ref) % uint32(r.n))
}

func (r *routes) set(refs []couple.ObjectRef, idx int) {
	r.mu.Lock()
	for _, ref := range refs {
		if int(hashRef(ref)%uint32(r.n)) == idx {
			delete(r.obj, ref) // override would restate the hash
		} else {
			r.obj[ref] = idx
		}
	}
	r.mu.Unlock()
}

func (r *routes) dropRef(ref couple.ObjectRef) {
	r.mu.Lock()
	delete(r.obj, ref)
	r.mu.Unlock()
}

func (r *routes) dropInstance(id couple.InstanceID) {
	r.mu.Lock()
	for ref := range r.obj {
		if ref.Instance == id {
			delete(r.obj, ref)
		}
	}
	r.mu.Unlock()
}

// router forwards the acks of migrated pending events from their birth
// shard (encoded in the event ID) to their current shard. Entries exist only
// while a migrated event is pending. It is read from connection read loops,
// so it carries its own lock.
type router struct {
	mu sync.RWMutex
	ev map[uint64]int
}

func (r *router) setEventRoutes(ids []uint64, idx int) {
	r.mu.Lock()
	for _, id := range ids {
		r.ev[id] = idx
	}
	r.mu.Unlock()
}

func (r *router) eventShard(id uint64) (int, bool) {
	r.mu.RLock()
	i, ok := r.ev[id]
	r.mu.RUnlock()
	return i, ok
}

func (r *router) clearEvent(id uint64) {
	r.mu.Lock()
	delete(r.ev, id)
	r.mu.Unlock()
}

// shardForRef returns the shard owning ref's coupling group.
func (s *Server) shardForRef(ref couple.ObjectRef) *shard {
	return s.shards[s.routes.shard(ref)]
}

// birthShard decodes the shard an event ID was allocated on.
func (s *Server) birthShard(eventID uint64) *shard {
	return s.shards[int((eventID-1)%uint64(len(s.shards)))]
}

// runEvent runs ev under the lock of the shard owning its group, starting at
// sh, where the read goroutine routed it. A migration may move the group
// while the goroutine waits for the lock, so the route is read again under
// it, and the event follows the group after unlocking.
func (s *Server) runEvent(sh *shard, ev eventReq) {
	source := couple.ObjectRef{Instance: ev.cl.id, Path: ev.m.Path}
	for {
		sh.lock()
		own := s.shardForRef(source)
		if own == sh {
			s.handleEvent(sh, ev)
			sh.unlock()
			return
		}
		sh.unlock()
		sh = own
	}
}

// runAck resolves one acknowledgement under the lock of its event's birth
// shard, following the event to wherever a migration moved it.
func (s *Server) runAck(a execAck) {
	for sh := s.birthShard(a.eventID); sh != nil; {
		sh.lock()
		next := s.ackExec(sh, a)
		sh.unlock()
		sh = next
	}
}

// mergeShards co-locates the two groups a new couple link is about to merge:
// every member of one coupling group lives on one shard, so when the two sit
// on different shards the smaller group moves to the larger one's (ties keep
// the from side in place). Its caller holds gmu, and calls it before the
// link is committed.
func (s *Server) mergeShards(gFrom, gTo []couple.ObjectRef) {
	from, to := s.routes.shard(gFrom[0]), s.routes.shard(gTo[0])
	switch {
	case from == to:
	case len(gTo) > len(gFrom):
		s.migrateGroup(s.shards[from], s.shards[to], gFrom)
	default:
		s.migrateGroup(s.shards[to], s.shards[from], gTo)
	}
}

// migrateGroup moves the group made of refs from one shard to another in one
// step: it holds both shards' locks, taken in index order, while the group's
// pending events and their locks move and the routes flip. Its caller holds
// gmu.
func (s *Server) migrateGroup(from, to *shard, refs []couple.ObjectRef) {
	s.mHandoffs.Inc()
	first, second := from, to
	if to.idx < from.idx {
		first, second = to, from
	}
	first.lock()
	second.lock()
	s.routes.set(refs, to.idx)
	s.moveEvents(from, to, refs)
	second.unlock()
	first.unlock()
}

// moveEvents moves from → to the pending events whose source is among refs
// and the locks those events hold, and points their router entries at to.
// Locks move by owning event, never by ref: a lock whose event stays (its
// member left the group while it waited) stays too, or the event's unlock on
// from could not find it. Its caller holds both shards' locks.
func (s *Server) moveEvents(from, to *shard, refs []couple.ObjectRef) {
	refset := make(map[couple.ObjectRef]bool, len(refs))
	for _, ref := range refs {
		refset[ref] = true
	}
	owners := make(map[lock.Owner]bool)
	var ids []uint64
	for id, pe := range from.pending {
		if refset[pe.source] {
			delete(from.pending, id)
			pe.migrated = true
			to.pending[id] = pe
			owners[pe.owner] = true
			ids = append(ids, id)
		}
	}
	to.locks.Install(from.locks.Extract(owners))
	s.router.setEventRoutes(ids, to.idx)
}

// dispatch runs one record on the connection's read goroutine: Event, ExecAck
// and BatchAck traffic under the owning shard's lock, an Event or an ExecAck
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
		s.runEvent(s.shardForRef(source), eventReq{cl: cl, seq: rec.Seq, m: rec.Event, body: rec.Relay, tc: rec.Trace})
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

// recordRecv logs a record the read loop hands to a shard, boxing it only
// when the flight recorder is on.
func (s *Server) recordRecv(cl *client, rec *wire.Record) {
	if s.flight != nil {
		s.recordFlight(cl, "recv", rec.Box())
	}
}
