// Sharded state loops: what an event touches (the lock table, the
// pending-event wait sets, the broadcast plans and the event-ID sequence) is
// partitioned across N shard loops, routed by coupling group, while the
// replayable state (registry, sessions, couple graph, permissions, history)
// and the client/outbox map stay on the global loop. The
// paper's floor lock makes the coupling group the natural unit of
// serialization (§3.2): events of one group must serialize against each
// other, but events of disjoint groups never share state, so they can run on
// different loops.
//
// Every server has this topology: one global loop, N ≥ 1 shard loops and a
// router. With N = 1 every ref hashes to shard 0 and nothing ever migrates.
//
// Cross-shard operations are explicit two-shard handoffs. When a new couple
// link joins two groups living on different shards, the smaller group
// migrates to the larger one's shard before the link is installed:
//
//  1. The global loop queues a hold marker on the receiving shard. Running
//     the marker arms the migration's own install channel (shard.awaiting);
//     every request dequeued while it is armed is parked. Requests routed
//     there after the route flip necessarily land behind the marker.
//  2. The routes of the migrating refs flip to the receiving shard.
//  3. The donor shard extracts the group's pending events (those whose
//     source is a migrating ref) and the locks those events hold —
//     everything queued ahead of the extraction still ran against the full
//     state — and sends the bundle on the migration's channel.
//  4. The receiver installs the bundle, disarms, and replays the parked
//     requests in arrival order.
//
// The receiver listens on the install channel only after it has run the
// marker (a nil channel is never ready), so an install cannot overtake its
// marker whatever the scheduler does.
//
// Locks follow their event: a lock entry lives in the table of the shard its
// owning pending event lives on, and is released there when the event
// resolves. Step 3 moves the two together and nothing else moves either, so
// there is never a lock without a live pending event behind it. A member that
// was decoupled from the event's group and coupled across shards while the
// event waited for acks leaves its lock entry behind with the event; its new
// group starts unlocked on the receiving shard.
//
// No loop ever blocks waiting for another loop: the receiver keeps draining
// its queue (into the parked list) while armed, the install channel is
// buffered, and the global loop's wait for the install is the only
// synchronous edge — shards never wait on the global loop, so the wait graph
// stays acyclic. A shard waits on the event log only to lease event IDs,
// once per leaseBlock of its events (see handleEvent); an event's own record
// is queued behind it and never waited for.
package server

import (
	"hash/fnv"
	"sync"
	"time"

	"cosoft/internal/couple"
	"cosoft/internal/lock"
	"cosoft/internal/obs"
	"cosoft/internal/wire"
)

// shard owns the group-scoped state of the coupling groups routed to it. The
// awaiting/held fields are loop-local: only the owning loop goroutine touches
// them.
type shard struct {
	idx  int
	reqs chan shardReq
	// awaiting is the install channel of the migration this shard is parked
	// behind; nil otherwise. One migration is in flight at a time (the global
	// loop serializes them and waits for the install).
	awaiting chan migrated
	held     []shardReq // requests parked while awaiting, in arrival order

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
	// touched lists the clients the loop queued frames for while running its
	// current request; their outboxes are flushed once it is done (see
	// flushTouched).
	touched []*client

	mEvents *obs.Counter // per-shard event counter (server.shard.<idx>.events)
	mBusy   *obs.Counter // server.shard.<idx>.busy_ns: time spent executing closures
	mDepth  *obs.Gauge   // server.shard.<idx>.queue_depth: inbox depth, sampled per dequeue
}

// shardReq is one request to a shard loop: a closure, or — for the requests
// every event brings, its arrival and one acknowledgement per member — an
// Event or an Exec acknowledgement carried by value, so neither allocates a
// closure to reach the loop.
type shardReq struct {
	fn    func()
	event eventReq // the request when fn is nil and event.cl is set
	ack   execAck  // the request otherwise
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

// migrated is the state bundle of one cross-shard group migration.
type migrated struct {
	locks  map[couple.ObjectRef]lock.Owner
	events map[uint64]*pendingEvent
	done   chan struct{} // closed by the receiver once installed
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

// drop gives back what a request that will never run owns: an event's relay
// body.
func (req *shardReq) drop() {
	if req.event.body != nil {
		req.event.body.Release()
	}
}

// shardForRef returns the shard owning ref's coupling group.
func (s *Server) shardForRef(ref couple.ObjectRef) *shard {
	return s.shards[s.routes.shard(ref)]
}

// birthShard decodes the shard an event ID was allocated on.
func (s *Server) birthShard(eventID uint64) *shard {
	return s.shards[int((eventID-1)%uint64(len(s.shards)))]
}

// postShard schedules fn on sh's loop. It reports false after Close.
func (s *Server) postShard(sh *shard, fn func()) bool {
	return s.postShardReq(sh, shardReq{fn: fn})
}

// postAck queues one Exec acknowledgement on sh's loop.
func (s *Server) postAck(sh *shard, a execAck) bool {
	return s.postShardReq(sh, shardReq{ack: a})
}

func (s *Server) postShardReq(sh *shard, req shardReq) bool {
	select {
	case <-s.quit:
		return false
	default:
	}
	select {
	case sh.reqs <- req:
		return true
	case <-s.quit:
		return false
	}
}

// shardLoop runs one shard's requests. While a migration into this shard is
// in flight, requests are parked rather than run, and replayed in order once
// the migrated state is installed — the loop itself never blocks, which keeps
// the cross-loop wait graph acyclic.
//
// Each dequeue samples the inbox depth and brackets the work with busy-time
// accounting (server.shard.<i>.busy_ns / .queue_depth); the Gauge's
// high-water mark doubles as the worst backlog ever seen. Both are no-ops
// under obs.Disabled, whose Start never reads the clock.
func (s *Server) shardLoop(sh *shard) {
	defer s.wg.Done()
	for {
		select {
		case req := <-sh.reqs:
			sh.mDepth.Set(int64(len(sh.reqs)))
			t0 := sh.mBusy.Start()
			s.runShard(sh, req)
			sh.mBusy.AddSince(t0)
		case m := <-sh.awaiting:
			t0 := sh.mBusy.Start()
			s.install(sh, m)
			sh.mBusy.AddSince(t0)
		case <-s.quit:
			for {
				select {
				case req := <-sh.reqs:
					s.runShard(sh, req)
				case m := <-sh.awaiting:
					s.install(sh, m)
				default:
					return
				}
			}
		}
	}
}

// send queues env for cl from sh's loop without waking cl's writer: the loop
// flushes cl's outbox itself once the request it is running is done.
func (sh *shard) send(cl *client, env wire.Envelope) {
	cl.out.enqueue(wire.Outgoing{Env: env}, false)
	sh.touch(cl)
}

// sendShared queues one member's frame of an encode-once broadcast the way
// send queues a frame: env carries the correlation numbers and trace context
// (its Msg stays nil — the Exec is never materialized on the hot path),
// target the member's path, se the shared body suffix. The outbox takes its
// own reference — the caller must still hold one, and releases it when done
// enqueueing.
func (sh *shard) sendShared(cl *client, env wire.Envelope, target string, se *wire.SharedExec) {
	cl.out.enqueue(wire.Outgoing{Env: env, Shared: se, Target: target}, false)
	sh.touch(cl)
}

// touch lists cl among the clients the current request sent to, once. A
// request touches its event's members and origin, so the list is short and
// the scan cheap.
func (sh *shard) touch(cl *client) {
	for _, t := range sh.touched {
		if t == cl {
			return
		}
	}
	sh.touched = append(sh.touched, cl)
}

// flushTouched flushes, after a request, the outbox of every client the
// request sent to: the loop writes each with one attempt, or wakes its
// writer (see outbox.attempt). A socket that did not take its attempt whole
// counts as a push-back against the member (server.member.pushbacks).
func (s *Server) flushTouched(sh *shard) {
	for i, cl := range sh.touched {
		if cl.out.attempt() && cl.health != nil {
			cl.health.Counter(memberPushbacks).Inc()
		}
		sh.touched[i] = nil
	}
	sh.touched = sh.touched[:0]
}

// runShard executes one request on sh's loop, or parks it while a migration
// into sh is in flight, and then flushes what the request sent.
func (s *Server) runShard(sh *shard, req shardReq) {
	switch {
	case sh.awaiting != nil:
		sh.held = append(sh.held, req)
	case req.fn != nil:
		req.fn()
	case req.event.cl != nil:
		s.handleEvent(sh, req.event)
	default:
		s.ackExec(sh, req.ack)
	}
	s.flushTouched(sh)
}

// install merges a migrated group into sh and replays the parked backlog.
func (s *Server) install(sh *shard, m migrated) {
	sh.locks.Install(m.locks)
	for id, pe := range m.events {
		sh.pending[id] = pe
	}
	sh.awaiting = nil
	close(m.done)
	held := sh.held
	sh.held = nil
	for _, req := range held {
		s.runShard(sh, req)
	}
}

// mergeShards co-locates the two groups a new couple link is about to merge:
// every member of one coupling group lives on one shard, so when the two sit
// on different shards the smaller group moves to the larger one's (ties keep
// the from side in place). It runs on the global loop, before graph.AddLink.
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

// migrateGroup moves the group made of refs from one shard to another. It
// runs on the global loop and returns once the receiving shard has installed
// the state (or the server is shutting down).
func (s *Server) migrateGroup(from, to *shard, refs []couple.ObjectRef) {
	s.mHandoffs.Inc()
	refset := make(map[couple.ObjectRef]bool, len(refs))
	for _, ref := range refs {
		refset[ref] = true
	}
	done := make(chan struct{})
	install := make(chan migrated, 1) // the donor's single send never blocks
	// The hold marker's queue position is the correctness pivot: requests
	// routed to the receiver after the flip necessarily enqueue behind it,
	// so none of them can run before the migrated state is installed.
	if !s.postShard(to, func() { to.awaiting = install }) {
		return // shutting down
	}
	s.routes.set(refs, to.idx)
	if s.postShard(from, func() { install <- s.extractMigrated(from, to, refset, done) }) {
		select {
		case <-done:
		case <-s.quit:
		}
	}
}

// extractMigrated runs on the donor shard: everything queued ahead of it
// already ran against the full state, everything routed after the flip goes
// to the receiver. Locks are extracted by owning event, never by ref: a lock
// whose event stays (its member left the group while it waited) stays too,
// or the event's unlock on this shard could not find it.
func (s *Server) extractMigrated(from, to *shard, refs map[couple.ObjectRef]bool, done chan struct{}) migrated {
	m := migrated{events: make(map[uint64]*pendingEvent), done: done}
	owners := make(map[lock.Owner]bool)
	var ids []uint64
	for id, pe := range from.pending {
		if refs[pe.source] {
			delete(from.pending, id)
			pe.migrated = true
			m.events[id] = pe
			owners[pe.owner] = true
			ids = append(ids, id)
		}
	}
	m.locks = from.locks.Extract(owners)
	s.router.setEventRoutes(ids, to.idx)
	return m
}

// dispatch routes one record from a connection read loop: Event, ExecAck and
// BatchAck traffic goes straight to the owning shard, an Event or an ExecAck
// by value as the record holds it; everything else (registration, coupling,
// copies, commands, permissions) goes to the global loop. An Event's relay
// body is sealed with its source ref here and travels with the request, or
// is released if the shard refuses it.
func (s *Server) dispatch(cl *client, rec *wire.Record) bool {
	switch rec.Type {
	case wire.TEvent:
		s.recordRecv(cl, rec)
		source := couple.ObjectRef{Instance: cl.id, Path: rec.Event.Path}
		rec.Relay.Seal(source)
		if !s.postShardReq(s.shardForRef(source), shardReq{event: eventReq{cl: cl, seq: rec.Seq, m: rec.Event, body: rec.Relay, tc: rec.Trace}}) {
			rec.Release()
			return false
		}
		return true
	case wire.TExecAck:
		s.recordRecv(cl, rec)
		id := rec.ExecAck.EventID
		return s.postAck(s.birthShard(id), execAck{cl: cl, eventID: id, tc: rec.Trace})
	case wire.TBatchAck:
		// Each entry goes to its event's birth shard as its own request; a
		// shard's queue is FIFO, so within a shard the entries resolve in
		// entry order — identical to the same ExecAcks arriving singly.
		s.recordRecv(cl, rec)
		acks := rec.Msg.(wire.BatchAck).Acks
		s.mAcksCoalesced.Add(uint64(len(acks)))
		now := s.ackClock()
		for _, a := range acks {
			if !s.postAck(s.birthShard(a.EventID), execAck{cl: cl, eventID: a.EventID, tc: a.Trace, now: now}) {
				return false
			}
		}
		return true
	}
	env := rec.Box()
	return s.post(func() {
		s.recordFlight(cl, "recv", env)
		s.handle(cl, env)
	})
}

// recordRecv logs a record the read loop hands to a shard, boxing it only
// when the flight recorder is on.
func (s *Server) recordRecv(cl *client, rec *wire.Record) {
	if s.flight != nil {
		s.recordFlight(cl, "recv", rec.Box())
	}
}
