// Package server implements the central controller of the COSOFT
// architecture (Figure 4): a single coordination point that holds the four
// server databases — access permissions, registration records, historical UI
// states, and the lock table — and implements centralized-control ordering
// of events ("users send their requests for operations to the controller,
// and then the controller broadcasts these operations to all users", §2.1).
//
// Global state (registry, couple graph, sessions, histories, client map) is
// mutated by one goroutine fed through a request channel. What an event
// touches (locks, pending events, event IDs) is partitioned across per-group
// shard loops (see shard.go), so event ordering within a coupling group is
// the arrival order at its shard loop — the serialization guarantee the
// floor-control design relies on.
package server

import (
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"cosoft/internal/compat"
	"cosoft/internal/couple"
	"cosoft/internal/eventlog"
	"cosoft/internal/lock"
	"cosoft/internal/obs"
	"cosoft/internal/perm"
	"cosoft/internal/widget"
	"cosoft/internal/wire"
)

// Options configures a Server.
type Options struct {
	// Classes is the widget class registry used for compatibility checks.
	// Nil means the standard class set.
	Classes *widget.ClassRegistry
	// Correspondences holds declared cross-class attribute mappings. Nil
	// means none (same-class compatibility only).
	Correspondences *compat.Correspondences
	// HistoryDepth bounds the per-object historical-state stacks
	// (0 = default).
	HistoryDepth int
	// OrderedLocking selects the deterministic-order group-locking variant
	// instead of the paper's sequential algorithm (ablation switch).
	OrderedLocking bool
	// Shards is the number of per-group state loops. What an event touches —
	// the lock table and the pending-event wait sets — is partitioned across
	// them by coupling group, so disjoint groups serialize on different cores
	// (see shard.go). 0 selects runtime.GOMAXPROCS(0); 1 is the same topology
	// with a single shard loop.
	Shards int
	// Heartbeat is the liveness probe interval: the server pings every
	// connection this often and declares an instance dead after three
	// intervals of silence (its locks are released and its pending events
	// resolved, so coupling groups never wedge on a vanished peer). Zero
	// disables liveness tracking.
	Heartbeat time.Duration
	// EventDeadline bounds how long a broadcast event may wait for Exec
	// acknowledgements. On expiry the remaining waiters are dropped from
	// the wait set and the group unlocks (counter server.event_timeouts,
	// span server.event_timeout). Zero disables event deadlines.
	EventDeadline time.Duration
	// OutboxLimit is the per-client outbox high-water mark: a client whose
	// backlog stays above it for OutboxGrace is evicted (counter
	// server.evictions) instead of stalling group broadcasts. Zero keeps
	// outboxes unbounded.
	OutboxLimit int
	// OutboxGrace is how long a backlog may exceed OutboxLimit before the
	// client is evicted. Zero selects one second.
	OutboxGrace time.Duration
	// BatchLimit caps how many queued envelopes one outbox flush may pack
	// into a single wire.Batch frame (histogram server.batch_size); every
	// connection reads packed frames. 0 selects 32; values above
	// wire.MaxBatch are clamped; 1 disables packing and every envelope goes
	// out as its own frame.
	BatchLimit int
	// EventLog is the durable per-group event log. When set, every
	// state-mutating hop — registration, declaration, coupling, event
	// broadcast commit, history snapshot, undo/redo, permission change,
	// session-token mint — appends a record before its acknowledgement is
	// enqueued, and New replays the existing log to rebuild the registry,
	// couple graph, histories and event-ID floor before serving. The
	// caller owns the log's lifecycle: open it before New, close it after
	// Close.
	EventLog *eventlog.Log
	// SnapshotInterval is the cadence of the snapshot goroutine: every
	// interval it folds the log's new records into an offline replica,
	// writes a durable state snapshot at the covered offset, and compacts
	// segments wholly older than a retained snapshot — so restart replay
	// and disk use stay bounded no matter how long the server lives. Zero
	// (with SnapshotBytes also zero) disables periodic snapshots; Snapshot
	// can still force one.
	SnapshotInterval time.Duration
	// SnapshotBytes additionally triggers a snapshot once that many new log
	// bytes accumulated since the last one (checked on a short poll), so a
	// write-heavy server snapshots by volume rather than wall clock.
	SnapshotBytes int64
	// Metrics receives the server's counters, gauges and latency
	// histograms. Nil means a private enabled registry (so Stats keeps
	// working); pass obs.Disabled to remove all measurement cost.
	Metrics obs.Sink
	// Tracer records causal spans for every hop of an event's life
	// (arrival, lock acquire, per-member Exec, ExecAck, unlock,
	// EventResult). Nil disables tracing at zero cost.
	Tracer *obs.Tracer
	// Flight is the protocol flight recorder: the last N decoded envelopes
	// per connection, both directions. Nil disables recording.
	Flight *obs.FlightRecorder
	// Logger receives structured logs keyed by instance and trace IDs. Nil
	// disables structured logging.
	Logger *slog.Logger
}

// Server is the central coupling server.
type Server struct {
	opts    Options
	checker *compat.Checker

	// st holds every database the durable log rebuilds (see state.go); the
	// rest of Server is the shell around it. It belongs to the global loop.
	st *state

	// shards own what an event touches (lock tables, pending events, event
	// IDs), each behind its own loop; routes places refs on them and router
	// chases events that migrated.
	shards []*shard
	routes *routes
	router *router

	tr     *obs.Tracer
	flight *obs.FlightRecorder
	slog   *slog.Logger

	// elog is the durable event log (nil when durability is off). The global
	// loop's appends block until the record reaches the configured
	// durability; a shard loop appends an event's record through its lane and
	// holds the event until the commit is reported. Either way an acked
	// transition is replayable.
	elog *eventlog.Log
	// snap folds the log into an offline replica and writes periodic state
	// snapshots + compacts old segments (nil when durability is off).
	snap *snapshotter

	reqs chan func()
	quit chan struct{}
	wg   sync.WaitGroup

	// clients is written only on the global loop but read from shard loops
	// and connection read goroutines, so it sits behind a read-mostly lock.
	cmu     sync.RWMutex
	clients map[couple.InstanceID]*client

	// State below is owned by the global loop goroutine.
	pendingFetch map[uint64]*fetch
	nextFetchID  uint64
	nextPing     uint64
	// closing is set (on the global loop) when Close begins tearing down
	// connections: the drops it provokes are a server shutdown, not client
	// departures, and must not be logged as KindDisconnect — a restarted
	// server replays the log and every instance present at shutdown must
	// still be there, resumable, with its declarations intact.
	closing bool

	// Metric handles resolved from Options.Metrics at construction (nil
	// handles under obs.Disabled; every method is a nil-safe no-op).
	mEvents        *obs.Counter   // server.events: Event messages processed
	mExecsSent     *obs.Counter   // server.execs_sent: Exec broadcasts
	mCopies        *obs.Counter   // server.copies: completed state transfers
	mEventRTT      *obs.Histogram // server.event_rtt_ns: Event arrival → last ExecAck → unlock
	mFanout        *obs.Histogram // server.event_fanout: Execs sent per broadcast event
	mOutboxDepth   *obs.Gauge     // server.outbox_depth: queued envelopes across all outboxes
	mClients       *obs.Gauge     // server.clients: connected instances
	mLockAttempts  *obs.Counter   // lock.group_attempts (shared with the lock table)
	mLockFails     *obs.Counter   // lock.group_failures (shared with the lock table): events denied the group lock
	mLockUndone    *obs.Counter   // lock.undo_locked (shared with the lock table)
	mEventTOs      *obs.Counter   // server.event_timeouts: events resolved by deadline
	mEvictions     *obs.Counter   // server.evictions: clients dropped for backlog
	mLivenessTOs   *obs.Counter   // server.liveness_timeouts: clients declared dead
	mResumes       *obs.Counter   // server.resumes: sessions reclaimed by token
	mBatchSize     *obs.Histogram // server.batch_size: envelopes per packed Batch frame
	mAcksCoalesced *obs.Counter   // server.acks_coalesced: ExecAcks that arrived inside a BatchAck
	mBytesEncoded  *obs.Counter   // server.bytes_encoded: bytes serialized on the send path
	mPoolHits      *obs.Counter   // wire.body_pool_hits: shared-body buffers reused from the pool
	mPoolMisses    *obs.Counter   // wire.body_pool_misses: shared-body buffers freshly allocated
	mShards        *obs.Gauge     // server.shards: configured shard count
	mHandoffs      *obs.Counter   // server.cross_shard_handoffs: group migrations between shards
	mEventTOWait   *obs.Histogram // server.event_timeout_wait_ns: wait span of deadline-resolved events
	mGlobalBusy    *obs.Counter   // server.global.busy_ns: time the global loop spent executing closures
	mGlobalDepth   *obs.Gauge     // server.global.queue_depth: global request-channel depth, sampled per dequeue
	mHistEvict     *obs.Counter   // server.hist_evictions: oldest undo snapshots dropped by the depth bound
	mLogAppendErrs *obs.Counter   // server.log.append_errors: event-log appends that failed (an event is refused, a control-plane transition acked regardless)
	mLinkNotices   *obs.Counter   // server.link_notices: LinkAdded + LinkRemoved envelopes enqueued

	// mMember attributes event health to individual members: per-instance
	// ack latency (histogram + EWMA), ack/last-acker/timeout counters. Nil
	// when metrics are disabled.
	mMember *obs.Family

	// started anchors loop-utilization ratios in HealthReport.
	started time.Time

	closeOnce sync.Once
}

// defaultBatchLimit is the Batch-frame packing cap a zero Options.BatchLimit
// selects.
const defaultBatchLimit = 32

// Indices into the server.member family's counter schema.
const (
	memberAcks     = iota // ExecAcks received from the member
	memberLastAcks        // times the member was the last acker (critical path)
	memberTimeouts        // events that expired while waiting on the member
)

// Stats is a snapshot of server counters. It stays a comparable struct
// (scalar fields only) so callers can diff snapshots with ==.
type Stats struct {
	// Events is the number of Event messages processed.
	Events uint64
	// LockFailures counts events rejected because the group lock failed
	// (lock.group_failures).
	LockFailures uint64
	// ExecsSent counts Exec broadcasts.
	ExecsSent uint64
	// Copies counts completed state transfers.
	Copies uint64
	// Instances is the number of registered instances.
	Instances int
	// Links is the number of couple links.
	Links int
	// EventRTT summarizes the event round trip in nanoseconds: Event
	// arrival through the last ExecAck to group unlock. Events without a
	// broadcast (uncoupled objects, denied locks) are not counted.
	EventRTT obs.Summary
	// Fanout summarizes how many Exec messages each broadcast event
	// produced.
	Fanout obs.Summary
	// OutboxDepth is the number of envelopes currently queued across all
	// client outboxes; OutboxHighWater is the largest backlog seen.
	OutboxDepth     int64
	OutboxHighWater int64
	// LockAttempts counts group-lock acquisitions tried; LockUndone counts
	// locks rolled back by the undo-locking algorithm on contention.
	LockAttempts uint64
	LockUndone   uint64
	// EventTimeouts counts events resolved by the event deadline instead of
	// a full acknowledgement set.
	EventTimeouts uint64
	// Evictions counts clients dropped because their outbox stayed over
	// OutboxLimit for longer than OutboxGrace.
	Evictions uint64
	// LivenessTimeouts counts clients declared dead by the heartbeat
	// deadline.
	LivenessTimeouts uint64
	// Resumes counts reconnections that reclaimed a session by token.
	Resumes uint64
	// AcksCoalesced counts Exec acknowledgements that arrived packed inside
	// BatchAck frames; BatchSize summarizes how many envelopes each packed
	// outgoing Batch frame carried.
	AcksCoalesced uint64
	BatchSize     obs.Summary
	// BytesEncoded counts every byte the server serialized on its send path:
	// frame headers, per-member prefixes, plain bodies, and each shared
	// broadcast body exactly once.
	BytesEncoded uint64
	// BodyPoolHits/BodyPoolMisses count shared-body buffers reused from vs.
	// missing in the process-wide pool. The pool is shared across servers in
	// one process, so these are best-effort when several servers coexist.
	BodyPoolHits   uint64
	BodyPoolMisses uint64
	// PendingEvents is the number of broadcast events still awaiting Exec
	// acknowledgements (should return to zero at quiescence).
	PendingEvents int
	// EventTimeoutWait summarizes how long deadline-resolved events waited
	// before the deadline fired (nanoseconds). They are kept out of
	// EventRTT so a single straggler cannot inject a deadline-sized p99
	// outlier into the round-trip numbers.
	EventTimeoutWait obs.Summary
	// Shards is the configured shard count; CrossShardHandoffs counts group
	// migrations between shards (a couple link joining two groups that lived
	// on different shards).
	Shards             int64
	CrossShardHandoffs uint64
	// LogAppendErrors counts durable-log appends that failed. A failed event
	// append refused the event; a failed control-plane append was applied
	// and acknowledged anyway, so each of those is an acked record the next
	// restart will not replay.
	LogAppendErrors uint64
	// LinkNotices counts the LinkAdded and LinkRemoved envelopes enqueued to
	// keep the instances' mirrored coupling information current.
	LinkNotices uint64
}

// client is the server-side view of one connected instance.
type client struct {
	id   couple.InstanceID
	user string
	conn *wire.Conn
	out  *outbox
	// health is this instance's entry in the server.member family, resolved
	// once at admission so the ack hot path updates it without taking the
	// family lock. Nil when metrics are disabled.
	health *obs.FamilyEntry
	// name keys this connection in the flight recorder; it is the remote
	// address until registration assigns the instance ID.
	name string
	// lastSeen is when the last message arrived on this connection, as
	// UnixNano. It drives the liveness deadline; atomic because the
	// connection read goroutine writes it and the sweeper reads it.
	lastSeen atomic.Int64
}

// touch refreshes the liveness clock of the connection.
func (c *client) touch() { c.lastSeen.Store(time.Now().UnixNano()) }

// New returns a started server. Call Close to stop it.
func New(opts Options) *Server {
	opts = opts.withDefaults()
	st := newState(opts.HistoryDepth, obs.LoggerOr(opts.Logger).With("component", "server"))
	if opts.EventLog != nil {
		// Restore the durable state before any loop goroutine starts: it runs
		// single-threaded against databases nothing else has seen yet, so
		// recovery needs no posting or locking discipline.
		off, n, err := st.restore(opts.EventLog.Dir(), opts.EventLog.ReplayCounter())
		if err != nil {
			st.log.Warn("event log replay stopped early", "records", n, "offset", off, "err", err)
		}
		if off > 0 {
			st.log.Info("event log replayed", "records", n, "offset", off,
				"instances", st.reg.Len(), "links", st.graph.Len())
		}
	}
	s := newServer(opts, st)
	wire.InstrumentBodyPool(s.mPoolHits, s.mPoolMisses)
	if s.elog != nil {
		s.snap = &snapshotter{s: s}
	}
	s.wg.Add(1)
	go s.loop()
	for _, sh := range s.shards {
		s.wg.Add(1)
		go s.shardLoop(sh)
	}
	if period := s.sweepPeriod(); period > 0 {
		s.wg.Add(1)
		go s.sweeper(period)
	}
	if s.snap != nil && (opts.SnapshotInterval > 0 || opts.SnapshotBytes > 0) {
		s.wg.Add(1)
		go s.snapshotLoop()
	}
	return s
}

// withDefaults resolves the options a zero value leaves to the server.
func (opts Options) withDefaults() Options {
	if opts.Classes == nil {
		opts.Classes = widget.NewClassRegistry()
	}
	if opts.Correspondences == nil {
		opts.Correspondences = compat.NewCorrespondences()
	}
	if opts.Shards < 1 {
		opts.Shards = runtime.GOMAXPROCS(0)
	}
	if opts.BatchLimit == 0 {
		opts.BatchLimit = defaultBatchLimit
	}
	return opts
}

// newServer builds a stopped server around st, logging where st does: shards,
// placement and metric handles only — no goroutines. opts has its defaults
// resolved.
func newServer(opts Options, st *state) *Server {
	metrics := opts.Metrics
	if metrics == nil {
		// Default to an enabled private registry: Stats() reads through the
		// same handles, and atomic counters cost next to nothing.
		metrics = obs.NewRegistry()
	}
	s := &Server{
		opts:         opts,
		tr:           opts.Tracer,
		flight:       opts.Flight,
		slog:         st.log,
		checker:      compat.NewChecker(opts.Classes, opts.Correspondences),
		st:           st,
		routes:       &routes{n: opts.Shards, obj: make(map[couple.ObjectRef]int)},
		router:       &router{ev: make(map[uint64]int)},
		elog:         opts.EventLog,
		reqs:         make(chan func(), 1024),
		quit:         make(chan struct{}),
		clients:      make(map[couple.InstanceID]*client),
		pendingFetch: make(map[uint64]*fetch),

		mEvents:        metrics.Counter("server.events"),
		mExecsSent:     metrics.Counter("server.execs_sent"),
		mCopies:        metrics.Counter("server.copies"),
		mEventRTT:      metrics.Histogram("server.event_rtt_ns"),
		mFanout:        metrics.Histogram("server.event_fanout"),
		mOutboxDepth:   metrics.Gauge("server.outbox_depth"),
		mClients:       metrics.Gauge("server.clients"),
		mLockAttempts:  metrics.Counter("lock.group_attempts"),
		mLockFails:     metrics.Counter("lock.group_failures"),
		mLockUndone:    metrics.Counter("lock.undo_locked"),
		mEventTOs:      metrics.Counter("server.event_timeouts"),
		mEvictions:     metrics.Counter("server.evictions"),
		mLivenessTOs:   metrics.Counter("server.liveness_timeouts"),
		mResumes:       metrics.Counter("server.resumes"),
		mBatchSize:     metrics.Histogram("server.batch_size"),
		mAcksCoalesced: metrics.Counter("server.acks_coalesced"),
		mBytesEncoded:  metrics.Counter("server.bytes_encoded"),
		mPoolHits:      metrics.Counter("wire.body_pool_hits"),
		mPoolMisses:    metrics.Counter("wire.body_pool_misses"),
		mShards:        metrics.Gauge("server.shards"),
		mHandoffs:      metrics.Counter("server.cross_shard_handoffs"),
		mEventTOWait:   metrics.Histogram("server.event_timeout_wait_ns"),
		mGlobalBusy:    metrics.Counter("server.global.busy_ns"),
		mGlobalDepth:   metrics.Gauge("server.global.queue_depth"),
		mHistEvict:     metrics.Counter("server.hist_evictions"),
		mLogAppendErrs: metrics.Counter("server.log.append_errors"),
		mLinkNotices:   metrics.Counter("server.link_notices"),

		started: time.Now(),
	}
	s.mMember = metrics.Family("server.member", obs.FamilySchema{
		Counters: []string{"acks", "last_acks", "timeouts"},
		Hist:     "ack_ns",
		EWMA:     "ack_ewma_ns",
		Label:    "member",
	})
	st.history.Instrument(s.mHistEvict)
	// Every shard allocates past the restored floor: shard i's first ID is
	// base·N + i + 1, above every logged one. Every shard's lock table shares
	// the same metric handles, so the lock.* counters stay aggregate
	// regardless of shard count.
	n := uint64(opts.Shards)
	base := (st.floor + n - 1) / n
	for i := 0; i < opts.Shards; i++ {
		sh := &shard{
			idx:     i,
			reqs:    make(chan shardReq, 1024),
			seq:     base,
			locks:   lock.NewTable(),
			pending: make(map[uint64]*pendingEvent),
			plans:   make(map[couple.ObjectRef]*plan),
			mEvents: metrics.Counter(fmt.Sprintf("server.shard.%d.events", i)),
			mBusy:   metrics.Counter(fmt.Sprintf("server.shard.%d.busy_ns", i)),
			mDepth:  metrics.Gauge(fmt.Sprintf("server.shard.%d.queue_depth", i)),
		}
		if s.elog != nil {
			sh.lane = s.elog.NewLane()
			sh.onCommit = func() { s.commitsDone(sh) }
		}
		sh.locks.Instrument(s.mLockAttempts, s.mLockFails, s.mLockUndone)
		sh.locks.TraceWith(opts.Tracer)
		s.shards = append(s.shards, sh)
	}
	// Placement is not logged. With no lock held and no event pending, every
	// multi-member group the log restored starts on its first member's hash
	// shard.
	for _, group := range st.graph.Groups() {
		s.routes.set(group, int(hashRef(group[0])%uint32(opts.Shards)))
	}
	s.mShards.Set(int64(len(s.shards)))
	return s
}

// loop runs every global-state mutation in one goroutine. Each dequeue
// samples the channel depth and each closure is bracketed with busy-time
// accounting (server.global.busy_ns / .queue_depth) — both no-ops under
// obs.Disabled, where Start returns the zero time without reading the clock.
func (s *Server) loop() {
	defer s.wg.Done()
	for {
		select {
		case fn := <-s.reqs:
			s.mGlobalDepth.Set(int64(len(s.reqs)))
			t0 := s.mGlobalBusy.Start()
			fn()
			s.mGlobalBusy.AddSince(t0)
		case <-s.quit:
			// Drain anything already queued, then stop.
			for {
				select {
				case fn := <-s.reqs:
					fn()
				default:
					return
				}
			}
		}
	}
}

// post schedules fn on the state loop. It reports false after Close.
func (s *Server) post(fn func()) bool {
	select {
	case <-s.quit:
		return false
	default:
	}
	select {
	case s.reqs <- fn:
		return true
	case <-s.quit:
		return false
	}
}

// Serve accepts connections from l until the listener fails or the server is
// closed. Each connection is handled on its own goroutine.
func (s *Server) Serve(l net.Listener) error {
	for {
		conn, err := l.Accept()
		if err != nil {
			select {
			case <-s.quit:
				return nil
			default:
				return fmt.Errorf("server: accept: %w", err)
			}
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.handleConn(wire.NewConn(conn))
		}()
	}
}

// HandleConn serves a single pre-established connection (in-process
// transports). It returns when the connection closes.
func (s *Server) HandleConn(c *wire.Conn) {
	s.handleConn(c)
}

// Close stops the server. Connected clients see their connections closed.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		// Ask the loop to close all client connections, then stop it.
		done := make(chan struct{})
		if s.post(func() {
			s.closing = true
			s.cmu.RLock()
			for _, c := range s.clients {
				c.out.close()
				c.conn.Close()
			}
			s.cmu.RUnlock()
			close(done)
		}) {
			<-done
		}
		close(s.quit)
	})
	s.wg.Wait()
	// Every loop has exited (wg.Wait is the happens-before edge), so the
	// pending maps are quiescent. Abandon the unresolved events: stop their
	// deadline timers — a timer left running would outlive the server, and
	// its late firing only posts (post refuses after quit), so stopping here
	// is safe and sufficient — and release the shared bodies of those still
	// committing, which nothing was sent and nothing will send.
	for _, sh := range s.shards {
		for _, pe := range sh.pending {
			pe.abandon()
		}
		// A migration bundle the receiver never installed (it exited first)
		// still carries pending events. A nil awaiting channel is never
		// ready, so the default arm takes it.
		select {
		case m := <-sh.awaiting:
			for _, pe := range m.events {
				pe.abandon()
			}
		default:
		}
	}
}

// Stats returns a consistent snapshot of the server counters.
func (s *Server) Stats() Stats {
	result := make(chan Stats, 1)
	if !s.post(func() {
		result <- Stats{
			Events:             s.mEvents.Value(),
			LockFailures:       s.mLockFails.Value(),
			ExecsSent:          s.mExecsSent.Value(),
			Copies:             s.mCopies.Value(),
			Instances:          s.st.reg.Len(),
			Links:              s.st.graph.Len(),
			EventRTT:           s.mEventRTT.Summary(),
			Fanout:             s.mFanout.Summary(),
			OutboxDepth:        s.mOutboxDepth.Value(),
			OutboxHighWater:    s.mOutboxDepth.HighWater(),
			LockAttempts:       s.mLockAttempts.Value(),
			LockUndone:         s.mLockUndone.Value(),
			EventTimeouts:      s.mEventTOs.Value(),
			Evictions:          s.mEvictions.Value(),
			LivenessTimeouts:   s.mLivenessTOs.Value(),
			Resumes:            s.mResumes.Value(),
			AcksCoalesced:      s.mAcksCoalesced.Value(),
			BatchSize:          s.mBatchSize.Summary(),
			BytesEncoded:       s.mBytesEncoded.Value(),
			BodyPoolHits:       s.mPoolHits.Value(),
			BodyPoolMisses:     s.mPoolMisses.Value(),
			PendingEvents:      s.pendingCount(),
			EventTimeoutWait:   s.mEventTOWait.Summary(),
			Shards:             s.mShards.Value(),
			CrossShardHandoffs: s.mHandoffs.Value(),
			LogAppendErrors:    s.mLogAppendErrs.Value(),
			LinkNotices:        s.mLinkNotices.Value(),
		}
	}) {
		return Stats{}
	}
	return <-result
}

// pendingCount sums still-pending events across shards. It runs on the
// global loop; each shard reports its count under its own serialization
// (shards never wait on the global loop, so the gather cannot deadlock).
func (s *Server) pendingCount() int {
	counts := make(chan int, len(s.shards))
	posted := 0
	for _, sh := range s.shards {
		sh := sh
		if s.postShard(sh, func() { counts <- len(sh.pending) }) {
			posted++
		}
	}
	total := 0
	for i := 0; i < posted; i++ {
		select {
		case c := <-counts:
			total += c
		case <-s.quit:
			return total
		}
	}
	return total
}

// clientOf returns the connected client of an instance. Callable from any
// goroutine: clients sits behind a read-mostly lock.
func (s *Server) clientOf(id couple.InstanceID) (*client, bool) {
	s.cmu.RLock()
	c, ok := s.clients[id]
	s.cmu.RUnlock()
	return c, ok
}

// Permissions returns the server's permission table for administrative
// setup before instances connect.
func (s *Server) Permissions() *perm.Table { return s.st.perms }

// handleConn runs the read loop for one connection: the first message must
// be Register (fresh instance) or Resume (reconnection presenting a session
// token); afterwards each record is dispatched to the loop that handles it.
func (s *Server) handleConn(c *wire.Conn) {
	c.CountEncodedBytes(s.mBytesEncoded)
	env, err := c.Read()
	if err != nil {
		c.Close()
		return
	}
	cl := &client{
		conn: c,
		name: c.RemoteAddr().String(),
	}
	cl.out = newOutbox(c, s.mOutboxDepth, s.opts.OutboxLimit, s.opts.BatchLimit, s.mBatchSize, s.outboxRecorder(cl))
	var joinErr string
	switch m := env.Msg.(type) {
	case wire.Register:
		joinErr = s.admitRegister(cl, env, m)
	case wire.Resume:
		joinErr = s.admitResume(cl, env, m)
	default:
		joinErr = "server: first message must be Register or Resume"
	}
	if joinErr != "" {
		_ = c.Write(wire.Envelope{RefSeq: env.Seq, Msg: wire.Err{Text: joinErr}})
		cl.out.close()
		c.Close()
		return
	}

	var rec wire.Record
	for c.Next(&rec) == nil {
		cl.touch()
		if !s.dispatch(cl, &rec) {
			break
		}
	}
	// Connection gone: clean up on the loop.
	s.post(func() { s.dropClient(cl, "connection closed") })
	cl.out.close()
	c.Close()
}

// admitRegister performs the fresh-registration handshake on the state
// loop, returning an error text for the client ("" on success).
func (s *Server) admitRegister(cl *client, env wire.Envelope, reg wire.Register) string {
	cl.user = reg.User
	registered := make(chan bool, 1)
	if !s.post(func() {
		cl.id = s.st.reg.NewID(reg.AppType)
		if s.commit(eventlog.Record{Kind: eventlog.KindRegister, Origin: string(cl.id), Env: wire.Envelope{Msg: reg}}) != nil {
			registered <- false
			return
		}
		s.admit(cl, env)
		registered <- true
	}) {
		return "server: shutting down"
	}
	if !<-registered {
		return "server: registration failed"
	}
	s.slog.Info("instance registered",
		"inst", string(cl.id), "user", reg.User, "host", reg.Host, "app", reg.AppType)
	return ""
}

// admitResume reclaims a session by token on the state loop: any still-open
// previous connection for the instance is superseded (dropped exactly as a
// disconnect would), and the new connection re-registers under the original
// instance ID. The client is expected to re-declare its objects, re-create
// its couple links, and resynchronize state afterwards.
func (s *Server) admitResume(cl *client, env wire.Envelope, m wire.Resume) string {
	result := make(chan string, 1)
	if !s.post(func() {
		sess, ok := s.st.sessions[m.Token]
		if !ok {
			result <- "server: unknown session token"
			return
		}
		if old, connected := s.clientOf(sess.id); connected {
			s.dropClient(old, "superseded by resume")
			old.conn.Close()
		}
		// The database half — the token is consumed, and the instance
		// re-registered unless its record survives as a ghost of the
		// pre-crash incarnation — is the logged transition itself.
		if err := s.commit(eventlog.Record{Kind: eventlog.KindResume, Origin: string(sess.id), Env: wire.Envelope{Msg: m}}); err != nil {
			result <- "server: resume failed: " + err.Error()
			return
		}
		cl.id = sess.id
		cl.user = sess.user
		s.mResumes.Inc()
		s.admit(cl, env)
		result <- ""
	}) {
		return "server: shutting down"
	}
	if errText := <-result; errText != "" {
		return errText
	}
	s.slog.Info("instance resumed", "inst", string(cl.id), "user", cl.user)
	return ""
}

// admit installs a freshly identified client and acknowledges the
// handshake. It runs on the state loop.
func (s *Server) admit(cl *client, env wire.Envelope) {
	// Resolve the member's health entry once; shard loops then attribute
	// acks through the cached pointer without touching the family lock.
	cl.health = s.mMember.Get(string(cl.id))
	s.cmu.Lock()
	s.clients[cl.id] = cl
	s.cmu.Unlock()
	s.mClients.Add(1)
	cl.name = string(cl.id)
	cl.touch()
	s.recordFlight(cl, "recv", env)
	cl.out.send(wire.Envelope{RefSeq: env.Seq, Msg: wire.Registered{ID: cl.id}})
}

// outboxRecorder returns the outbox send hook that feeds the flight
// recorder, or nil when recording is disabled so sends stay cost-free.
func (s *Server) outboxRecorder(cl *client) func(wire.Envelope) {
	if s.flight == nil {
		return nil
	}
	return func(env wire.Envelope) { s.recordFlight(cl, "send", env) }
}

// recordFlight logs one envelope against cl's connection. cl.name is read
// without synchronization: it is renamed once, in admit, and the
// connection's read goroutine waits for admit to finish before it reads its
// next frame — so every later recorder (that goroutine for ack frames, the
// loops for everything else) sees the final name.
func (s *Server) recordFlight(cl *client, dir string, env wire.Envelope) {
	if s.flight == nil {
		return
	}
	s.flight.Record(cl.name, obs.FlightEntry{
		Dir:    dir,
		Type:   env.Msg.MsgType().String(),
		Seq:    env.Seq,
		RefSeq: env.RefSeq,
		Trace:  env.Trace.Trace,
		Note:   flightNote(env.Msg),
	})
}

// flightNote summarizes a message for the flight recorder without retaining
// payloads.
func flightNote(m wire.Message) string {
	switch m := m.(type) {
	case wire.Event:
		return m.Path + " " + m.Name
	case wire.Exec:
		return m.TargetPath + " " + m.Name
	case wire.EventResult:
		if m.OK {
			return "ok"
		}
		return "denied: " + m.Reason
	case wire.Declare:
		return m.Path + " (" + m.Class + ")"
	case wire.Retract:
		return m.Path
	case wire.Register:
		return m.AppType + "/" + m.User + "@" + m.Host
	case wire.Registered:
		return string(m.ID)
	case wire.Couple:
		return stateID(m.From) + " -> " + stateID(m.To)
	case wire.Decouple:
		return stateID(m.From) + " x " + stateID(m.To)
	case wire.Command:
		return m.Name
	case wire.CommandDeliver:
		return m.Name + " from " + string(m.From)
	case wire.Err:
		return m.Text
	case wire.BatchAck:
		return fmt.Sprintf("%d acks", len(m.Acks))
	default:
		return ""
	}
}

// outbox decouples the state loop from connection back-pressure: the loop
// enqueues, a writer goroutine drains. The queue never blocks the sender —
// the server is the ordering authority and must never stall on a slow
// client — but when a limit is configured the outbox remembers how long the
// backlog has stayed above it so the sweeper can evict the client instead
// of buffering without bound.
type outbox struct {
	mu   sync.Mutex
	cond *sync.Cond
	// queue collects records while the writer flushes the previous backlog
	// out of the other backing array; the two swap on every drain (spare is
	// the idle one), so steady traffic enqueues into memory it already owns.
	// A flushed or dropped record is zeroed in place: neither array keeps a
	// shared body or a message reachable past its flush.
	queue  []wire.Outgoing
	spare  []wire.Outgoing
	closed bool
	done   chan struct{}
	depth  *obs.Gauge          // shared across outboxes: total server backlog
	onSend func(wire.Envelope) // flight-recorder hook; nil when disabled
	limit  int                 // high-water mark; 0 = unbounded
	// inflight counts envelopes handed to the writer but not yet written;
	// inflight+len(queue) is the true backlog the eviction limit measures.
	inflight int
	// batchLimit caps envelopes per packed Batch frame; <=1 disables packing.
	batchLimit int
	batchSize  *obs.Histogram // envelopes per packed frame (server.batch_size)
	// overSince is when the backlog last rose above limit; zero while at or
	// under the mark.
	overSince time.Time
}

func newOutbox(c *wire.Conn, depth *obs.Gauge, limit, batchLimit int, batchSize *obs.Histogram, onSend func(wire.Envelope)) *outbox {
	if batchLimit > wire.MaxBatch {
		batchLimit = wire.MaxBatch
	}
	o := &outbox{done: make(chan struct{}), depth: depth, limit: limit,
		batchLimit: batchLimit, batchSize: batchSize, onSend: onSend}
	o.cond = sync.NewCond(&o.mu)
	go func() {
		defer close(o.done)
		for {
			o.mu.Lock()
			for len(o.queue) == 0 && !o.closed {
				o.cond.Wait()
			}
			if len(o.queue) == 0 && o.closed {
				o.mu.Unlock()
				return
			}
			// Hand the whole backlog to the writer in one slice: everything
			// that queued up while the previous flush blocked becomes one
			// flush, which is what gives flush-time packing a run to pack.
			take := o.queue
			o.queue, o.spare = o.spare, nil
			o.inflight = len(take)
			o.mu.Unlock()
			err := o.flush(c, take)
			o.mu.Lock()
			if err != nil {
				// Connection broken; drop remaining output. flush released
				// the shared bodies of everything it took, so only the
				// still-queued records hold references here.
				o.depth.Add(-int64(o.inflight + len(o.queue)))
				dropOutgoing(o.queue)
				o.inflight = 0
				o.queue = o.queue[:0]
				o.closed = true
				o.mu.Unlock()
				return
			}
			if cap(take) <= maxIdleOutbox {
				o.spare = take[:0]
			}
			o.inflight = 0
			if o.limit > 0 && len(o.queue) <= o.limit {
				o.overSince = time.Time{}
			}
			o.mu.Unlock()
		}
	}()
	return o
}

// flush writes one drained backlog: runs of queued records are packed into
// Batch frames of up to batchLimit records each, and with packing disabled
// every record goes out as its own frame. Either way the records reach the
// wire in queue order, and shared broadcast bodies are copied in rather than
// re-encoded. Every record flush takes is released and zeroed exactly once —
// after its frame is written, or on the error path — so eviction or a broken
// connection can never leak or double-release a shared body, and the slice
// goes back to the outbox referencing nothing.
func (o *outbox) flush(c *wire.Conn, recs []wire.Outgoing) error {
	for len(recs) > 0 {
		n := 1
		if o.batchLimit > 1 && len(recs) > 1 {
			n = min(len(recs), o.batchLimit)
		}
		var err error
		for {
			if n == 1 {
				err = c.WriteOutgoing(recs[0])
				break
			}
			err = c.WriteBatch(recs[:n])
			if !errors.Is(err, wire.ErrFrameTooLarge) {
				if err == nil {
					o.batchSize.Observe(int64(n))
				}
				break
			}
			// The packed body overflowed MaxFrame even though each envelope
			// fits on its own (WriteBatch rejects oversized frames before
			// touching the wire, so nothing was sent). Halve the run and
			// retry rather than tearing down a connection the unbatched path
			// would serve.
			n /= 2
		}
		dropOutgoing(recs[:n])
		if err != nil {
			dropOutgoing(recs[n:])
			return err
		}
		o.depth.Add(-int64(n))
		o.mu.Lock()
		o.inflight -= n
		if o.limit > 0 && o.inflight+len(o.queue) <= o.limit {
			// The true backlog (in-flight plus re-queued) is back under the
			// eviction mark; clear the stopwatch per chunk so a long flush of
			// a draining peer is not mistaken for a stuck one.
			o.overSince = time.Time{}
		}
		o.mu.Unlock()
		recs = recs[n:]
	}
	return nil
}

// maxIdleOutbox caps the capacity (in records) of a backing array an outbox
// keeps between drains, so the backlog of one stall is not pinned for the
// life of the connection.
const maxIdleOutbox = 1024

// dropOutgoing disposes of records that were written or are being abandoned:
// each shared-body reference is released exactly once and the slot is zeroed,
// so overlapping error paths cannot release twice and the backing array holds
// on to no message.
func dropOutgoing(recs []wire.Outgoing) {
	for i := range recs {
		if recs[i].Shared != nil {
			recs[i].Shared.Release()
		}
		recs[i] = wire.Outgoing{}
	}
}

func (o *outbox) send(env wire.Envelope) {
	o.enqueue(wire.Outgoing{Env: env})
}

// sendShared queues one member's frame of an encode-once broadcast: env
// carries the correlation numbers and trace context (its Msg stays nil — the
// Exec is never materialized on the hot path), target the member's path, se
// the shared body suffix. The outbox takes its own reference — the caller
// must still hold one, and releases it when done enqueueing.
func (o *outbox) sendShared(env wire.Envelope, target string, se *wire.SharedExec) {
	o.enqueue(wire.Outgoing{Env: env, Shared: se, Target: target})
}

func (o *outbox) enqueue(rec wire.Outgoing) {
	o.mu.Lock()
	if !o.closed {
		if rec.Shared != nil {
			rec.Shared.Ref()
		}
		o.queue = append(o.queue, rec)
		o.depth.Add(1)
		if o.limit > 0 && o.inflight+len(o.queue) > o.limit && o.overSince.IsZero() {
			o.overSince = time.Now()
		}
		o.cond.Signal()
	}
	o.mu.Unlock()
	if o.onSend != nil {
		// Only the flight recorder needs the decoded message; Envelope
		// materializes the member's Exec on demand for shared records.
		o.onSend(rec.Envelope())
	}
}

// overLimitSince reports when the backlog rose above the configured limit,
// or a zero time if it is currently at or under it (or unbounded).
func (o *outbox) overLimitSince() time.Time {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.overSince
}

func (o *outbox) close() {
	o.mu.Lock()
	o.closed = true
	o.cond.Broadcast()
	o.mu.Unlock()
	<-o.done
}

// sweepPeriod returns how often the liveness/backpressure sweeper should
// run, or zero when neither feature is enabled.
func (s *Server) sweepPeriod() time.Duration {
	var period time.Duration
	if s.opts.Heartbeat > 0 {
		period = s.opts.Heartbeat
	}
	if s.opts.OutboxLimit > 0 {
		if g := s.outboxGrace() / 2; period == 0 || g < period {
			period = g
		}
	}
	if period > 0 && period < time.Millisecond {
		period = time.Millisecond
	}
	return period
}

// outboxGrace returns how long a backlog may stay over OutboxLimit.
func (s *Server) outboxGrace() time.Duration {
	if s.opts.OutboxGrace > 0 {
		return s.opts.OutboxGrace
	}
	return time.Second
}

// sweeper periodically posts a liveness/backpressure sweep onto the state
// loop until the server closes.
func (s *Server) sweeper(period time.Duration) {
	defer s.wg.Done()
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			if !s.post(func() { s.sweep() }) {
				return
			}
		case <-s.quit:
			return
		}
	}
}

// sweep runs on the state loop: it evicts clients whose backlog has
// exceeded OutboxLimit for longer than OutboxGrace, declares silent
// clients dead after the liveness timeout, and pings the survivors.
// Killing the connection lets the normal handleConn teardown release locks
// and resolve pending events, so both failure paths share one cleanup.
func (s *Server) sweep() {
	now := time.Now()
	// Snapshot under the read lock, then release it: dropClient re-takes
	// the write lock.
	s.cmu.RLock()
	snapshot := make([]*client, 0, len(s.clients))
	for _, cl := range s.clients {
		snapshot = append(snapshot, cl)
	}
	s.cmu.RUnlock()
	for _, cl := range snapshot {
		if s.opts.OutboxLimit > 0 {
			if since := cl.out.overLimitSince(); !since.IsZero() && now.Sub(since) > s.outboxGrace() {
				s.mEvictions.Inc()
				s.slog.Warn("client evicted: outbox over limit",
					"inst", string(cl.id), "limit", s.opts.OutboxLimit,
					"over_for", now.Sub(since).String())
				s.dropClient(cl, "evicted: outbox over limit")
				cl.conn.Close()
				continue
			}
		}
		if s.opts.Heartbeat > 0 {
			if silent := now.Sub(time.Unix(0, cl.lastSeen.Load())); silent > 3*s.opts.Heartbeat {
				s.mLivenessTOs.Inc()
				s.slog.Warn("client declared dead: liveness timeout",
					"inst", string(cl.id), "silent_for", silent.String())
				s.dropClient(cl, "liveness timeout")
				cl.conn.Close()
				continue
			}
			s.nextPing++
			cl.out.send(wire.Envelope{Msg: wire.Ping{Nonce: s.nextPing}})
		}
	}
}

// mintToken returns a fresh random session token.
func mintToken() (string, error) {
	var buf [16]byte
	if _, err := rand.Read(buf[:]); err != nil {
		return "", err
	}
	return hex.EncodeToString(buf[:]), nil
}

// errPerm tags permission failures.
var errPerm = errors.New("permission denied")
