// Package server implements the central controller of the COSOFT
// architecture (Figure 4): a single coordination point that holds the four
// server databases — access permissions, registration records, historical UI
// states, and the lock table — and implements centralized-control ordering
// of events ("users send their requests for operations to the controller,
// and then the controller broadcasts these operations to all users", §2.1).
//
// Global state (registry, couple graph, sessions, histories, client map) is
// mutated only under one lock, gmu, held by the goroutine that needs it: the
// read goroutine that decoded a control-plane message, a handshake, a
// connection's teardown, the sweeper, Stats and Close. No goroutine serves
// it. What an event touches besides the floor (pending events, event IDs)
// sits behind one event lock (see eventlock.go), and the floor is one lock
// table, so event ordering within a coupling group is the order its events
// take its floor — the serialization guarantee the floor-control design
// relies on. Every record a
// connection sends runs on its read goroutine before the next is read, so a
// connection's messages take effect in the order it sent them.
package server

import (
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"cosoft/internal/clock"
	"cosoft/internal/compat"
	"cosoft/internal/couple"
	"cosoft/internal/eventlog"
	"cosoft/internal/lock"
	"cosoft/internal/obs"
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
	// Shards does nothing: the event state sits behind one event lock.
	//
	// Deprecated: kept only for the benchmark module, which sets it at
	// bench/topo.go:162 and prints it at bench/fingerprint.go:23; delete it
	// together with those lines.
	Shards int
	// BatchLimit caps how many queued envelopes one outbox flush may pack
	// into a single wire.Batch frame (histogram server.batch_size); every
	// connection reads packed frames. 0 selects 32; values above
	// wire.MaxBatch are clamped; 1 disables packing and every envelope goes
	// out as its own frame.
	BatchLimit int
	// EventLog is the durable per-group event log. When set, every
	// state-mutating hop — registration, declaration, coupling, history
	// snapshot, undo/redo, permission change, session-token mint, event-ID
	// lease — appends a record before its acknowledgement is enqueued, each
	// broadcast event queues an audit record behind it, and New replays the
	// existing log to rebuild the registry, couple graph, histories and
	// event-ID floor before serving. The caller owns the log's lifecycle:
	// open it before New, close it after Close, which writes what is still
	// queued.
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
	// Clock is what every deadline, ticker and timer of the server reads:
	// the event deadline, liveness, the outbox grace, the sweeper, the
	// snapshot cadence and Close's grace. Nil is the wall clock. It is a test
	// seam: a test advances a clock.Manual past a deadline instead of waiting
	// it out.
	Clock clock.Clock
}

// Server is the central coupling server.
type Server struct {
	opts    Options
	checker *compat.Checker

	// st holds every database the durable log rebuilds (see state.go); the
	// rest of Server is the shell around it. It is held under gmu.
	st *state

	// locks is the lock table, the floor of every coupling group; it carries
	// its own mutex. ev guards the rest of what an event touches (pending
	// events, event IDs, plans).
	locks *lock.Table
	ev    eventLock

	tr     *obs.Tracer
	flight *obs.FlightRecorder
	slog   *slog.Logger

	// elog is the durable event log (nil when durability is off). A gmu
	// holder's appends block until the record reaches the configured
	// durability, so an acked transition is replayable. The event lock's
	// holder blocks on it only to lease event IDs; an event's own record is
	// queued behind the event and never waited for (see logEvent).
	elog *eventlog.Log
	// snap folds the log into an offline replica and writes periodic state
	// snapshots + compacts old segments (nil when durability is off).
	snap *snapshotter

	quit chan struct{}
	wg   sync.WaitGroup

	// gmu serializes the global state: its holder owns st, pendingFetch,
	// nextFetchID, nextPing, swept and closing, and is the only writer of
	// clients. The lock order is global → event lock → leaf: a gmu holder
	// may take the event lock (a departure's cleanup, Stats), and no
	// event-lock holder ever takes gmu.
	gmu serial

	// clients is written only under gmu but read by event-lock holders and
	// connection read goroutines, so it sits behind a read-mostly lock.
	cmu     sync.RWMutex
	clients map[couple.InstanceID]*client
	// restored holds the instances the log restored that have neither
	// resumed nor been dropped, each mapped to the declared objects it holds
	// the floor of: a member with a session token may resume with the state
	// it had, so New locks its objects in the lock table under its restore
	// owner until it resumes or the sweep drops it; one without a token can
	// never resume, and holds none. The sweep then sets it nil: the restore
	// window has closed. It is held under gmu.
	restored map[couple.InstanceID][]couple.ObjectRef

	pendingFetch map[uint64]*fetch
	nextFetchID  uint64
	nextPing     uint64
	// swept is the sweep's list of the clients it judges, reused from sweep
	// to sweep so a sweep allocates nothing.
	swept []*client
	// closing is set when Close begins tearing down connections: from then
	// on a gmu holder serves nothing more, and the drops Close provokes are a
	// server shutdown, not client departures, so they must not be logged as
	// KindDisconnect — a restarted server replays the log and every instance
	// present at shutdown must still be there, resumable, with its
	// declarations intact.
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
	mLockFails     *obs.Counter   // lock.group_failures (shared with the lock table): events and transfers denied the group lock
	mLockUndone    *obs.Counter   // lock.undo_locked (shared with the lock table)
	mEventTOs      *obs.Counter   // server.event_timeouts: events and transfers resolved by deadline
	mEvictions     *obs.Counter   // server.evictions: clients dropped for backlog
	mLivenessTOs   *obs.Counter   // server.liveness_timeouts: clients declared dead
	mResumes       *obs.Counter   // server.resumes: sessions reclaimed by token
	mBatchSize     *obs.Histogram // server.batch_size: envelopes per packed Batch frame
	mAcksCoalesced *obs.Counter   // server.acks_coalesced: ExecAcks that arrived inside a BatchAck
	mBytesEncoded  *obs.Counter   // server.bytes_encoded: bytes serialized on the send path
	mPoolHits      *obs.Counter   // wire.body_pool_hits: shared-body buffers reused from the pool
	mPoolMisses    *obs.Counter   // wire.body_pool_misses: shared-body buffers freshly allocated
	mEventTOWait   *obs.Histogram // server.event_timeout_wait_ns: wait span of deadline-resolved events
	mHistEvict     *obs.Counter   // server.hist_evictions: oldest undo snapshots dropped by the depth bound
	mLogAppendErrs *obs.Counter   // server.log.append_errors: event-log appends that failed, each refusing its event or request
	mLinkNotices   *obs.Counter   // server.link_notices: LinkAdded + LinkRemoved envelopes enqueued

	// mMember attributes event health to individual members: per-instance
	// ack latency (histogram + EWMA), ack/last-acker/timeout counters. Nil
	// when metrics are disabled.
	mMember *obs.Family

	// started anchors lock-utilization ratios in HealthReport.
	started time.Time

	closeOnce sync.Once
}

// defaultBatchLimit is the Batch-frame packing cap a zero Options.BatchLimit
// selects.
const defaultBatchLimit = 32

// The server's defenses against a member that stops taking part (DESIGN §7)
// are always on, and the sweeper checks all three every sweepPeriod.
const (
	// heartbeat is how long a connection may send nothing before the sweep
	// pings it; one silent for three heartbeats is declared dead, and its
	// departure releases its locks and resolves its pending events.
	heartbeat = 5 * time.Second
	// eventDeadline bounds how long a granted event waits for its members'
	// ExecAcks: past it the stragglers leave the wait set and the group
	// unlocks. It is shorter than three heartbeats, so the event of a member
	// that fell silent times out before the member is dropped.
	eventDeadline = 10 * time.Second
	// outboxLimit is the backlog, in envelopes, a client's outbox may hold
	// for outboxGrace before the client is evicted.
	outboxLimit = 1024
	// outboxGrace is how long a backlog may stay over outboxLimit before its
	// client is evicted, and how long Close lets the writers write what is
	// queued.
	outboxGrace = time.Second
	// sweepPeriod is how often the sweeper runs, so each deadline above is
	// judged at most this late.
	sweepPeriod = outboxGrace / 2
)

// Indices into the server.member family's counter schema.
const (
	memberAcks      = iota // ExecAcks received from the member
	memberLastAcks         // times the member was the last acker (critical path)
	memberTimeouts         // events and transfers that expired while waiting on the member
	memberPushbacks        // lock holders' attempts the member's socket did not take whole
)

// Stats is a snapshot of server counters. It stays a comparable struct
// (scalar fields only) so callers can diff snapshots with ==.
type Stats struct {
	// Events is the number of Event messages processed.
	Events uint64
	// LockFailures counts events and state transfers rejected because the
	// group lock failed
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
	// LockAttempts counts group-lock acquisitions tried (by events, state
	// transfers, and at start each restored floor); LockUndone counts locks
	// rolled back by the undo-locking algorithm on contention.
	LockAttempts uint64
	LockUndone   uint64
	// EventTimeouts counts events and state transfers resolved by the event
	// deadline instead of a full acknowledgement set.
	EventTimeouts uint64
	// Evictions counts clients dropped because their outbox stayed over the
	// outbox limit for longer than the outbox grace.
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
	// LogAppendErrors counts durable-log appends that failed. Each refused
	// what needed it: a failed ID lease or event record its event, a failed
	// control-plane record its request, which changed nothing.
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
	// UnixNano. It drives the ping and the liveness deadline; atomic because
	// the connection read goroutine writes it and the sweeper reads it.
	lastSeen atomic.Int64
}

// touch refreshes the liveness clock of the connection.
func (c *client) touch(now time.Time) { c.lastSeen.Store(now.UnixNano()) }

// New returns a started server. Call Close to stop it.
func New(opts Options) *Server {
	opts = opts.withDefaults()
	st := newState(opts.HistoryDepth, obs.LoggerOr(opts.Logger).With("component", "server"))
	if opts.EventLog != nil {
		// Restore the durable state before any goroutine starts: it runs
		// single-threaded against databases nothing else has seen yet, so
		// recovery needs no locking discipline.
		off, n, err := st.restore(opts.EventLog.Dir(), opts.EventLog.ReplayCounter())
		if err != nil {
			// Open refused every directory Fsck calls corrupt, so this is
			// the residual: a record that passes its CRC but does not decode.
			st.log.Warn("event log replay stopped early", "records", n, "offset", off, "err", err)
		}
		if off > 0 {
			st.log.Info("event log replayed", "records", n, "offset", off,
				"instances", st.reg.Len(), "links", st.graph.Len())
		}
	}
	s := newServer(opts, st)
	for _, id := range st.reg.Instances() {
		var held []couple.ObjectRef
		if _, tok := st.sessionTok[id]; tok {
			held = s.declaredRefs(id)
			s.locks.TryLockGroup(held, restoreOwner(id))
		}
		s.restored[id] = held
	}
	wire.InstrumentBodyPool(s.mPoolHits, s.mPoolMisses)
	if s.elog != nil {
		s.snap = &snapshotter{s: s}
	}
	// Tickers are armed before their goroutines start, so a test's clock has
	// them once New returns.
	s.wg.Add(1)
	go s.sweeper(opts.Clock.NewTicker(sweepPeriod))
	if s.snap != nil && (opts.SnapshotInterval > 0 || opts.SnapshotBytes > 0) {
		s.wg.Add(1)
		go s.snapshotLoop(opts.Clock.NewTicker(s.snapshotPeriod()))
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
	if opts.BatchLimit == 0 {
		opts.BatchLimit = defaultBatchLimit
	}
	opts.Clock = clock.Or(opts.Clock)
	return opts
}

// newServer builds a stopped server around st, logging where st does: locks
// and metric handles only — no goroutines. opts has its defaults resolved.
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
		locks:        lock.NewTable(),
		elog:         opts.EventLog,
		quit:         make(chan struct{}),
		clients:      make(map[couple.InstanceID]*client),
		restored:     make(map[couple.InstanceID][]couple.ObjectRef),
		pendingFetch: make(map[uint64]*fetch),
		gmu: serial{
			mBusy:  metrics.Counter("server.global.busy_ns"),
			mDepth: metrics.Gauge("server.global.queue_depth"),
		},
		// Event IDs run on from the restored floor, above every logged one.
		ev: eventLock{
			serial: serial{
				mBusy:  metrics.Counter("server.event_lock.busy_ns"),
				mDepth: metrics.Gauge("server.event_lock.queue_depth"),
			},
			seq:     st.floor,
			pending: make(map[uint64]*pendingEvent),
			plans:   make(map[couple.ObjectRef]*plan),
		},

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
		mEventTOWait:   metrics.Histogram("server.event_timeout_wait_ns"),
		mHistEvict:     metrics.Counter("server.hist_evictions"),
		mLogAppendErrs: metrics.Counter("server.log.append_errors"),
		mLinkNotices:   metrics.Counter("server.link_notices"),

		started: opts.Clock.Now(),
	}
	s.mMember = metrics.Family("server.member", obs.FamilySchema{
		Counters: []string{"acks", "last_acks", "timeouts", "pushbacks"},
		Hist:     "ack_ns",
		EWMA:     "ack_ewma_ns",
		Label:    "member",
	})
	st.history.Instrument(s.mHistEvict)
	s.locks.Instrument(s.mLockAttempts, s.mLockFails, s.mLockUndone)
	s.locks.TraceWith(opts.Tracer)
	return s
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
		s.gmu.lock()
		s.closing = true
		s.cmu.RLock()
		// Every writer writes what is queued, within the outbox grace; then
		// the connections close, which fails a write still blocked on a
		// member that stopped reading instead of holding Close on it forever.
		for _, c := range s.clients {
			c.out.shut()
		}
		expired := make(chan struct{})
		grace := s.opts.Clock.AfterFunc(outboxGrace, func() { close(expired) })
		for _, c := range s.clients {
			select {
			case <-c.out.done:
			case <-expired:
			}
			c.conn.Close()
			<-c.out.done
		}
		grace.Stop()
		s.cmu.RUnlock()
		s.gmu.unlock()
		close(s.quit)
	})
	s.wg.Wait()
}

// Stats returns a consistent snapshot of the server counters, or zeros once
// the server is closing.
func (s *Server) Stats() Stats {
	s.gmu.lock()
	defer s.gmu.unlock()
	if s.closing {
		return Stats{}
	}
	return Stats{
		Events:           s.mEvents.Value(),
		LockFailures:     s.mLockFails.Value(),
		ExecsSent:        s.mExecsSent.Value(),
		Copies:           s.mCopies.Value(),
		Instances:        s.st.reg.Len(),
		Links:            s.st.graph.Len(),
		EventRTT:         s.mEventRTT.Summary(),
		Fanout:           s.mFanout.Summary(),
		OutboxDepth:      s.mOutboxDepth.Value(),
		OutboxHighWater:  s.mOutboxDepth.HighWater(),
		LockAttempts:     s.mLockAttempts.Value(),
		LockUndone:       s.mLockUndone.Value(),
		EventTimeouts:    s.mEventTOs.Value(),
		Evictions:        s.mEvictions.Value(),
		LivenessTimeouts: s.mLivenessTOs.Value(),
		Resumes:          s.mResumes.Value(),
		AcksCoalesced:    s.mAcksCoalesced.Value(),
		BatchSize:        s.mBatchSize.Summary(),
		BytesEncoded:     s.mBytesEncoded.Value(),
		BodyPoolHits:     s.mPoolHits.Value(),
		BodyPoolMisses:   s.mPoolMisses.Value(),
		PendingEvents:    s.pendingCount(),
		EventTimeoutWait: s.mEventTOWait.Summary(),
		LogAppendErrors:  s.mLogAppendErrs.Value(),
		LinkNotices:      s.mLinkNotices.Value(),
	}
}

// pendingCount counts the still-pending events under the event lock.
func (s *Server) pendingCount() int {
	s.ev.lock()
	defer s.ev.unlock()
	return len(s.ev.pending)
}

// clientOf returns the connected client of an instance. Callable from any
// goroutine: clients sits behind a read-mostly lock.
func (s *Server) clientOf(id couple.InstanceID) (*client, bool) {
	s.cmu.RLock()
	c, ok := s.clients[id]
	s.cmu.RUnlock()
	return c, ok
}

// handleConn runs the read loop for one connection: the first message must
// be Register (fresh instance) or Resume (reconnection presenting a session
// token); afterwards each record runs here, under the lock of the state it
// touches, before the next is read.
func (s *Server) handleConn(c *wire.Conn) {
	c.CountEncodedBytes(s.mBytesEncoded)
	env, err := s.firstFrame(c)
	if err != nil {
		c.Close()
		return
	}
	cl := &client{
		conn: c,
		name: c.RemoteAddr().String(),
	}
	cl.out = newOutbox(c, s.opts.Clock, s.mOutboxDepth, s.opts.BatchLimit, s.mBatchSize, s.outboxRecorder(cl))
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
		cl.touch(s.opts.Clock.Now())
		if !s.dispatch(cl, &rec) {
			break
		}
	}
	// The rest of a packed frame the loop stopped in is never dispatched:
	// give back the relay bodies of the Events among it.
	for c.Pending() && c.Next(&rec) == nil {
		rec.Release()
	}
	// Connection gone: clean up, unless Close is tearing everything down.
	s.gmu.lock()
	if !s.closing {
		s.dropClient(cl, "connection closed")
	}
	s.gmu.unlock()
	cl.out.close()
	c.Close()
}

// firstFrame reads c's first frame under the sweep's liveness rule (closed
// after three silent heartbeats), and closes c if Close comes first.
func (s *Server) firstFrame(c *wire.Conn) (wire.Envelope, error) {
	silent := s.opts.Clock.AfterFunc(3*heartbeat, func() { c.Close() })
	defer silent.Stop()
	read := make(chan struct{})
	defer close(read)
	go func() {
		select {
		case <-s.quit:
			c.Close()
		case <-read:
		}
	}()
	return c.Read()
}

// admitRegister performs the fresh-registration handshake under gmu,
// returning an error text for the client ("" on success).
func (s *Server) admitRegister(cl *client, env wire.Envelope, reg wire.Register) string {
	cl.user = reg.User
	s.gmu.lock()
	defer s.gmu.unlock()
	if s.closing {
		return "server: shutting down"
	}
	cl.id = s.st.reg.NextID(reg.AppType)
	if err := s.commit(eventlog.Record{Kind: eventlog.KindRegister, Origin: string(cl.id), Env: wire.Envelope{Msg: reg}}); err != nil {
		return "server: registration failed: " + err.Error()
	}
	s.admit(cl, env, wire.Registered{ID: cl.id}, nil)
	s.slog.Info("instance registered",
		"inst", string(cl.id), "user", reg.User, "host", reg.Host, "app", reg.AppType)
	return ""
}

// admitResume reclaims a session by token under gmu: any still-open previous
// connection for the instance is superseded (dropped as a disconnect would),
// and the new connection re-registers under the original instance ID. The
// reply carries the next token, minted before it, and says whether the
// registry still held the instance: a kept one (restored by a restart, and
// holding its groups' floors since) has its declarations and links, missed no
// event and no transfer, and is sent its groups' links ahead of the reply; a
// dropped one must declare, couple and pull its state again.
func (s *Server) admitResume(cl *client, env wire.Envelope, m wire.Resume) string {
	s.gmu.lock()
	defer s.gmu.unlock()
	if s.closing {
		return "server: shutting down"
	}
	sess, ok := s.st.sessions[m.Token]
	if !ok {
		return "server: unknown session token"
	}
	if old, connected := s.clientOf(sess.id); connected {
		s.dropClient(old, "superseded by resume")
		old.conn.Close()
	}
	_, err := s.st.reg.Lookup(sess.id)
	reply := wire.Registered{ID: sess.id, Kept: err == nil}
	// The database half — the token is consumed, and the instance
	// re-registered unless its record survives as a ghost of the pre-crash
	// incarnation — is the logged transition itself.
	if err := s.commit(eventlog.Record{Kind: eventlog.KindResume, Origin: string(sess.id), Env: wire.Envelope{Msg: m}}); err != nil {
		return "server: resume failed: " + err.Error()
	}
	cl.id = sess.id
	cl.user = sess.user
	// A token the log refused is not sent: the session ends at the next cut.
	if tok, err := s.mintSession(cl); err == nil {
		reply.Token = tok
	}
	var ahead []couple.Link
	if reply.Kept {
		s.instanceGroups(cl.id, func(_ []couple.ObjectRef, links []couple.Link) { ahead = append(ahead, links...) })
	}
	s.mResumes.Inc()
	s.admit(cl, env, reply, ahead)
	// Only now, with the client in clients and its reply queued, does it let
	// its groups' floors go: an event or transfer granted from here on finds
	// it connected and sends it the Exec or ApplyState behind the reply.
	s.releaseRestored(cl.id)
	s.slog.Info("instance resumed", "inst", string(cl.id), "user", cl.user, "kept", reply.Kept)
	return ""
}

// admit installs a freshly identified client and answers the handshake with
// reply, after the links it sends ahead. Its caller holds gmu.
func (s *Server) admit(cl *client, env wire.Envelope, reply wire.Registered, ahead []couple.Link) {
	// Resolve the member's health entry once; event-lock holders then attribute
	// acks through the cached pointer without touching the family lock.
	cl.health = s.mMember.Get(string(cl.id))
	s.cmu.Lock()
	s.clients[cl.id] = cl
	s.cmu.Unlock()
	s.mClients.Add(1)
	cl.name = string(cl.id)
	cl.touch(s.opts.Clock.Now())
	s.recordFlight(cl, "recv", env)
	s.notifyLinks([]couple.InstanceID{cl.id}, ahead, true)
	s.gmu.out.send(cl, wire.Envelope{RefSeq: env.Seq, Msg: reply})
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
// connection's read goroutine runs admit before it reads its next frame —
// so every later recorder (that goroutine for its own records, other lock
// holders for what they send it) sees the final name.
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

// outbox decouples the server from connection back-pressure. A lock holder
// queues what it sends and, once it has let the lock go, flushes the outbox
// itself, with one attempt
// (see attempt): a non-blocking write that never stalls the lock. Whatever
// an attempt could not hand the kernel a writer goroutine drains, and it is
// the only code that ever blocks on the socket. One flush has the Conn at a
// time (flushing). The queue never blocks the sender — the server is the
// ordering authority and must never stall on a slow client — but the outbox
// remembers how long the backlog has stayed above outboxLimit so the sweeper
// can evict the client instead of buffering without bound.
type outbox struct {
	mu   sync.Mutex
	cond *sync.Cond // wakes the writer; it is the only waiter
	conn *wire.Conn
	// clock dates overSince.
	clock clock.Clock
	// queue collects records while a flush writes the previous backlog out
	// of the other backing array; the two swap on every drain (spare is the
	// idle one), so steady traffic enqueues into memory it already owns. A
	// flushed or dropped record is zeroed in place: neither array keeps a
	// shared body or a message reachable past its flush.
	queue  []wire.Outgoing
	spare  []wire.Outgoing
	closed bool
	// flushing is set while a flush — the writer's, or a lock holder's
	// attempt — has the Conn; the other side leaves the Conn alone
	// until it clears. tail is set when an attempt left bytes the kernel did
	// not take: the writer writes them before anything else, and nobody
	// attempts until it has.
	flushing bool
	tail     bool
	done     chan struct{}
	depth    *obs.Gauge          // shared across outboxes: total server backlog
	onSend   func(wire.Envelope) // flight-recorder hook; nil when disabled
	// inflight counts envelopes a flush took but has not yet written;
	// inflight+len(queue) is the true backlog the eviction limit measures.
	inflight int
	// batchLimit caps envelopes per packed Batch frame; <=1 disables packing.
	batchLimit int
	batchSize  *obs.Histogram // envelopes per packed frame (server.batch_size)
	// overSince is when the backlog last rose above outboxLimit; zero while
	// at or under the mark.
	overSince time.Time
}

func newOutbox(c *wire.Conn, clk clock.Clock, depth *obs.Gauge, batchLimit int, batchSize *obs.Histogram, onSend func(wire.Envelope)) *outbox {
	if batchLimit > wire.MaxBatch {
		batchLimit = wire.MaxBatch
	}
	o := &outbox{conn: c, clock: clk, done: make(chan struct{}), depth: depth,
		batchLimit: batchLimit, batchSize: batchSize, onSend: onSend}
	o.cond = sync.NewCond(&o.mu)
	go o.writer()
	return o
}

// writer drains the outbox with blocking writes: the tail an attempt left
// first (the Conn writes it ahead of the next frame), then everything queued
// since, until the outbox closes with nothing left to write. It never takes
// the Conn while an attempt has it.
func (o *outbox) writer() {
	defer close(o.done)
	c := o.conn
	o.mu.Lock()
	for {
		for o.flushing || !o.closed && len(o.queue) == 0 && !o.tail {
			o.cond.Wait()
		}
		if len(o.queue) == 0 && !o.tail {
			o.mu.Unlock()
			return
		}
		take := o.take()
		o.mu.Unlock()
		// The first blocking write of flush writes a pending tail first;
		// Flush is left only a tail with nothing queued behind it. On an
		// error flush still releases every record it took.
		err := o.flush(c, take)
		if err == nil {
			err = c.Flush()
		}
		o.mu.Lock()
		o.tail = false
		if !o.settle(take, err) {
			o.mu.Unlock()
			c.Close()
			return
		}
	}
}

// take hands the whole backlog to a flush in one slice: everything that
// queued up while the previous flush ran becomes one flush, which is what
// gives flush-time packing a run to pack. Callers hold mu.
func (o *outbox) take() []wire.Outgoing {
	take := o.queue
	o.queue, o.spare = o.spare, nil
	o.inflight = len(take)
	o.flushing = true
	return take
}

// settle ends the flush of take, which returned err, and reports whether the
// outbox is still open. On an error — the connection broke, or a record it
// cannot frame — it drops the remaining output and closes the outbox; the
// caller then closes the connection, so the read loop's teardown drops the
// client and every event waiting on it counts it absent. flush released the
// shared bodies of everything it took, so only the still-queued records hold
// references here. Callers hold mu.
func (o *outbox) settle(take []wire.Outgoing, err error) bool {
	o.flushing = false
	if err != nil {
		o.depth.Add(-int64(o.inflight + len(o.queue)))
		dropOutgoing(o.queue)
		o.inflight = 0
		o.queue = o.queue[:0]
		o.closed = true
		o.tail = false
		return false
	}
	if cap(take) <= maxIdleOutbox {
		o.spare = take[:0]
	}
	o.inflight = 0
	if len(o.queue) <= outboxLimit {
		o.overSince = time.Time{}
	}
	return true
}

// attempt is a lock holder's flush of what it queued: when no flush has the
// Conn and no tail is pending, the holder writes the backlog itself, as
// attempts (wire.Conn.BeginAttempt) — the same packing and frames as the
// writer's flush, in at most one non-blocking write per frame run — and
// wakes the writer only for a tail the kernel did not take. Otherwise, or
// over a Conn that cannot attempt, it wakes the writer to write the backlog.
// It reports whether the socket pushed back: the attempt left a tail.
func (o *outbox) attempt() bool {
	o.mu.Lock()
	if o.flushing || o.tail || o.closed || !o.conn.CanAttempt() || len(o.queue) == 0 {
		if len(o.queue) > 0 {
			o.cond.Signal()
		}
		o.mu.Unlock()
		return false
	}
	take := o.take()
	o.mu.Unlock()
	c := o.conn
	c.BeginAttempt()
	err := o.flush(c, take)
	tail := c.EndAttempt()
	o.mu.Lock()
	o.tail = tail
	open := o.settle(take, err)
	// The writer waits for this flush to end whenever it has work — records
	// queued meanwhile, the tail, or a close to finish — and only then.
	if len(o.queue) > 0 || o.tail || o.closed {
		o.cond.Signal()
	}
	o.mu.Unlock()
	if !open {
		c.Close()
	}
	return tail
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
		if o.inflight+len(o.queue) <= outboxLimit {
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

// enqueue queues rec, taking the outbox's own reference to a shared body. It
// does not wake the writer: the sender flushes the outbox itself (see
// outgoing).
func (o *outbox) enqueue(rec wire.Outgoing) {
	o.mu.Lock()
	if !o.closed {
		if rec.Shared != nil {
			rec.Shared.Ref()
		}
		o.queue = append(o.queue, rec)
		o.depth.Add(1)
		if o.inflight+len(o.queue) > outboxLimit && o.overSince.IsZero() {
			o.overSince = o.clock.Now()
		}
	}
	o.mu.Unlock()
	if o.onSend != nil {
		// Only the flight recorder needs the decoded message; Envelope
		// materializes the member's Exec on demand for shared records.
		o.onSend(rec.Envelope())
	}
}

// overLimitSince reports when the backlog rose above outboxLimit, or a zero
// time if it is currently at or under it.
func (o *outbox) overLimitSince() time.Time {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.overSince
}

// close closes the outbox and waits for the writer to write what is queued
// and exit.
func (o *outbox) close() {
	o.shut()
	<-o.done
}

// shut closes the outbox: it takes nothing more, and the writer exits once
// it has written what is queued.
func (o *outbox) shut() {
	o.mu.Lock()
	o.closed = true
	o.cond.Signal()
	o.mu.Unlock()
}

// sweeper is the server's one clock for deadlines. Every sweepPeriod it runs
// the expiry pass under the event lock, then the liveness and backpressure sweep
// under gmu, until the server closes.
func (s *Server) sweeper(t clock.Ticker) {
	defer s.wg.Done()
	defer t.Stop()
	for {
		select {
		case <-t.C():
			s.expireEvents()
			if !s.sweep() {
				return
			}
		case <-s.quit:
			return
		}
	}
}

// sweep takes gmu and evicts clients whose backlog has exceeded outboxLimit
// for longer than outboxGrace, declares clients silent for three heartbeats
// dead, and pings the survivors that have sent nothing for a heartbeat: any
// frame proves its peer alive, so a busy connection is never pinged. Killing
// the connection lets the normal handleConn teardown release locks and
// resolve pending events, so both failure paths share one cleanup. It
// reports false, and does nothing, once the server is closing.
func (s *Server) sweep() bool {
	s.gmu.lock()
	defer s.gmu.unlock()
	if s.closing {
		return false
	}
	now := s.opts.Clock.Now()
	s.expireRestored(now)
	// Copy under the read lock, then release it: dropClient re-takes the
	// write lock.
	s.cmu.RLock()
	for _, cl := range s.clients {
		s.swept = append(s.swept, cl)
	}
	s.cmu.RUnlock()
	for _, cl := range s.swept {
		if since := cl.out.overLimitSince(); !since.IsZero() && now.Sub(since) > outboxGrace {
			s.mEvictions.Inc()
			s.slog.Warn("client evicted: outbox over limit",
				"inst", string(cl.id), "limit", outboxLimit,
				"over_for", now.Sub(since).String())
			s.dropClient(cl, "evicted: outbox over limit")
			cl.conn.Close()
			continue
		}
		switch silent := now.Sub(time.Unix(0, cl.lastSeen.Load())); {
		case silent > 3*heartbeat:
			s.mLivenessTOs.Inc()
			s.slog.Warn("client declared dead: liveness timeout",
				"inst", string(cl.id), "silent_for", silent.String())
			s.dropClient(cl, "liveness timeout")
			cl.conn.Close()
		case silent >= heartbeat:
			s.nextPing++
			s.gmu.out.send(cl, wire.Envelope{Msg: wire.Ping{Nonce: s.nextPing}})
		}
	}
	clear(s.swept)
	s.swept = s.swept[:0]
	return true
}

// expireRestored is the sweep's pass over the instances the log restored:
// once three heartbeats have passed since the server started, each one that
// has not resumed is declared dead as a silent connection is, through the
// same departure, which lets its floor go, and the window closes. A
// departure the log refuses leaves its instance registered and resumable, as
// it does for a connection; the log has failed closed then, so it grants no
// event either. Its caller holds gmu.
func (s *Server) expireRestored(now time.Time) {
	if s.restored == nil || now.Sub(s.started) <= 3*heartbeat {
		return
	}
	ids := make([]couple.InstanceID, 0, len(s.restored))
	for id := range s.restored {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		s.mLivenessTOs.Inc()
		s.slog.Warn("restored instance declared dead: it did not resume", "inst", string(id))
		s.depart(id, "liveness timeout")
	}
	s.restored = nil
}

// restoreOwner is the lock owner of a restored instance's floor: sequence 0,
// which no event or transfer gets, since IDs start at 1.
func restoreOwner(id couple.InstanceID) lock.Owner { return lock.Owner{Instance: id} }

// declaredRefs lists the objects instance id has declared.
func (s *Server) declaredRefs(id couple.InstanceID) []couple.ObjectRef {
	rec, err := s.st.reg.Lookup(id)
	if err != nil {
		return nil
	}
	refs := make([]couple.ObjectRef, 0, len(rec.Objects))
	for path := range rec.Objects {
		refs = append(refs, couple.ObjectRef{Instance: id, Path: path})
	}
	return refs
}

// releaseRestored lets a restored instance's floor go, once it has resumed
// or departed. Its caller holds gmu.
func (s *Server) releaseRestored(id couple.InstanceID) {
	held, ok := s.restored[id]
	if !ok {
		return
	}
	delete(s.restored, id)
	s.locks.UnlockGroup(held, restoreOwner(id))
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
