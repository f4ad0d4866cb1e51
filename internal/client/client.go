// Package client implements the application-instance side of the coupling
// model: the extension that hooks a widget.Registry's event dispatch into
// the central server, re-executes remote events, answers state requests, and
// exposes the paper's primitives (Couple/Decouple, CopyTo/CopyFrom,
// RemoteCopy, CoSendCommand, undo/redo).
//
// Making an application cooperative requires no more than creating a Client
// over its widget registry and declaring the couplable objects — "no more
// programming than inserting a statement to register the application with
// the server is needed" (§4).
package client

import (
	"errors"
	"fmt"
	"log/slog"
	"net"
	"runtime/debug"
	"sync"
	"time"

	"cosoft/internal/clock"
	"cosoft/internal/compat"
	"cosoft/internal/couple"
	"cosoft/internal/obs"
	"cosoft/internal/widget"
	"cosoft/internal/wire"
)

// Errors reported by client operations.
var (
	ErrClosed       = errors.New("client: closed")
	ErrTimeout      = errors.New("client: request timed out")
	ErrRejected     = errors.New("client: event rejected")
	ErrDisconnected = errors.New("client: connection lost")
)

// CommandHandler processes an application-defined command (§3.4): the
// receiving side of CoSendCommand.
type CommandHandler func(from couple.InstanceID, payload []byte)

// Semantics holds the store/load functions of application data attached to
// a UI object (§3.1 "Synchronizing semantic state").
type Semantics struct {
	// Store packs the semantic data of the object for transfer.
	Store func() ([]byte, error)
	// Load unpacks transferred semantic data into the application. It runs
	// once the UI state the data rode with has landed.
	Load func([]byte) error
}

// Options configures a Client.
type Options struct {
	// AppType names the application; instances of different AppTypes are
	// heterogeneous.
	AppType string
	// Host and User describe the participant for the registration record.
	Host string
	User string
	// Registry is the application's widget tree. Required.
	Registry *widget.Registry
	// Correspondences used for client-side s-compatibility matching. Nil
	// means same-class only. (The server holds its own copy for validation.)
	Correspondences *compat.Correspondences
	// RPCTimeout bounds each request/response round trip (0 = 30s).
	RPCTimeout time.Duration
	// OnStateApplied, if set, is called after a remote state lands on a
	// local object.
	OnStateApplied func(path string, origin couple.InstanceID)
	// OnRemoteEvent, if set, is called after a remote event was re-executed
	// locally.
	OnRemoteEvent func(e *widget.Event)
	// MarkOrigin, when set, records the originating instance on every
	// widget that received a remote event or state copy, in the
	// OriginAttr attribute. Applications use it to render remote
	// modifications differently — the congruence-of-views relaxation
	// (GROVE's "different colors for certain purposes", §1).
	MarkOrigin bool
	// Metrics receives the client's RPC and re-execution latency
	// histograms. Nil disables measurement (zero-allocation no-ops).
	Metrics obs.Sink
	// Reconnect enables automatic reconnection: when the connection drops,
	// the client redials with exponential backoff, resumes its session (same
	// instance ID) and re-declares its objects. If the server had dropped the
	// instance, it also re-creates its couple links and pulls the current
	// state of every coupled object; the pull holds the floor of the
	// object's group until its state has landed, so the server denies every
	// event in the group meanwhile, this instance's own included, and a pull
	// the floor refuses is tried again until the floor is free. An instance
	// the server kept (a restart's) missed nothing and pulls nothing. Nil
	// disables reconnection: a dropped connection is final.
	Reconnect *ReconnectOptions
	// Tracer records causal spans for this instance's hops: event sends and
	// remote re-executions; their frames carry the trace context, and the
	// rest carry none. Nil disables tracing at zero cost.
	Tracer *obs.Tracer
	// Batching does nothing: every client reads packed frames and answers a
	// run of Execs with one coalesced BatchAck.
	//
	// Deprecated: kept only for the benchmark module, which sets it at
	// bench/topo.go:247; delete it together with that line.
	Batching bool
	// Logger receives structured logs keyed by instance and trace IDs. Nil
	// disables structured logging.
	Logger *slog.Logger
	// Clock is what the RPC timeout, the handshake watchdog and the reconnect
	// backoff read. Nil is the wall clock. It is a test seam: a test
	// advances a clock.Manual past a timeout instead of waiting it out.
	Clock clock.Clock
}

// Client connects one application instance to the coupling server.
type Client struct {
	opts    Options
	reg     *widget.Registry
	checker *compat.Checker
	id      couple.InstanceID

	mu       sync.Mutex
	conn     *wire.Conn // current connection; replaced on reconnect
	nextSeq  uint64
	waiters  map[uint64]waiter
	free     []chan wire.Envelope // reply channels of finished calls, for the next ones
	links    *couple.Graph
	cmds     map[string]CommandHandler
	sem      map[string]Semantics
	declared map[string]string // path → class of every declared object (resync source)
	token    string            // resumable session token; "" without Reconnect
	closed   bool

	inq *inqueue
	// frame collects the records of the frame being read that are for the
	// dispatch loop; it belongs to the read loop, which queues it as one unit
	// once the frame's last record is routed.
	frame []wire.Record
	// ackRun collects the acknowledgements of the Execs applied since the last
	// flush; it belongs to the dispatch loop and is reused from run to run.
	ackRun []wire.BatchAckEntry
	done   chan struct{}
	rdone  chan struct{} // closed when the read machinery stops for good
	wg     sync.WaitGroup

	// Metric handles (nil-safe no-ops when Options.Metrics is nil).
	mRPC  *obs.Histogram // client.rpc_ns: request/response round trips
	mExec *obs.Histogram // client.exec_ns: remote-event re-execution to ack

	tr   *obs.Tracer  // nil when tracing is disabled
	slog *slog.Logger // never nil (discards when Options.Logger is nil)
}

// New performs the registration handshake over conn and starts the client
// loops.
func New(conn net.Conn, opts Options) (*Client, error) {
	if opts.Registry == nil {
		return nil, errors.New("client: Options.Registry is required")
	}
	if opts.RPCTimeout == 0 {
		opts.RPCTimeout = 30 * time.Second
	}
	opts.Clock = clock.Or(opts.Clock)
	metrics := obs.Or(opts.Metrics)
	c := &Client{
		opts:     opts,
		reg:      opts.Registry,
		checker:  compat.NewChecker(opts.Registry.Classes(), opts.Correspondences),
		waiters:  make(map[uint64]waiter),
		links:    couple.NewGraph(),
		cmds:     make(map[string]CommandHandler),
		sem:      make(map[string]Semantics),
		declared: make(map[string]string),
		inq:      newInqueue(),
		done:     make(chan struct{}),
		rdone:    make(chan struct{}),
		mRPC:     metrics.Histogram("client.rpc_ns"),
		mExec:    metrics.Histogram("client.exec_ns"),
		tr:       opts.Tracer,
		slog:     obs.LoggerOr(opts.Logger).With("component", "client"),
	}
	wc, reply, pre, err := c.handshake(conn, wire.Register{AppType: opts.AppType, Host: opts.Host, User: opts.User})
	if err != nil {
		return nil, err
	}
	c.conn, c.id, c.nextSeq = wc, reply.ID, 1
	c.route(wc, pre)
	c.slog = c.slog.With("inst", string(c.id))
	c.slog.Debug("registered", "user", opts.User, "host", opts.Host)

	// Hook the toolkit: local events on coupled objects go through the
	// server; everything else is processed locally.
	c.reg.OnEvent(c.handleLocalEvent)
	c.reg.OnDestroy(func(w *widget.Widget) {
		// Automatic decoupling of destroyed objects (§3.2).
		if err := c.callOK(wire.Retract{Path: w.Path()}); err != nil && !errors.Is(err, ErrClosed) {
			c.slog.Warn("retract failed", "path", w.Path(), "error", err.Error())
		}
		c.mu.Lock()
		delete(c.declared, w.Path())
		c.mu.Unlock()
	})

	c.wg.Add(3)
	go c.supervise()
	go c.dispatchLoop()
	// Armed here, so a test's clock has the sweep's ticker once New returns.
	go c.sweepWaiters(opts.Clock.NewTicker(max(opts.RPCTimeout/4, 1)))

	if opts.Reconnect != nil {
		// Mint the resumable session token up front so it is in hand before
		// any disconnect. Only reconnect-enabled clients pay the extra RPC.
		env, err := c.call(wire.SessionToken{})
		m, ok := env.Msg.(wire.SessionToken)
		if !ok {
			c.Close()
			if err == nil {
				err = fmt.Errorf("reply %v", env.Msg)
			}
			return nil, fmt.Errorf("client: session token: %w", err)
		}
		c.mu.Lock()
		c.token = m.Token
		c.mu.Unlock()
	}
	return c, nil
}

// ID returns the server-assigned application instance identifier.
func (c *Client) ID() couple.InstanceID { return c.id }

// Registry returns the widget registry this client extends.
func (c *Client) Registry() *widget.Registry { return c.reg }

// Ref returns the global reference of a local object.
func (c *Client) Ref(path string) couple.ObjectRef {
	return couple.ObjectRef{Instance: c.id, Path: path}
}

// Close deregisters and tears down the connection.
func (c *Client) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	conn := c.conn
	// The Deregister carries a real sequence number with a registered
	// waiter, so the server's OK reply is routed here instead of surfacing
	// in dispatchLoop as an "unexpected server message". (A Seq of 0 would
	// make the reply's RefSeq 0, the marker for server-initiated traffic.)
	c.nextSeq++
	seq := c.nextSeq
	ack := make(chan wire.Envelope, 1)
	c.waiters[seq] = c.newWaiter(ack)
	c.mu.Unlock()
	// Best effort orderly exit; the server also handles abrupt closes. The
	// wait is bounded: a dead or unresponsive server ends it via readLoop
	// exit or the RPC timeout the sweep delivers.
	if err := conn.Write(wire.Envelope{Seq: seq, Msg: wire.Deregister{}}); err == nil {
		select {
		case <-ack:
		case <-c.rdone:
		}
	}
	c.dropWaiter(seq)
	close(c.done)
	conn.Close()
	c.reg.OnEvent(nil)
	c.reg.OnDestroy(nil)
	c.wg.Wait()
	// Fail anybody still waiting for replies.
	c.failWaiters()
}

// call sends a request and waits for its correlated reply.
func (c *Client) call(msg wire.Message) (wire.Envelope, error) {
	return c.callCtx(msg, obs.TraceContext{})
}

// callCtx is call with causal-trace context stamped on the request
// envelope; the server parents its hop spans under tc.
func (c *Client) callCtx(msg wire.Message, tc obs.TraceContext) (wire.Envelope, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return wire.Envelope{}, ErrClosed
	}
	c.nextSeq++
	seq := c.nextSeq
	reply := c.takeSlot()
	c.waiters[seq] = c.newWaiter(reply)
	c.mu.Unlock()

	t0 := c.mRPC.Start()
	if err := c.send(wire.Envelope{Seq: seq, Trace: tc, Msg: msg}); err != nil {
		c.withdraw(seq, reply)
		return wire.Envelope{}, c.sendError(msg, err)
	}
	env, ok := <-reply
	switch {
	case !ok:
		// The waiter was failed: either the client closed or the connection
		// dropped mid-request (the reply is gone for good — requests do not
		// survive a reconnect). A closed channel is never reused.
		if c.isClosed() {
			return wire.Envelope{}, ErrClosed
		}
		return wire.Envelope{}, fmt.Errorf("%w: %s", ErrDisconnected, msg.MsgType())
	case env.Msg == nil:
		c.putSlot(reply)
		return wire.Envelope{}, fmt.Errorf("%w: %s", ErrTimeout, msg.MsgType())
	}
	c.putSlot(reply)
	c.mRPC.ObserveSince(t0)
	return env, nil
}

// sendError reports a request that never left: a frame too large to send as
// itself, and a transport that failed under the write as the loss it is — the
// same ErrDisconnected (or, once Close has begun, ErrClosed) a request cut
// while waiting for its reply reports.
func (c *Client) sendError(msg wire.Message, err error) error {
	switch {
	case errors.Is(err, wire.ErrFrameTooLarge):
		return fmt.Errorf("client: send %s: %w", msg.MsgType(), err)
	case c.isClosed():
		return ErrClosed
	default:
		return fmt.Errorf("%w: send %s: %w", ErrDisconnected, msg.MsgType(), err)
	}
}

// waiter is one request awaiting its reply: the channel the reply goes to and
// the moment the sweep gives up on it. Whoever takes a waiter out of the map
// delivers to its channel exactly once: the read loop the reply, the sweep a
// zero Envelope for a timeout, failWaiters a close. So a channel that has
// delivered once is empty again, and callCtx keeps it for the next call.
type waiter struct {
	reply    chan wire.Envelope
	deadline time.Time
}

// newWaiter is a waiter on reply that times out after the RPC timeout.
func (c *Client) newWaiter(reply chan wire.Envelope) waiter {
	return waiter{reply: reply, deadline: c.opts.Clock.Now().Add(c.opts.RPCTimeout)}
}

// maxFreeSlots bounds the free list: calls beyond this many at once get a
// channel of their own, which is dropped when they return.
const maxFreeSlots = 8

// takeSlot pops a reply channel off the free list, or makes one. The caller
// holds c.mu.
func (c *Client) takeSlot() chan wire.Envelope {
	if n := len(c.free); n > 0 {
		ch := c.free[n-1]
		c.free[n-1] = nil
		c.free = c.free[:n-1]
		return ch
	}
	return make(chan wire.Envelope, 1)
}

// putSlot returns an empty, open reply channel to the free list.
func (c *Client) putSlot(ch chan wire.Envelope) {
	c.mu.Lock()
	if len(c.free) < maxFreeSlots {
		c.free = append(c.free, ch)
	}
	c.mu.Unlock()
}

// withdraw gives up a request whose frame could not be sent. If its waiter is
// still in the map, the channel is returned to the free list; if the read
// loop, the sweep or failWaiters took it first, what it delivered is drained
// so the next call cannot receive it, and a closed channel is dropped.
func (c *Client) withdraw(seq uint64, reply chan wire.Envelope) {
	c.mu.Lock()
	_, waiting := c.waiters[seq]
	delete(c.waiters, seq)
	c.mu.Unlock()
	if !waiting {
		if _, open := <-reply; !open {
			return
		}
	}
	c.putSlot(reply)
}

// sweepWaiters times out overdue requests until the client closes. t ticks
// every quarter RPC timeout, so a request times out at most that much late.
func (c *Client) sweepWaiters(t clock.Ticker) {
	defer c.wg.Done()
	defer t.Stop()
	for {
		select {
		case now := <-t.C():
			c.expireWaiters(now)
		case <-c.done:
			return
		}
	}
}

// expireWaiters takes every waiter whose deadline has passed out of the map
// and hands it the zero Envelope that reports its timeout. The send cannot
// block: the channel holds one envelope, and only the remover delivers.
func (c *Client) expireWaiters(now time.Time) {
	c.mu.Lock()
	for seq, w := range c.waiters {
		if now.After(w.deadline) {
			delete(c.waiters, seq)
			w.reply <- wire.Envelope{}
		}
	}
	c.mu.Unlock()
}

// callOK sends a request expecting a plain OK.
func (c *Client) callOK(msg wire.Message) error {
	env, err := c.call(msg)
	if err != nil {
		return err
	}
	switch m := env.Msg.(type) {
	case wire.OK:
		return nil
	case wire.Err:
		return errors.New(m.Text)
	default:
		return fmt.Errorf("client: unexpected reply %s to %s", env.Msg.MsgType(), msg.MsgType())
	}
}

func (c *Client) dropWaiter(seq uint64) {
	c.mu.Lock()
	delete(c.waiters, seq)
	c.mu.Unlock()
}

// isClosed reports whether Close has started.
func (c *Client) isClosed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closed
}

// send writes one envelope on the current connection.
func (c *Client) send(env wire.Envelope) error {
	c.mu.Lock()
	conn := c.conn
	c.mu.Unlock()
	return conn.Write(env)
}

// failWaiters fails every outstanding request: their replies died with the
// connection and will never arrive, even if a reconnect succeeds.
func (c *Client) failWaiters() {
	c.mu.Lock()
	for seq, w := range c.waiters {
		close(w.reply)
		delete(c.waiters, seq)
	}
	c.mu.Unlock()
}

// supervise owns the connection lifecycle: it runs the read loop for the
// current connection and, when reconnection is configured, replaces a dead
// connection and resynchronizes; otherwise the first connection loss is
// final.
func (c *Client) supervise() {
	defer c.wg.Done()
	defer c.inq.close()
	defer close(c.rdone)
	c.mu.Lock()
	conn := c.conn
	c.mu.Unlock()
	for {
		c.readConn(conn)
		c.failWaiters()
		if c.isClosed() || c.opts.Reconnect == nil {
			return
		}
		c.slog.Warn("connection lost, reconnecting")
		next, reply, pre, err := c.redial()
		if err != nil {
			c.slog.Error("reconnect failed", "error", err.Error())
			return
		}
		// The resume spent the token; the reply carries the next one.
		c.mu.Lock()
		c.conn, c.token = next, reply.Token
		c.mu.Unlock()
		conn = next
		c.route(conn, pre)
		c.level(reply.Kept, pre)
		// Resync runs concurrently with the resumed read loop: its RPCs need
		// the loop to route replies. Safe to Add here: supervise itself holds
		// the WaitGroup above zero.
		c.wg.Add(1)
		go c.resync(reply.Kept)
	}
}

// readConn routes replies to waiters and server-initiated traffic to the
// dispatch queue, until conn fails.
func (c *Client) readConn(conn *wire.Conn) {
	defer c.dropFrame()
	var rec wire.Record
	for conn.Next(&rec) == nil {
		if !c.handleIncoming(conn, &rec) {
			return
		}
	}
}

// handleIncoming routes one received record exactly as the read loop does.
// Records the read loop handles inline (replies, liveness, link mirroring)
// are routed at once; the others of one frame are queued together once its
// last record is in, so the dispatch loop finds a packed run of Execs whole
// and answers it with one coalesced ack. It reports false when the
// connection or the dispatch queue has failed. Only the server relays an
// Event's payload, so a stray Event's relay body is given back at once.
func (c *Client) handleIncoming(conn *wire.Conn, rec *wire.Record) bool {
	rec.Release()
	handled, err := c.routeLocal(conn, rec)
	if err != nil {
		return false
	}
	if !handled {
		c.frame = append(c.frame, *rec)
	}
	if conn.Pending() || len(c.frame) == 0 {
		return true
	}
	ok := c.inq.push(c.frame...)
	c.dropFrame()
	return ok
}

// dropFrame empties the read loop's frame slice, dropping an array a long
// frame grew past maxIdleInqueue.
func (c *Client) dropFrame() {
	clear(c.frame)
	c.frame = c.frame[:0]
	if cap(c.frame) > maxIdleInqueue {
		c.frame = nil
	}
}

// routeLocal handles the message kinds the read loop consumes inline,
// reporting whether rec was consumed. A non-nil error means the connection
// failed.
func (c *Client) routeLocal(conn *wire.Conn, rec *wire.Record) (bool, error) {
	if rec.RefSeq != 0 {
		c.mu.Lock()
		w, ok := c.waiters[rec.RefSeq]
		if ok {
			delete(c.waiters, rec.RefSeq)
		}
		c.mu.Unlock()
		if ok {
			w.reply <- rec.Box()
		}
		return true, nil
	}
	switch m := rec.Msg.(type) {
	case wire.Ping:
		// Answer liveness probes from the read loop: a slow application
		// callback in the dispatch queue must not make a healthy client
		// look dead.
		return true, conn.Write(wire.Envelope{Msg: wire.Pong{Nonce: m.Nonce}})
	// Coupling information is mirrored synchronously so that a Couple
	// call observes its own link as soon as the server confirmed it
	// (the LinkAdded precedes the OK on the same connection).
	case wire.LinkAdded:
		if err := c.links.AddLink(m.Link); err != nil {
			c.slog.Warn("mirror link failed", "error", err.Error())
		}
		return true, nil
	case wire.LinkRemoved:
		c.links.RemoveLink(m.Link.From, m.Link.To)
		c.pruneMirror(m.Link.From)
		c.pruneMirror(m.Link.To)
		return true, nil
	}
	return false, nil
}

// pruneMirror forgets the mirrored links of o's group once a removal has
// left no local object in it. The server reports changes only to instances
// with an object in the group, so from here on those links could go stale
// unseen, and a later re-merge — which sends the far side as it then is, not
// what to forget — would resurrect them as ghost members. Pruning keeps the
// mirror exactly the links of the groups of this instance's own objects.
func (c *Client) pruneMirror(o couple.ObjectRef) {
	if c.links.Owns(o, c.id) {
		return
	}
	_, links := c.links.GroupLinks(o)
	for _, l := range links {
		c.links.RemoveLink(l.From, l.To)
	}
}

// dispatchLoop is the instance's UI thread for server-initiated work: remote
// event re-execution, state application, lock toggling, state requests and
// command delivery.
//
// Every Exec, lone or packed, and every ApplyState takes one path: it is
// applied and its acknowledgement joins the pending run, which is flushed as
// soon as the queue runs empty or before any other record is dispatched. So
// the server observes acknowledgements in record order, a packed run of
// Execs is answered by one BatchAck, and a lone Exec or ApplyState by one
// ExecAck straight after its apply; the ack is what lets the event's or the
// transfer's floor go. Each Exec's entry keeps its own apply-span context, so
// the server's per-event causal chains and its unlock bookkeeping see exactly
// what single ExecAcks would have delivered.
func (c *Client) dispatchLoop() {
	defer c.wg.Done()
	for {
		rec, last, ok := c.inq.pop()
		if !ok {
			return
		}
		switch rec.Type {
		case wire.TExec:
			c.ackRun = append(c.ackRun, c.applyExec(rec.Trace, rec.Exec))
		case wire.TApplyState:
			m := rec.Msg.(wire.ApplyState)
			c.handleApplyState(m)
			c.ackRun = append(c.ackRun, wire.BatchAckEntry{EventID: m.EventID})
		default:
			c.flushAcks()
			c.dispatchOne(&rec)
			continue
		}
		if last {
			c.flushAcks()
		}
	}
}

// flushAcks sends the pending acknowledgements (see wire.Conn.WriteAcks) and
// empties the run. The frame is encoded before WriteAcks returns, so the
// run's backing array is free to be reused.
func (c *Client) flushAcks() {
	if len(c.ackRun) == 0 {
		return
	}
	c.mu.Lock()
	conn := c.conn
	c.mu.Unlock()
	if err := conn.WriteAcks(c.ackRun); err != nil {
		c.slog.Debug("exec ack not sent", "error", err.Error())
	}
	c.ackRun = c.ackRun[:0]
}

// dispatchOne processes a single server-initiated record other than an Exec.
func (c *Client) dispatchOne(rec *wire.Record) {
	switch m := rec.Msg.(type) {
	case wire.SetLocks:
		for _, path := range m.Paths {
			if w, err := c.reg.Lookup(path); err == nil {
				w.SetDisabled(m.Locked)
			}
		}
	case wire.StateRequest:
		c.handleStateRequest(m)
	case wire.CommandDeliver:
		c.mu.Lock()
		h := c.cmds[m.Name]
		c.mu.Unlock()
		if h != nil {
			c.guard("command handler ", m.Name, rec.Trace.Trace, func() {
				h(m.From, m.Payload)
			})
		} else {
			c.slog.Debug("no handler for command", "command", m.Name)
		}
	default:
		c.slog.Warn("unexpected server message", "type", rec.Type.String())
	}
}

// guard runs an application callback, converting a panic into a logged
// error so one faulty handler cannot kill the dispatch loop (or lose the
// protocol acknowledgement its caller still owes the server). It reports
// whether fn completed without panicking. The callback is named by kind and
// name, joined only if it does panic.
func (c *Client) guard(kind, name string, trace obs.TraceID, fn func()) (completed bool) {
	defer c.recovered(kind, name, trace)
	fn()
	return true
}

// recovered is the deferred half of guard: it swallows a panic of the
// callback (kind+name) and logs it. It must be deferred directly — recover
// only works one frame below the panicking function's deferred call.
func (c *Client) recovered(kind, name string, trace obs.TraceID) {
	if r := recover(); r != nil {
		c.slog.Error("panic in application callback",
			"callback", kind+name, "panic", fmt.Sprint(r), "trace", trace,
			"stack", string(debug.Stack()))
	}
}

// inqueue is the unbounded FIFO between the read loop and the dispatch
// loop. It must not apply back-pressure: a blocked push for record N would
// also block reading record N+1, which may be the RPC reply a dispatch-side
// handler is waiting on — a deadlock, not a slowdown. Memory is the accepted
// cost; the server's outbox limit bounds it from the other side by evicting
// clients that stop draining.
type inqueue struct {
	mu   sync.Mutex
	cond *sync.Cond
	// q[head:] is the backlog. A popped slot is zeroed, and the backing
	// array is reused from its start whenever the queue runs empty — which
	// on the event path is after nearly every pop — so a steady stream
	// neither reallocates nor keeps consumed records reachable.
	q      []wire.Record
	head   int
	closed bool
}

// maxIdleInqueue caps the capacity (in records) an empty inqueue keeps, so
// the backlog of one slow callback is not pinned for the life of the client.
const maxIdleInqueue = 1024

func newInqueue() *inqueue {
	q := &inqueue{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// push appends recs as one unit — one lock, one wakeup — so the consumer
// never finds the queue empty part-way through them; it reports false once
// the queue is closed.
func (q *inqueue) push(recs ...wire.Record) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return false
	}
	if len(q.q)+len(recs) > cap(q.q) && q.head >= len(q.q)/2 && q.head > 0 {
		// Full with at least half of it consumed: slide the backlog down
		// instead of growing (a consumer that keeps up, but never quite
		// empties the queue, would otherwise grow it forever).
		n := copy(q.q, q.q[q.head:])
		clear(q.q[n:])
		q.q, q.head = q.q[:n], 0
	}
	q.q = append(q.q, recs...)
	q.cond.Signal()
	return true
}

// pop blocks for the next record; last reports that it emptied the queue,
// and ok is false once the queue is closed and drained.
func (q *inqueue) pop() (rec wire.Record, last, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.head == len(q.q) && !q.closed {
		q.cond.Wait()
	}
	if q.head == len(q.q) {
		return wire.Record{}, false, false
	}
	rec = q.q[q.head]
	q.q[q.head] = wire.Record{}
	q.head++
	if q.head == len(q.q) {
		q.q, q.head = q.q[:0], 0
		if cap(q.q) > maxIdleInqueue {
			q.q = nil
		}
		return rec, true, true
	}
	return rec, false, true
}

func (q *inqueue) close() {
	q.mu.Lock()
	q.closed = true
	q.cond.Broadcast()
	q.mu.Unlock()
}

// Coupled reports whether the local object currently participates in a
// coupling group, according to the locally replicated coupling information.
func (c *Client) Coupled(path string) bool {
	return c.links.Coupled(c.Ref(path))
}

// Links returns the locally mirrored couple links — those of the groups this
// instance's own objects are in — in deterministic order.
func (c *Client) Links() []couple.Link { return c.links.Links() }

// CO returns the locally mirrored coupling group of a local object,
// excluding the object itself.
func (c *Client) CO(path string) []couple.ObjectRef {
	return c.links.CO(c.Ref(path))
}

// OnCommand registers the handler for an application-defined command name.
func (c *Client) OnCommand(name string, h CommandHandler) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cmds[name] = h
}

// SendCommand sends an application-defined command through the server
// (CoSendCommand, §3.4). Empty targets broadcast to all other instances.
func (c *Client) SendCommand(name string, payload []byte, targets ...couple.InstanceID) error {
	return c.callOK(wire.Command{Name: name, Targets: targets, Payload: payload})
}

// RegisterSemantics attaches store/load functions for the semantic data of
// a local object. They run automatically when the object's state is copied.
func (c *Client) RegisterSemantics(path string, s Semantics) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sem[path] = s
}

// Instances returns the server's registration records.
func (c *Client) Instances() ([]wire.InstanceInfo, error) {
	env, err := c.call(wire.ListInstances{})
	if err != nil {
		return nil, err
	}
	switch m := env.Msg.(type) {
	case wire.InstanceList:
		return m.Instances, nil
	case wire.Err:
		return nil, errors.New(m.Text)
	default:
		return nil, fmt.Errorf("client: unexpected reply %s", env.Msg.MsgType())
	}
}

// GrantPerm installs an access-permission rule on the server.
func (c *Client) GrantPerm(user, state string, right uint8) error {
	return c.callOK(wire.GrantPerm{User: user, State: state, Right: right})
}

// RevokePerm removes an access-permission rule on the server.
func (c *Client) RevokePerm(user, state string, right uint8) error {
	return c.callOK(wire.RevokePerm{User: user, State: state, Right: right})
}
