// Package testbed is the one harness under every suite, root benchmark and
// paper experiment: a coupling server, the instances dialed into it over
// in-process links or loopback TCP, raw wire-level peers, one wait, and one
// teardown that judges the server before it takes anything down.
//
// The bed reaches the server only through Server and never imports
// internal/server, so the server's own in-package tests can use it without an
// import cycle.
package testbed

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"cosoft/internal/client"
	"cosoft/internal/couple"
	"cosoft/internal/faultnet"
	"cosoft/internal/netsim"
	"cosoft/internal/widget"
	"cosoft/internal/wire"
)

// TB is the part of testing.TB the bed uses, so *testing.T and *testing.B
// pass straight in and Run can stand in for both outside a test.
type TB interface {
	Helper()
	Fatalf(format string, args ...any)
	Cleanup(func())
}

// Server is what the bed needs of a coupling server; teardown closes it.
type Server interface {
	HandleConn(*wire.Conn)
	CheckInvariants() error
	Close()
}

// Options configures a bed.
type Options struct {
	// TCP connects over loopback TCP instead of in-process links.
	TCP bool
	// Latency is the one-way latency of every in-process link.
	Latency time.Duration
	// Check is judged at teardown after Server.CheckInvariants, on the server
	// the bed is serving then.
	Check func(Server) error
}

// Member describes one instance to dial.
type Member struct {
	AppType, User string
	// Spec is built at "/" into a fresh widget registry, unless
	// Options.Registry is set.
	Spec string
	// Fault wraps the server's end of every connection of the member.
	Fault *faultnet.Schedule
	// Reconnect lets the client ride through lost connections; the bed
	// fills in Dial, so a redial reaches the server the bed serves then.
	Reconnect *client.ReconnectOptions
	// Wrap wraps the client's end of the first connection.
	Wrap func(net.Conn) net.Conn
	// Options carries the rest of the client options.
	Options client.Options
}

// member is the bed's side of a dialed client.
type member struct {
	fault   *faultnet.Schedule
	end     net.Conn       // the server's end of the current connection
	fc      *faultnet.Conn // end, when it is fault-wrapped
	hold    chan struct{}  // non-nil while Cut holds redials
	resyncs atomic.Int32
}

// Bed is a server with everything dialed into it.
type Bed struct {
	tb   TB
	opts Options
	lis  net.Listener // TCP only
	tcp  sync.Mutex   // pairs each TCP dial with its accept

	mu      sync.Mutex
	srv     Server
	closing bool
	links   []*netsim.Link
	ends    []net.Conn // the client ends of every connection
	faults  []*faultnet.Conn
	clients []*client.Client
	members map[*client.Client]*member
	peers   []*Peer
	wg      sync.WaitGroup // HandleConn goroutines and peer readers
	once    sync.Once
}

const waitTimeout = 15 * time.Second

var errClosed = errors.New("testbed: closed")

// New returns a bed serving srv; its teardown is registered with tb.
func New(tb TB, srv Server, opts Options) *Bed {
	tb.Helper()
	b := &Bed{tb: tb, srv: srv, opts: opts, members: make(map[*client.Client]*member)}
	if opts.TCP {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			tb.Fatalf("testbed: listen: %v", err)
		}
		b.lis = lis
	}
	tb.Cleanup(b.Close)
	return b
}

// connect opens one connection to the current server and serves its end on a
// HandleConn goroutine; with no server (Retarget(nil)) the end is closed, the
// refused dial a reconnecting client retries through.
func (b *Bed) connect(sched *faultnet.Schedule) (cli, end net.Conn, fc *faultnet.Conn, err error) {
	if b.lis != nil {
		b.tcp.Lock()
		cli, err = net.Dial("tcp", b.lis.Addr().String())
		if err == nil {
			end, err = b.lis.Accept()
		}
		b.tcp.Unlock()
		if err != nil {
			return nil, nil, nil, err
		}
	} else {
		l := netsim.NewLink(b.opts.Latency)
		cli, end = l.A, l.B
		b.mu.Lock()
		b.links = append(b.links, l)
		b.mu.Unlock()
	}
	if sched != nil {
		fc = faultnet.Wrap(end, *sched)
		end = fc
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closing {
		cli.Close()
		end.Close()
		return nil, nil, nil, errClosed
	}
	b.ends = append(b.ends, cli)
	if fc != nil {
		b.faults = append(b.faults, fc)
	}
	if srv := b.srv; srv == nil {
		end.Close()
	} else {
		b.wg.Add(1)
		go func() {
			defer b.wg.Done()
			srv.HandleConn(wire.NewConn(end))
		}()
	}
	return cli, end, fc, nil
}

// attach connects a member and records the server's end of its connection.
func (b *Bed) attach(mem *member) (net.Conn, error) {
	b.mu.Lock()
	hold := mem.hold
	b.mu.Unlock()
	if hold != nil {
		<-hold
	}
	cli, end, fc, err := b.connect(mem.fault)
	if err != nil {
		return nil, err
	}
	b.mu.Lock()
	mem.end, mem.fc = end, fc
	b.mu.Unlock()
	return cli, nil
}

// Dial connects a new client described by m.
func (b *Bed) Dial(m Member) *client.Client {
	b.tb.Helper()
	opts := m.Options
	opts.AppType, opts.User = m.AppType, m.User
	if opts.Host == "" {
		opts.Host = "testhost"
	}
	if opts.RPCTimeout == 0 {
		opts.RPCTimeout = 5 * time.Second
	}
	if opts.Registry == nil {
		opts.Registry = widget.NewRegistry()
		if m.Spec != "" {
			if _, err := widget.Build(opts.Registry, "/", m.Spec); err != nil {
				b.tb.Fatalf("testbed: dial %s: %v", m.User, err)
			}
		}
	}
	mem := &member{fault: m.Fault}
	if m.Reconnect != nil {
		r := *m.Reconnect
		r.Dial = func() (net.Conn, error) { return b.attach(mem) }
		r.OnResync = func(err error) {
			if m.Reconnect.OnResync != nil {
				m.Reconnect.OnResync(err)
			}
			mem.resyncs.Add(1)
		}
		opts.Reconnect = &r
	}
	conn, err := b.attach(mem)
	if err != nil {
		b.tb.Fatalf("testbed: dial %s: %v", m.User, err)
	}
	if m.Wrap != nil {
		conn = m.Wrap(conn)
	}
	c, err := client.New(conn, opts)
	if err != nil {
		b.tb.Fatalf("testbed: dial %s: %v", m.User, err)
	}
	b.mu.Lock()
	b.members[c] = mem
	b.clients = append(b.clients, c)
	b.mu.Unlock()
	return c
}

// Conn opens a bare connection for a caller that builds its own client; the
// bed closes its end at teardown.
func (b *Bed) Conn() net.Conn {
	b.tb.Helper()
	cli, _, _, err := b.connect(nil)
	if err != nil {
		b.tb.Fatalf("testbed: conn: %v", err)
	}
	return cli
}

// Fault returns the fault injector on the server's end of c's current
// connection (nil unless c was dialed with Member.Fault).
func (b *Bed) Fault(c *client.Client) *faultnet.Conn {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.members[c].fc
}

// Star declares path on every member, couples member 0's object to each of the
// others', and waits until every mirror shows the whole group.
func (b *Bed) Star(path string, members ...*client.Client) {
	b.tb.Helper()
	for _, c := range members {
		if err := c.DeclareTree(path); err != nil {
			b.tb.Fatalf("testbed: declare %s: %v", path, err)
		}
	}
	for _, c := range members[1:] {
		if err := members[0].Couple(path, c.Ref(path)); err != nil {
			b.tb.Fatalf("testbed: couple %s: %v", path, err)
		}
	}
	Wait(b.tb, "the group of "+path+" mirrored", func() bool {
		for _, c := range members {
			if len(c.CO(path)) != len(members)-1 {
				return false
			}
		}
		return true
	})
}

// Cut kills c's connection at the server's end, runs whileGone — c redials
// only after it returns, so it hears nothing of what happens meanwhile — and
// waits until c has resumed its session and resynchronized. c must have been
// dialed with Member.Reconnect.
func (b *Bed) Cut(c *client.Client, whileGone func()) {
	b.tb.Helper()
	hold := make(chan struct{})
	b.mu.Lock()
	mem := b.members[c]
	mem.hold = hold
	end, before := mem.end, mem.resyncs.Load()
	b.mu.Unlock()
	release := sync.OnceFunc(func() {
		b.mu.Lock()
		mem.hold = nil
		b.mu.Unlock()
		close(hold)
	})
	defer release()
	end.Close()
	whileGone()
	release()
	Wait(b.tb, fmt.Sprintf("%s to resume and resync", c.ID()), func() bool { return mem.resyncs.Load() > before })
}

// Retarget makes srv the server every later connection reaches — a restarted
// incarnation — and the one teardown judges and closes. Between Retarget(nil)
// and the next Retarget every dial is refused.
func (b *Bed) Retarget(srv Server) {
	b.mu.Lock()
	b.srv = srv
	b.mu.Unlock()
}

// Traffic sums the frames and bytes of every in-process link, both ways.
func (b *Bed) Traffic() (frames, bytes int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, l := range b.links {
		frames += l.TotalMessages()
		bytes += l.TotalBytes()
	}
	return frames, bytes
}

// Close tears the bed down, once, in a fixed order: the invariants are judged
// at quiescence while every member is still registered (unless the test has
// already failed), then the fault injectors are closed, so a wedged link
// cannot stall an orderly Deregister, then the clients, raw peers and bare
// connections, then the server, and last the HandleConn goroutines are
// joined. Tests call it themselves only to tear down mid-test.
func (b *Bed) Close() { b.once.Do(b.teardown) }

func (b *Bed) teardown() {
	defer b.shutdown() // also when a check fails the test
	b.mu.Lock()
	srv := b.srv
	b.mu.Unlock()
	if f, ok := b.tb.(interface{ Failed() bool }); srv == nil || ok && f.Failed() {
		return
	}
	if err := srv.CheckInvariants(); err != nil {
		b.tb.Fatalf("testbed: at teardown: %v", err)
	}
	if b.opts.Check != nil {
		if err := b.opts.Check(srv); err != nil {
			b.tb.Fatalf("testbed: at teardown: %v", err)
		}
	}
}

func (b *Bed) shutdown() {
	b.mu.Lock()
	b.closing = true
	srv, faults, clients, peers, ends := b.srv, b.faults, b.clients, b.peers, b.ends
	b.mu.Unlock()
	for _, fc := range faults {
		fc.Close()
	}
	for _, c := range clients {
		c.Close()
	}
	for _, p := range peers {
		p.Close()
	}
	for _, c := range ends {
		c.Close()
	}
	if srv != nil {
		srv.Close()
	}
	if b.lis != nil {
		b.lis.Close()
	}
	b.wg.Wait()
}

// Wait polls cond every millisecond until it holds, failing tb after 15 s.
// The pace is the one the suites always polled at: a tighter one retries a
// predicate with side effects (a dispatch) harder and shortens the slack
// between a member mirroring a value and its ack landing, which is
// timing a test is not meant to change.
func Wait(tb TB, what string, cond func() bool) {
	tb.Helper()
	deadline := time.Now().Add(waitTimeout)
	for !cond() {
		if time.Now().After(deadline) {
			tb.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// Peer speaks the wire protocol directly, to create conditions a real client
// never would: withheld acks, spoofed replies, malformed traffic.
type Peer struct {
	// ID is the instance the first frame registered or resumed ("" when the
	// server refused it); Hello is the server's answer to that frame.
	ID    couple.InstanceID
	Hello wire.Envelope
	// Events delivers, in order, every envelope no Call waits for; it is
	// closed when the connection is.
	Events <-chan wire.Envelope

	tb      TB
	conn    *wire.Conn
	events  chan wire.Envelope
	done    chan struct{}
	closed  sync.Once
	mu      sync.Mutex
	seq     uint64
	replies map[uint64]chan wire.Envelope
}

// Raw connects a raw peer whose first frame is hello — a Register, a Resume,
// or whatever a test needs the handshake to refuse — and waits for the answer.
func (b *Bed) Raw(hello wire.Message) *Peer {
	b.tb.Helper()
	cli, _, _, err := b.connect(nil)
	if err != nil {
		b.tb.Fatalf("testbed: raw peer: %v", err)
	}
	p := &Peer{
		tb:   b.tb,
		conn: wire.NewConn(cli),
		// Deep enough for everything a test leaves unread (a flood of
		// commands, a group's link notices), so the reader never stalls the
		// server's writer to this peer.
		events:  make(chan wire.Envelope, 1024),
		done:    make(chan struct{}),
		seq:     1,
		replies: make(map[uint64]chan wire.Envelope),
	}
	p.Events = p.events
	b.mu.Lock()
	b.peers = append(b.peers, p)
	b.mu.Unlock()
	if err := p.conn.Write(wire.Envelope{Seq: 1, Msg: hello}); err != nil {
		b.tb.Fatalf("testbed: raw %s: %v", hello.MsgType(), err)
	}
	// A resumed member's group traffic may overtake the answer.
	for p.Hello.RefSeq != 1 {
		env, err := p.conn.Read()
		if err != nil {
			b.tb.Fatalf("testbed: raw %s: no answer: %v", hello.MsgType(), err)
		}
		if env.RefSeq == 1 {
			p.Hello = env
		} else {
			p.events <- env
		}
	}
	if reg, ok := p.Hello.Msg.(wire.Registered); ok {
		p.ID = reg.ID
	}
	b.wg.Add(1)
	go func() {
		defer b.wg.Done()
		p.read()
	}()
	return p
}

// read routes replies to their Call and everything else to Events.
func (p *Peer) read() {
	defer close(p.events)
	for {
		env, err := p.conn.Read()
		if err != nil {
			return
		}
		if env.RefSeq != 0 {
			p.mu.Lock()
			ch := p.replies[env.RefSeq]
			delete(p.replies, env.RefSeq)
			p.mu.Unlock()
			if ch != nil {
				ch <- env
				continue
			}
		}
		select {
		case p.events <- env:
		case <-p.done:
			return
		}
	}
}

func (p *Peer) next() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.seq++
	return p.seq
}

// Send writes msg without waiting for an answer; any answer arrives on
// Events. Safe from any goroutine.
func (p *Peer) Send(msg wire.Message) error {
	return p.conn.Write(wire.Envelope{Seq: p.next(), Msg: msg})
}

// Call writes msg and returns the server's answer, correlated by RefSeq with
// whatever the server pushes meanwhile.
func (p *Peer) Call(msg wire.Message) wire.Envelope {
	p.tb.Helper()
	seq, ch := p.next(), make(chan wire.Envelope, 1)
	p.mu.Lock()
	p.replies[seq] = ch
	p.mu.Unlock()
	if err := p.conn.Write(wire.Envelope{Seq: seq, Msg: msg}); err != nil {
		p.tb.Fatalf("testbed: raw %s: %v", msg.MsgType(), err)
	}
	select {
	case env := <-ch:
		return env
	case <-time.After(waitTimeout):
		p.tb.Fatalf("testbed: raw %s: no answer", msg.MsgType())
		return wire.Envelope{}
	}
}

// MustOK is Call failing the test on an Err answer.
func (p *Peer) MustOK(msg wire.Message) {
	p.tb.Helper()
	if e, bad := p.Call(msg).Msg.(wire.Err); bad {
		p.tb.Fatalf("testbed: raw %s: %s", msg.MsgType(), e.Text)
	}
}

// Next returns the next envelope of type T on p's Events, dropping the ones
// before it.
func Next[T wire.Message](p *Peer) T {
	p.tb.Helper()
	deadline := time.After(waitTimeout)
	for {
		select {
		case env, ok := <-p.events:
			if !ok {
				var zero T
				p.tb.Fatalf("testbed: %s: connection closed waiting for %T", p.ID, zero)
			}
			if m, ok := env.Msg.(T); ok {
				return m
			}
		case <-deadline:
			var zero T
			p.tb.Fatalf("testbed: %s: timed out waiting for %T", p.ID, zero)
		}
	}
}

// ServeState answers the server's next StateRequest with st.
func (p *Peer) ServeState(st widget.TreeState) {
	p.tb.Helper()
	req := Next[wire.StateRequest](p)
	if err := p.Send(wire.StateReply{RequestID: req.RequestID, OK: true, State: st}); err != nil {
		p.tb.Fatalf("testbed: state reply: %v", err)
	}
}

// Close drops the connection, as a peer that vanished would.
func (p *Peer) Close() {
	p.closed.Do(func() {
		close(p.done)
		p.conn.Close()
	})
}

// runner is Run's TB.
type runner struct {
	err      error
	cleanups []func()
}

func (r *runner) Helper() {}

func (r *runner) Fatalf(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
	panic(r)
}

func (r *runner) Cleanup(fn func()) { r.cleanups = append(r.cleanups, fn) }

// protect runs fn, swallowing the panic Fatalf ends it with.
func (r *runner) protect(fn func()) (p any) {
	defer func() {
		if p = recover(); p == r {
			p = nil
		}
	}()
	fn()
	return nil
}

// Run calls fn with a TB of its own, for callers outside a test such as the
// paper experiments: Fatalf ends fn and becomes Run's error (%w wraps), and
// the cleanups fn registered run when it returns, last first.
func Run(fn func(TB)) error {
	r := &runner{}
	p := r.protect(func() { fn(r) })
	for i := len(r.cleanups) - 1; i >= 0; i-- {
		if q := r.protect(r.cleanups[i]); p == nil {
			p = q
		}
	}
	if p != nil {
		panic(p)
	}
	return r.err
}
