package main

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"cosoft/internal/couple"
	"cosoft/internal/obs"
	"cosoft/internal/wire"
)

// unlockNotice is what the probe hands the driver when the group's floor is
// free again.
type unlockNotice struct {
	at    time.Time
	trace obs.TraceContext // the event's arrival-span context; zero when untraced
}

// probeMember is a group member speaking the protocol over a bare wire.Conn:
// it declares one textfield, acknowledges every Exec, and signals the driver
// when SetLocks{Locked:false} arrives. That notice is the moment every other
// user's widget is re-enabled (§3.2), which the origin itself is never sent
// (the server skips the source object), so a member has to watch for it.
type probeMember struct {
	id     couple.InstanceID
	conn   *wire.Conn
	unlock chan unlockNotice
	execs  atomic.Int64 // Execs acknowledged
	done   chan struct{}
	err    error // first read-loop error other than the final close

	// spans collects the probe's own hops when the run is traced.
	traced bool
	mu     sync.Mutex
	spans  []obs.Span
}

// joinProbe registers a probe with the server at addr and declares path as a
// textfield. The origin couples to ref() afterwards.
func joinProbe(addr, path string, traced bool) (*probeMember, error) {
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("probe: dial: %w", err)
	}
	p := &probeMember{
		conn: wire.NewConn(raw),
		// One notice per accepted event and the driver takes it before
		// dispatching the next, so one slot is all the protocol can fill.
		unlock: make(chan unlockNotice, 1),
		done:   make(chan struct{}),
		traced: traced,
	}
	if traced {
		p.conn.EnableTrace()
	}
	fail := func(err error) (*probeMember, error) {
		p.conn.Close()
		return nil, err
	}
	if err := p.conn.Write(wire.Envelope{Seq: 1, Msg: wire.Register{AppType: "probe", Host: "bench", User: "probe"}}); err != nil {
		return fail(fmt.Errorf("probe: register: %w", err))
	}
	env, err := p.conn.Read()
	if err != nil {
		return fail(fmt.Errorf("probe: register reply: %w", err))
	}
	reg, ok := env.Msg.(wire.Registered)
	if !ok {
		return fail(fmt.Errorf("probe: unexpected registration reply %s", env.Msg.MsgType()))
	}
	p.id = reg.ID
	if err := p.conn.Write(wire.Envelope{Seq: 2, Msg: wire.Declare{Path: path, Class: "textfield"}}); err != nil {
		return fail(fmt.Errorf("probe: declare: %w", err))
	}
	if env, err = p.conn.Read(); err != nil {
		return fail(fmt.Errorf("probe: declare reply: %w", err))
	}
	if _, ok := env.Msg.(wire.OK); !ok {
		return fail(fmt.Errorf("probe: declare refused: %v", env.Msg))
	}
	go p.readLoop()
	return p, nil
}

func (p *probeMember) ref(path string) couple.ObjectRef {
	return couple.ObjectRef{Instance: p.id, Path: path}
}

func (p *probeMember) readLoop() {
	defer close(p.done)
	inst := string(p.id)
	for {
		env, err := p.conn.Read()
		if err != nil {
			return // closed by close() or by the server shutting down
		}
		switch m := env.Msg.(type) {
		case wire.Exec:
			ack := wire.Envelope{Msg: wire.ExecAck{EventID: m.EventID}}
			var sp obs.Span
			if p.traced && env.Trace.Valid() {
				// The probe re-executes nothing, so its apply span is only
				// the hand-off; it still gives the server's exec_ack point a
				// parent, like a full client's client.exec_apply does.
				sp = obs.Span{Trace: env.Trace.Trace, ID: newSpanID(), Parent: env.Trace.Span,
					Name: "bench.probe_apply", Inst: inst, Start: time.Now().UnixNano()}
				ack.Trace = obs.TraceContext{Trace: sp.Trace, Span: sp.ID}
			}
			if err := p.conn.Write(ack); err != nil {
				p.err = fmt.Errorf("probe: exec ack: %w", err)
				return
			}
			p.execs.Add(1)
			if sp.ID != 0 {
				sp.End = time.Now().UnixNano()
				p.record(sp)
			}
		case wire.SetLocks:
			if m.Locked {
				continue
			}
			n := unlockNotice{at: time.Now(), trace: env.Trace}
			if p.traced && env.Trace.Valid() {
				t := n.at.UnixNano()
				p.record(obs.Span{Trace: env.Trace.Trace, ID: newSpanID(), Parent: env.Trace.Span,
					Name: "bench.unlock_notice", Inst: inst, Start: t, End: t})
			}
			select {
			case p.unlock <- n:
			default:
				p.err = fmt.Errorf("probe: unlock notice for an event the driver never waited on")
				return
			}
		case wire.Ping:
			if err := p.conn.Write(wire.Envelope{Msg: wire.Pong{Nonce: m.Nonce}}); err != nil {
				p.err = fmt.Errorf("probe: pong: %w", err)
				return
			}
		}
	}
}

func (p *probeMember) record(s obs.Span) {
	p.mu.Lock()
	p.spans = append(p.spans, s)
	p.mu.Unlock()
}

// close tears the connection down and waits for the read loop.
func (p *probeMember) close() {
	p.conn.Close()
	<-p.done
}
