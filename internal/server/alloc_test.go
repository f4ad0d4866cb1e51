package server_test

import (
	"fmt"
	"net"
	"runtime"
	"testing"
	"time"

	"cosoft/internal/attr"
	"cosoft/internal/client"
	"cosoft/internal/couple"
	"cosoft/internal/race"
	"cosoft/internal/server"
	"cosoft/internal/widget"
	"cosoft/internal/wire"
)

// eventPathAllocBudget is the ceiling on heap allocations per member-event
// (one event reaching one member: its share of the server's lock notice,
// Exec, ack resolution and unlock notice, plus the member's own decode,
// re-execution and ack) in the topology below. It measured 15.6, run after
// run, when the budget was set (49.7 before the event path stopped
// re-deriving and re-allocating per event), so the ceiling carries a quarter
// of headroom: one more allocation per member per event is within it, a map,
// a closure and a body copy back on the per-member path are not.
const eventPathAllocBudget = 19.5

// plainMember is a group member on a bare wire.Conn that never opted into
// batching: it acknowledges every Exec and reports each unlock notice.
type plainMember struct {
	id     couple.InstanceID
	conn   *wire.Conn
	unlock chan struct{}
}

func joinPlainMember(t *testing.T, addr, path string) *plainMember {
	t.Helper()
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	p := &plainMember{conn: wire.NewConn(raw), unlock: make(chan struct{}, 1)}
	t.Cleanup(func() { p.conn.Close() })
	p.id = connCall(t, p.conn, 1, wire.Register{AppType: "plain", User: "plain", Host: "h"}).Msg.(wire.Registered).ID
	if _, ok := connCall(t, p.conn, 2, wire.Declare{Path: path, Class: "textfield"}).Msg.(wire.OK); !ok {
		t.Fatal("plain member: declare refused")
	}
	go func() {
		for {
			env, err := p.conn.Read()
			if err != nil {
				return
			}
			switch m := env.Msg.(type) {
			case wire.Exec:
				if p.conn.Write(wire.Envelope{Msg: wire.ExecAck{EventID: m.EventID}}) != nil {
					return
				}
			case wire.SetLocks:
				if !m.Locked {
					p.unlock <- struct{}{}
				}
			}
		}
	}()
	return p
}

// TestEventPathAllocBudget holds the steady-state event path to its
// allocation budget end to end: an origin, eight batching members and one
// plain member over loopback TCP, the origin dispatching as soon as the plain
// member sees the group unlocked (the benchmark's pacing), every process-wide
// malloc of 300 events divided by the member-events they caused.
func TestEventPathAllocBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts include the race detector's own; `make allocs` runs this without -race")
	}
	const (
		members = 8
		warm    = 100
		events  = 300
		path    = "/hub"
	)
	srv := server.New(server.Options{Shards: 2})
	lis, err := netListen(t)
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan struct{})
	go func() { defer close(served); _ = srv.Serve(lis) }()
	t.Cleanup(func() {
		srv.Close()
		lis.Close()
		<-served
	})

	dial := func(user string) *client.Client {
		conn, err := netDial(lis.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		reg := widget.NewRegistry()
		widget.MustBuild(reg, "/", `textfield hub value=""`)
		c, err := client.New(conn, client.Options{AppType: "bench", User: user, Host: "h",
			Registry: reg, Batching: true, RPCTimeout: 5 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.Close)
		mustOK(t, c.Declare(path))
		return c
	}
	origin := dial("origin")
	plain := joinPlainMember(t, lis.Addr().String(), path)
	mustOK(t, origin.Couple(path, couple.ObjectRef{Instance: plain.id, Path: path}))
	for i := 0; i < members; i++ {
		mustOK(t, origin.Couple(path, dial(fmt.Sprintf("m%d", i)).Ref(path)))
	}

	payload := []attr.Value{attr.String("sixty-four bytes of payload, give or take a few: 0123456789abcdef")}
	run := func(n int) {
		for i := 0; i < n; i++ {
			if err := origin.DispatchChecked(&widget.Event{Path: path, Name: widget.EventChanged, Args: payload}); err != nil {
				t.Fatalf("event %d: %v", i, err)
			}
			select {
			case <-plain.unlock:
			case <-time.After(5 * time.Second):
				t.Fatalf("event %d: no unlock notice", i)
			}
		}
	}
	run(warm)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	run(events)
	runtime.ReadMemStats(&after)

	perMember := float64(after.Mallocs-before.Mallocs) / float64(events*(members+1))
	t.Logf("%.1f allocations and %.0f bytes per member-event",
		perMember, float64(after.TotalAlloc-before.TotalAlloc)/float64(events*(members+1)))
	if perMember > eventPathAllocBudget {
		t.Errorf("event path allocates %.1f times per member-event, budget %.1f", perMember, eventPathAllocBudget)
	}
}
