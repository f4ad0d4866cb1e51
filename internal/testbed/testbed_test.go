package testbed_test

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cosoft/internal/client"
	"cosoft/internal/couple"
	"cosoft/internal/server"
	"cosoft/internal/testbed"
	"cosoft/internal/wire"
)

// counting is a server that counts its HandleConn goroutines: served ever,
// live now.
type counting struct {
	*server.Server
	served, live atomic.Int32
}

func (c *counting) HandleConn(conn *wire.Conn) {
	c.served.Add(1)
	c.live.Add(1)
	defer c.live.Add(-1)
	c.Server.HandleConn(conn)
}

// The invariant hook runs exactly once, while every member is still
// registered — so before any client Close, which deregisters — and a hung
// link does not stall the teardown.
func TestCheckRunsOnceBeforeAnyClientClose(t *testing.T) {
	srv := server.New(server.Options{})
	var runs, registered int
	bed := testbed.New(t, srv, testbed.Options{Check: func(s testbed.Server) error {
		runs++
		registered = s.(*server.Server).Stats().Instances
		return nil
	}})
	bed.Dial(testbed.Member{AppType: "app", User: "a", Spec: `textfield x`})
	bed.Fault(bed.Dial(testbed.Member{AppType: "app", User: "b"})).Hang()
	bed.Raw(wire.Register{AppType: "raw", User: "c"})
	bed.Close()
	bed.Close()
	if runs != 1 || registered != 3 {
		t.Errorf("the check ran %d times and saw %d instances registered, want once with 3", runs, registered)
	}
}

// After teardown no HandleConn goroutine is left — not for clients, a hung
// in-process link, raw peers, a refused handshake or a bare connection that
// never spoke.
func TestTeardownJoinsEveryHandleConn(t *testing.T) {
	for _, tcp := range []bool{false, true} {
		t.Run(fmt.Sprintf("tcp=%v", tcp), func(t *testing.T) {
			srv := &counting{Server: server.New(server.Options{})}
			bed := testbed.New(t, srv, testbed.Options{TCP: tcp})
			a := bed.Dial(testbed.Member{AppType: "app", User: "a", Spec: `textfield x`})
			b := bed.Dial(testbed.Member{AppType: "app", User: "b", Spec: `textfield x`})
			bed.Star("/x", a, b)
			if !tcp {
				bed.Fault(b).Hang()
			}
			bed.Raw(wire.Register{AppType: "raw", User: "c"})
			if p := bed.Raw(wire.Declare{Path: "/x", Class: "textfield"}); p.ID != "" {
				t.Errorf("a Declare as first frame registered %s", p.ID)
			}
			bed.Conn()
			bed.Close()
			if n := srv.live.Load(); n != 0 || srv.served.Load() != 5 {
				t.Errorf("%d of %d HandleConn goroutines still running after teardown", n, srv.served.Load())
			}
		})
	}
}

// Call correlates its answer by RefSeq while the server pushes commands onto
// the same connection, and Next drops whatever does not match.
func TestCallCorrelatesAndNextDrops(t *testing.T) {
	bed := testbed.New(t, server.New(server.Options{}), testbed.Options{})
	a := bed.Raw(wire.Register{AppType: "raw", User: "a"})
	b := bed.Raw(wire.Register{AppType: "raw", User: "b"})
	const pushes = 100
	sent := make(chan error, 1)
	go func() {
		for i := 0; i < pushes; i++ {
			if err := b.Send(wire.Command{Name: "push", Targets: []couple.InstanceID{a.ID}}); err != nil {
				sent <- err
				return
			}
		}
		sent <- nil
	}()
	for i := uint64(1); i <= pushes; i++ {
		if pong, ok := a.Call(wire.Ping{Nonce: i}).Msg.(wire.Pong); !ok || pong.Nonce != i {
			t.Fatalf("Ping %d answered by %+v", i, pong)
		}
	}
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
	a.MustOK(wire.Declare{Path: "/x", Class: "textfield"})
	b.MustOK(wire.Declare{Path: "/x", Class: "textfield"})
	link := couple.Link{From: couple.ObjectRef{Instance: b.ID, Path: "/x"}, To: couple.ObjectRef{Instance: a.ID, Path: "/x"}, Creator: b.ID}
	b.MustOK(wire.Couple{From: link.From, To: link.To})
	b.MustOK(wire.Command{Name: "last", Targets: []couple.InstanceID{a.ID}})
	if got := testbed.Next[wire.LinkAdded](a); !reflect.DeepEqual(got.Link, link) {
		t.Errorf("LinkAdded %+v, want %+v", got.Link, link)
	}
	if got := testbed.Next[wire.CommandDeliver](a); got.Name != "last" {
		t.Errorf("after the LinkAdded came %q: the pushes before it were not dropped", got.Name)
	}
}

// Cut holds the redial until whileGone returns, then waits out the resume.
func TestCutHoldsRedialUntilWhileGoneReturns(t *testing.T) {
	srv := &counting{Server: server.New(server.Options{})}
	bed := testbed.New(t, srv, testbed.Options{})
	c := bed.Dial(testbed.Member{AppType: "app", User: "u", Spec: `textfield x`,
		Reconnect: &client.ReconnectOptions{}})
	id, served := c.ID(), srv.served.Load()
	bed.Cut(c, func() {
		testbed.Wait(t, "the server to drop the member", func() bool { return srv.Stats().Instances == 0 })
		time.Sleep(50 * time.Millisecond) // an unheld first redial dials at once
		if n := srv.served.Load(); n != served {
			t.Errorf("%d connections redialed while held", n-served)
		}
	})
	if n := srv.served.Load(); n != served+1 || c.ID() != id || srv.Stats().Instances != 1 {
		t.Errorf("after the cut: %d redials, ID %s (was %s), %d instances", n-served, c.ID(), id, srv.Stats().Instances)
	}
}

// Run turns Fatalf into its error and runs the cleanups last first — the
// bed's teardown check among them.
func TestRunFatalfAndCleanups(t *testing.T) {
	stop := errors.New("stop")
	var order []int
	err := testbed.Run(func(tb testbed.TB) {
		tb.Cleanup(func() { order = append(order, 1) })
		tb.Cleanup(func() { order = append(order, 2) })
		tb.Fatalf("fn: %w", stop)
		order = append(order, 3)
	})
	if !errors.Is(err, stop) || !reflect.DeepEqual(order, []int{2, 1}) {
		t.Errorf("Run = %v with cleanups %v, want %v after [2 1]", err, order, stop)
	}
	if err := testbed.Run(func(testbed.TB) {}); err != nil {
		t.Errorf("a clean Run = %v", err)
	}
	err = testbed.Run(func(tb testbed.TB) {
		bed := testbed.New(tb, server.New(server.Options{}), testbed.Options{
			Check: func(testbed.Server) error { return stop },
		})
		bed.Dial(testbed.Member{AppType: "app", User: "u"})
	})
	if err == nil || !strings.Contains(err.Error(), "stop") {
		t.Errorf("a teardown check failing under Run = %v", err)
	}
}
