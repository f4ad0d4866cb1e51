package client

import (
	"errors"
	"io"
	"log/slog"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"cosoft/internal/attr"
	"cosoft/internal/clock"
	"cosoft/internal/netsim"
	"cosoft/internal/server"
	"cosoft/internal/widget"
	"cosoft/internal/wire"
)

// testServerOptions is the default option set for every test server in this
// package: the product configuration.
func testServerOptions() server.Options {
	return server.Options{}
}

// dial spins a private server and connects one client to it.
func dial(t *testing.T, spec string) (*Client, *server.Server) {
	t.Helper()
	srv := server.New(testServerOptions())
	var wg sync.WaitGroup
	t.Cleanup(func() {
		srv.Close()
		wg.Wait()
	})
	link := netsim.NewLink(0, nil, netsim.Schedule{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		srv.HandleConn(wire.NewConn(link.B))
	}()
	reg := widget.NewRegistry()
	if spec != "" {
		widget.MustBuild(reg, "/", spec)
	}
	c, err := New(link.A, Options{
		AppType: "unit", User: "u", Host: "h", Registry: reg,
		RPCTimeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c, srv
}

func TestNewRequiresRegistry(t *testing.T) {
	link := netsim.NewLink(0, nil, netsim.Schedule{})
	defer link.Close()
	if _, err := New(link.A, Options{}); err == nil {
		t.Fatal("nil registry must fail")
	}
}

func TestNewHandshakeFailure(t *testing.T) {
	link := netsim.NewLink(0, nil, netsim.Schedule{})
	defer link.Close()
	// The "server" side refuses with Err.
	go func() {
		conn := wire.NewConn(link.B)
		env, err := conn.Read()
		if err != nil {
			return
		}
		_ = conn.Write(wire.Envelope{RefSeq: env.Seq, Msg: wire.Err{Text: "full"}})
	}()
	_, err := New(link.A, Options{Registry: widget.NewRegistry()})
	if err == nil || !strings.Contains(err.Error(), "refused") {
		t.Fatalf("err = %v", err)
	}
}

func TestNewHandshakeUnexpectedReply(t *testing.T) {
	link := netsim.NewLink(0, nil, netsim.Schedule{})
	defer link.Close()
	go func() {
		conn := wire.NewConn(link.B)
		env, err := conn.Read()
		if err != nil {
			return
		}
		_ = conn.Write(wire.Envelope{RefSeq: env.Seq, Msg: wire.OK{}})
	}()
	if _, err := New(link.A, Options{Registry: widget.NewRegistry()}); err == nil {
		t.Fatal("unexpected reply must fail")
	}
}

// TestNewHandshakeBounded: against a server that takes the Register and never
// answers, New gives up with ErrTimeout once the clock has passed the RPC
// timeout.
func TestNewHandshakeBounded(t *testing.T) {
	const timeout = 100 * time.Millisecond
	clk := clock.NewManual()
	a, b := net.Pipe()
	defer b.Close()
	go io.Copy(io.Discard, b) //nolint:errcheck
	done := make(chan error, 1)
	go func() {
		_, err := New(a, Options{Registry: widget.NewRegistry(), RPCTimeout: timeout, Clock: clk})
		done <- err
	}()
	for deadline := time.Now().Add(5 * time.Second); clk.Armed() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("New set no deadline on its handshake")
		}
	}
	clk.Advance(2 * timeout)
	select {
	case err := <-done:
		if !errors.Is(err, ErrTimeout) {
			t.Errorf("err = %v, want ErrTimeout", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("New outlived its handshake timeout on the clock")
	}
}

func TestIDAndRef(t *testing.T) {
	c, _ := dial(t, "")
	if c.ID() == "" {
		t.Fatal("empty id")
	}
	ref := c.Ref("/x")
	if ref.Instance != c.ID() || ref.Path != "/x" {
		t.Errorf("Ref = %v", ref)
	}
	if c.Registry() == nil {
		t.Error("Registry nil")
	}
}

func TestCallsAfterCloseFail(t *testing.T) {
	c, _ := dial(t, `textfield x`)
	c.Close()
	c.Close() // idempotent
	if err := c.Declare("/x"); !errors.Is(err, ErrClosed) {
		t.Errorf("Declare after close: %v", err)
	}
	if err := c.SendCommand("x", nil); !errors.Is(err, ErrClosed) {
		t.Errorf("SendCommand after close: %v", err)
	}
}

func TestDeclareUnknownWidget(t *testing.T) {
	c, _ := dial(t, "")
	if err := c.Declare("/missing"); err == nil {
		t.Fatal("declare of unknown widget must fail")
	}
}

func TestDispatchCheckedUncoupled(t *testing.T) {
	c, _ := dial(t, `textfield x`)
	if err := c.DispatchChecked(&widget.Event{
		Path: "/x", Name: widget.EventChanged, Args: []attr.Value{attr.String("v")},
	}); err != nil {
		t.Fatal(err)
	}
	w, _ := c.Registry().Lookup("/x")
	if w.Attr(widget.AttrValue).AsString() != "v" {
		t.Error("uncoupled event must run locally")
	}
	// Bad events surface their errors.
	if err := c.DispatchChecked(&widget.Event{Path: "/x", Name: "bogus"}); err == nil {
		t.Error("bad event must fail")
	}
}

func TestUncoupledEventNoServerTraffic(t *testing.T) {
	c, srv := dial(t, `textfield x`)
	if err := c.Registry().Dispatch(&widget.Event{
		Path: "/x", Name: widget.EventChanged, Args: []attr.Value{attr.String("v")},
	}); err != nil {
		t.Fatal(err)
	}
	// Uncoupled events never reach the server — the fully replicated
	// architecture's "many operations can be performed locally".
	if stats := srv.Stats(); stats.Events != 0 {
		t.Errorf("server saw %d events", stats.Events)
	}
}

func TestCoupleSelfRejected(t *testing.T) {
	c, _ := dial(t, `textfield x`)
	if err := c.Declare("/x"); err != nil {
		t.Fatal(err)
	}
	if err := c.Couple("/x", c.Ref("/x")); err == nil {
		t.Fatal("self-coupling must fail")
	}
}

func TestCoupleWithinSameInstance(t *testing.T) {
	// "including the case of two objects coupled within the same
	// application instance" (§3.3).
	c, _ := dial(t, `form f
  textfield a
  textfield b`)
	if err := c.DeclareTree("/f"); err != nil {
		t.Fatal(err)
	}
	if err := c.Couple("/f/a", c.Ref("/f/b")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for !c.Coupled("/f/a") && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if err := c.DispatchChecked(&widget.Event{
		Path: "/f/a", Name: widget.EventChanged, Args: []attr.Value{attr.String("same")},
	}); err != nil {
		t.Fatal(err)
	}
	wb, _ := c.Registry().Lookup("/f/b")
	for wb.Attr(widget.AttrValue).AsString() != "same" && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := wb.Attr(widget.AttrValue).AsString(); got != "same" {
		t.Errorf("intra-instance coupling: b = %q", got)
	}
}

func TestCoupleTreeIncompatible(t *testing.T) {
	c, _ := dial(t, `form f
  textfield a`)
	c2, _ := dial(t, "")
	_ = c2
	if err := c.DeclareTree("/f"); err != nil {
		t.Fatal(err)
	}
	// Couple against an object with a different structure within the same
	// instance (simplest incompatible target: a bare canvas).
	widget.MustBuild(c.Registry(), "/", `canvas other`)
	if err := c.Declare("/other"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CoupleTree("/f", c.Ref("/other"), SyncNone); err == nil {
		t.Fatal("structurally incompatible trees must fail")
	}
	if _, err := c.CoupleTree("/missing", c.Ref("/other"), SyncNone); err == nil {
		t.Fatal("missing local tree must fail")
	}
	if _, err := c.CoupleTree("/f", c.Ref("/undeclared"), SyncNone); err == nil {
		t.Fatal("undeclared remote must fail")
	}
}

func TestFetchStateOwnObject(t *testing.T) {
	c, _ := dial(t, `textfield x value="mine"`)
	if err := c.Declare("/x"); err != nil {
		t.Fatal(err)
	}
	ts, err := c.FetchState(c.Ref("/x"), true)
	if err != nil {
		t.Fatal(err)
	}
	if got := ts.Attrs.Get(widget.AttrValue).AsString(); got != "mine" {
		t.Errorf("fetched = %q", got)
	}
	if _, err := c.FetchState(c.Ref("/nope"), true); err == nil {
		t.Error("fetch of undeclared must fail")
	}
}

func TestUndoWithoutHistoryFails(t *testing.T) {
	c, _ := dial(t, `textfield x`)
	if err := c.Declare("/x"); err != nil {
		t.Fatal(err)
	}
	if err := c.Undo("/x"); err == nil {
		t.Error("undo with empty history must fail")
	}
	if err := c.Redo("/x"); err == nil {
		t.Error("redo with empty history must fail")
	}
	if err := c.Undo("/undeclared"); err == nil {
		t.Error("undo of undeclared object must fail")
	}
}

func TestSemanticsStoreError(t *testing.T) {
	c, _ := dial(t, `textfield x`)
	if err := c.Declare("/x"); err != nil {
		t.Fatal(err)
	}
	c.RegisterSemantics("/x", Semantics{
		Store: func() ([]byte, error) { return nil, errors.New("boom") },
	})
	// A failing store hook degrades to a UI-only copy, not a failure.
	ts, err := c.FetchState(c.Ref("/x"), true)
	if err != nil {
		t.Fatal(err)
	}
	if ts.Attrs.Has("_semantic") {
		t.Error("failed store must not attach a payload")
	}
}

// TestRPCTimeout: a peer that registers us but then never answers makes a
// call time out once the clock has passed the RPC timeout.
func TestRPCTimeout(t *testing.T) {
	const timeout = 50 * time.Millisecond
	clk := clock.NewManual()
	link := netsim.NewLink(0, nil, netsim.Schedule{})
	asked := make(chan struct{}, 1)
	go func() {
		conn := wire.NewConn(link.B)
		env, err := conn.Read()
		if err != nil {
			return
		}
		_ = conn.Write(wire.Envelope{RefSeq: env.Seq, Msg: wire.Registered{ID: "i1"}})
		for {
			if _, err := conn.Read(); err != nil {
				return
			}
			asked <- struct{}{}
		}
	}()
	reg := widget.NewRegistry()
	widget.MustBuild(reg, "/", `textfield x`)
	c, err := New(link.A, Options{Registry: reg, RPCTimeout: timeout, Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	// Cleanups run last first: the link closes before Close, whose
	// Deregister then waits for no answer.
	t.Cleanup(c.Close)
	t.Cleanup(link.Close)
	done := make(chan error, 1)
	go func() { done <- c.Declare("/x") }()
	<-asked // the call is waiting, its deadline set
	clk.Advance(2 * timeout)
	select {
	case err := <-done:
		if !errors.Is(err, ErrTimeout) {
			t.Errorf("err = %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the call outlived its timeout on the clock")
	}
}

// TestCloseQuietShutdown deregisters through Close and asserts the server's
// reply never surfaces as an "unexpected server message": the Deregister
// used to go out with Seq 0, so the OK's RefSeq 0 made it look like
// server-initiated traffic to the dispatch loop.
func TestCloseQuietShutdown(t *testing.T) {
	srv := server.New(testServerOptions())
	var wg sync.WaitGroup
	defer func() {
		srv.Close()
		wg.Wait()
	}()
	link := netsim.NewLink(0, nil, netsim.Schedule{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		srv.HandleConn(wire.NewConn(link.B))
	}()
	var logs lockedBuffer
	reg := widget.NewRegistry()
	widget.MustBuild(reg, "/", `textfield x`)
	c, err := New(link.A, Options{
		AppType: "unit", User: "u", Host: "h", Registry: reg,
		RPCTimeout: 5 * time.Second,
		Logger:     slog.New(slog.NewTextHandler(&logs, &slog.HandlerOptions{Level: slog.LevelDebug})),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Declare("/x"); err != nil {
		t.Fatal(err)
	}
	c.Close()
	// Close waits for the Deregister acknowledgement, so the instance is
	// already gone from the registration records.
	if n := srv.Stats().Instances; n != 0 {
		t.Errorf("instances after close = %d, want 0", n)
	}
	for _, line := range strings.Split(logs.String(), "\n") {
		if strings.Contains(line, "unexpected server message") {
			t.Errorf("shutdown logged: %s", line)
		}
	}
}

// lockedBuffer is the slog sink of TestCloseQuietShutdown: the client logs
// from its own goroutines.
type lockedBuffer struct {
	mu  sync.Mutex
	buf strings.Builder
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}
