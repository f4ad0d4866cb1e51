package client

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"cosoft/internal/attr"
	"cosoft/internal/netsim"
	"cosoft/internal/server"
	"cosoft/internal/widget"
	"cosoft/internal/wire"
)

// testServerOptions is the default option set for every test server in this
// package: the product configuration, with the shard count pinned so
// cross-shard migration coverage does not depend on the runner's core count.
func testServerOptions() server.Options {
	return server.Options{Shards: 4}
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
	link := netsim.NewLink(0)
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
		RPCTimeout: 5 * time.Second, Batching: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c, srv
}

func TestNewRequiresRegistry(t *testing.T) {
	link := netsim.NewLink(0)
	defer link.Close()
	if _, err := New(link.A, Options{}); err == nil {
		t.Fatal("nil registry must fail")
	}
}

func TestNewHandshakeFailure(t *testing.T) {
	link := netsim.NewLink(0)
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
	link := netsim.NewLink(0)
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

func TestRPCTimeout(t *testing.T) {
	// A peer that registers us but then never answers makes calls time out.
	link := netsim.NewLink(0)
	defer link.Close()
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
		}
	}()
	reg := widget.NewRegistry()
	widget.MustBuild(reg, "/", `textfield x`)
	c, err := New(link.A, Options{Registry: reg, RPCTimeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Declare("/x"); !errors.Is(err, ErrTimeout) {
		t.Errorf("err = %v", err)
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
	link := netsim.NewLink(0)
	wg.Add(1)
	go func() {
		defer wg.Done()
		srv.HandleConn(wire.NewConn(link.B))
	}()
	var mu sync.Mutex
	var logs []string
	reg := widget.NewRegistry()
	widget.MustBuild(reg, "/", `textfield x`)
	c, err := New(link.A, Options{
		AppType: "unit", User: "u", Host: "h", Registry: reg,
		RPCTimeout: 5 * time.Second,
		Logf: func(format string, args ...any) {
			mu.Lock()
			logs = append(logs, fmt.Sprintf(format, args...))
			mu.Unlock()
		},
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
	mu.Lock()
	defer mu.Unlock()
	for _, line := range logs {
		if strings.Contains(line, "unexpected server message") {
			t.Errorf("shutdown logged: %s", line)
		}
	}
}
