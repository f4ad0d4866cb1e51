package client

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"cosoft/internal/attr"
	"cosoft/internal/netsim"
	"cosoft/internal/server"
	"cosoft/internal/widget"
	"cosoft/internal/wire"
)

// twoClients connects two clients with distinct specs to one server: the
// first opts into the batch extension, the second is a plain peer.
func twoClients(t *testing.T, specA, specB string) (*Client, *Client) {
	t.Helper()
	srv := server.New(testServerOptions())
	var wg sync.WaitGroup
	t.Cleanup(func() {
		srv.Close()
		wg.Wait()
	})
	mk := func(spec string, batching bool) *Client {
		link := netsim.NewLink(0)
		wg.Add(1)
		go func() {
			defer wg.Done()
			srv.HandleConn(wire.NewConn(link.B))
		}()
		reg := widget.NewRegistry()
		widget.MustBuild(reg, "/", spec)
		c, err := New(link.A, Options{AppType: "p", User: "u", Host: "h",
			Registry: reg, RPCTimeout: 5 * time.Second, Batching: batching})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.Close)
		return c
	}
	return mk(specA, true), mk(specB, false)
}

func TestCoupleTreePartial(t *testing.T) {
	// A's form has an extra slider; B's form has an extra label; the rest
	// matches by name/class. Plain CoupleTree would refuse.
	a, b := twoClients(t,
		`form panel title="A"
  textfield shared value="a-text"
  scale extraA min=0 max=10
  menu pick items=[x,y] selection="x"`,
		`form panel title="B"
  textfield shared value="b-text"
  menu pick items=[x,y] selection="y"
  label extraB label="only here"`)
	if err := a.DeclareTree("/panel"); err != nil {
		t.Fatal(err)
	}
	if err := b.DeclareTree("/panel"); err != nil {
		t.Fatal(err)
	}
	if _, err := a.CoupleTree("/panel", b.Ref("/panel"), SyncNone); err == nil {
		t.Fatal("full CoupleTree must refuse non-s-compatible trees")
	}

	report, err := a.CoupleTreePartial("/panel", b.Ref("/panel"), SyncPush)
	if err != nil {
		t.Fatal(err)
	}
	wantCoupled := [][2]string{{"", ""}, {"shared", "shared"}, {"pick", "pick"}}
	if !reflect.DeepEqual(report.Coupled, wantCoupled) {
		t.Errorf("Coupled = %v", report.Coupled)
	}
	if !reflect.DeepEqual(report.LocalOnly, []string{"extraA"}) {
		t.Errorf("LocalOnly = %v", report.LocalOnly)
	}
	if !reflect.DeepEqual(report.RemoteOnly, []string{"extraB"}) {
		t.Errorf("RemoteOnly = %v", report.RemoteOnly)
	}

	// The initial push aligned the matched pair's relevant state.
	waitStr(t, b, "/panel/shared", widget.AttrValue, "a-text")

	// Events on the matched pair replicate; the unmatched slider stays
	// private.
	retryDispatch(t, a, &widget.Event{Path: "/panel/shared", Name: widget.EventChanged,
		Args: []attr.Value{attr.String("partial!")}})
	waitStr(t, b, "/panel/shared", widget.AttrValue, "partial!")
	retryDispatch(t, a, &widget.Event{Path: "/panel/extraA", Name: widget.EventMoved,
		Args: []attr.Value{attr.Int(7)}})
	if b.Coupled("/panel/extraB") {
		t.Error("unmatched remote component must stay uncoupled")
	}
	if a.Coupled("/panel/extraA") {
		t.Error("unmatched local component must stay uncoupled")
	}
}

func TestCoupleTreePartialIncompatibleRoots(t *testing.T) {
	a, b := twoClients(t, `canvas c`, `textfield x`)
	if err := a.Declare("/c"); err != nil {
		t.Fatal(err)
	}
	if err := b.Declare("/x"); err != nil {
		t.Fatal(err)
	}
	report, err := a.CoupleTreePartial("/c", b.Ref("/x"), SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Coupled) != 0 {
		t.Errorf("Coupled = %v", report.Coupled)
	}
	if len(report.LocalOnly) != 1 || len(report.RemoteOnly) != 1 {
		t.Errorf("report = %+v", report)
	}
}

func TestCoupleTreePartialErrors(t *testing.T) {
	a, b := twoClients(t, `form f`, `form f`)
	if _, err := a.CoupleTreePartial("/missing", b.Ref("/f"), SyncNone); err == nil {
		t.Error("missing local tree must fail")
	}
	if _, err := a.CoupleTreePartial("/f", b.Ref("/undeclared"), SyncNone); err == nil {
		t.Error("undeclared remote must fail")
	}
}

func TestJSONSemantics(t *testing.T) {
	type model struct {
		Query string   `json:"query"`
		Hits  []string `json:"hits"`
	}
	src := &model{Query: "author=zhao", Hits: []string{"a", "b"}}
	sem, _ := JSONSemantics(src)
	data, err := sem.Store()
	if err != nil {
		t.Fatal(err)
	}
	dst := &model{}
	sem2, _ := JSONSemantics(dst)
	if err := sem2.Load(data); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(src, dst) {
		t.Errorf("round trip: %+v vs %+v", src, dst)
	}
	if err := sem2.Load([]byte("{bad")); err == nil {
		t.Error("bad JSON must fail")
	}
	// Unmarshalable values fail at Store.
	bad, _ := JSONSemantics(&struct{ C chan int }{})
	if _, err := bad.Store(); err == nil {
		t.Error("unmarshalable store must fail")
	}
}

func TestKVSemantics(t *testing.T) {
	src := map[string]string{"a": "1", "b": "2"}
	semSrc, _ := KVSemantics(src)
	data, err := semSrc.Store()
	if err != nil {
		t.Fatal(err)
	}
	dst := map[string]string{"stale": "x"}
	semDst, _ := KVSemantics(dst)
	if err := semDst.Load(data); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(src, dst) {
		t.Errorf("kv = %v", dst)
	}
	if err := semDst.Load([]byte("nope")); err == nil {
		t.Error("bad payload must fail")
	}
}

func TestJSONSemanticsEndToEnd(t *testing.T) {
	a, b := twoClients(t, `textfield x value="ui"`, `textfield x`)
	if err := a.Declare("/x"); err != nil {
		t.Fatal(err)
	}
	if err := b.Declare("/x"); err != nil {
		t.Fatal(err)
	}
	type model struct{ N int }
	semA, muA := JSONSemantics(&model{N: 41})
	a.RegisterSemantics("/x", semA)
	dst := &model{}
	semB, muB := JSONSemantics(dst)
	b.RegisterSemantics("/x", semB)
	_ = muA
	if err := a.CopyTo("/x", b.Ref("/x"), false); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		muB.Lock()
		n := dst.N
		muB.Unlock()
		if n == 41 {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("semantic state not transferred: %+v", dst)
}

func waitStr(t *testing.T, c *Client, path, name, want string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		w, err := c.Registry().Lookup(path)
		if err == nil && w.Attr(name).AsString() == want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("%s.%s never reached %q", path, name, want)
}

func retryDispatch(t *testing.T, c *Client, e *widget.Event) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := c.DispatchChecked(e); err == nil {
			return
		} else if time.Now().After(deadline) {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestMarkOriginCongruence(t *testing.T) {
	srv := server.New(testServerOptions())
	var wg sync.WaitGroup
	t.Cleanup(func() {
		srv.Close()
		wg.Wait()
	})
	mk := func(mark bool) *Client {
		link := netsim.NewLink(0)
		wg.Add(1)
		go func() {
			defer wg.Done()
			srv.HandleConn(wire.NewConn(link.B))
		}()
		reg := widget.NewRegistry()
		widget.MustBuild(reg, "/", `textfield x value=""`)
		c, err := New(link.A, Options{AppType: "m", User: "u", Host: "h",
			Registry: reg, RPCTimeout: 5 * time.Second, MarkOrigin: mark})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.Close)
		if err := c.Declare("/x"); err != nil {
			t.Fatal(err)
		}
		return c
	}
	a := mk(false)
	b := mk(true)
	if err := a.Couple("/x", b.Ref("/x")); err != nil {
		t.Fatal(err)
	}
	retryDispatch(t, a, &widget.Event{Path: "/x", Name: widget.EventChanged,
		Args: []attr.Value{attr.String("from-a")}})
	waitStr(t, b, "/x", widget.AttrValue, "from-a")
	// b (marking enabled) records the origin; a (disabled) records nothing
	// even after receiving state.
	waitStr(t, b, "/x", OriginAttr, string(a.ID()))
	if err := b.CopyTo("/x", a.Ref("/x"), false); err != nil {
		t.Fatal(err)
	}
	waitStr(t, a, "/x", widget.AttrValue, "from-a")
	wa, _ := a.Registry().Lookup("/x")
	if wa.State().Has(OriginAttr) {
		t.Error("origin marked despite MarkOrigin=false")
	}
	// The provenance attribute never leaks into relevant-state captures.
	ts, err := b.FetchState(b.Ref("/x"), true)
	if err != nil {
		t.Fatal(err)
	}
	if ts.Attrs.Has(OriginAttr) {
		t.Error("origin attribute leaked into relevant state")
	}
}
