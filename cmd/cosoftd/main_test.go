package main

import (
	"encoding/json"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"cosoft/internal/attr"
	"cosoft/internal/client"
	"cosoft/internal/faultnet"
	"cosoft/internal/netsim"
	"cosoft/internal/obs"
	"cosoft/internal/server"
	"cosoft/internal/widget"
	"cosoft/internal/wire"
)

func newTestMux(t *testing.T) (*obs.Registry, *obs.Tracer, *obs.FlightRecorder, *httptest.Server) {
	t.Helper()
	metrics := obs.NewRegistry()
	tr := obs.NewTracer(64)
	fr := obs.NewFlightRecorder(8)
	srv := httptest.NewServer(metricsMux(metrics, tr, fr, nil))
	t.Cleanup(srv.Close)
	return metrics, tr, fr, srv
}

func getJSON(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("GET %s: Content-Type = %q, want application/json", url, ct)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("GET %s: decode: %v", url, err)
	}
}

func TestMetricsEndpointServesJSONSnapshot(t *testing.T) {
	metrics, _, _, srv := newTestMux(t)
	metrics.Counter("server.events").Add(3)
	metrics.Counter("client.execs").Add(1)

	var snap obs.Snapshot
	getJSON(t, srv.URL+"/metrics", &snap)
	if snap.Counters["server.events"] != 3 {
		t.Fatalf("server.events = %d, want 3", snap.Counters["server.events"])
	}
	if snap.Counters["client.execs"] != 1 {
		t.Fatalf("client.execs = %d, want 1", snap.Counters["client.execs"])
	}
}

func TestMetricsEndpointNameFilter(t *testing.T) {
	metrics, _, _, srv := newTestMux(t)
	metrics.Counter("server.events").Add(3)
	metrics.Counter("client.execs").Add(1)
	metrics.Gauge("server.outbox_depth").Set(2)
	metrics.Histogram("client.exec_ns").Observe(10)

	var snap obs.Snapshot
	getJSON(t, srv.URL+"/metrics?name=server.", &snap)
	if _, ok := snap.Counters["server.events"]; !ok {
		t.Fatal("filter dropped server.events")
	}
	if _, ok := snap.Counters["client.execs"]; ok {
		t.Fatal("filter kept client.execs")
	}
	if _, ok := snap.Gauges["server.outbox_depth"]; !ok {
		t.Fatal("filter dropped server.outbox_depth gauge")
	}
	if _, ok := snap.Histograms["client.exec_ns"]; ok {
		t.Fatal("filter kept client.exec_ns histogram")
	}
}

func TestDebugTraceServesSpansAndFlight(t *testing.T) {
	_, tr, fr, srv := newTestMux(t)
	root := tr.StartRoot("client.event_send", "inst-a")
	child := tr.StartSpan(root.Context(), "server.event_arrival", "server")
	child.End()
	root.End()
	fr.Record("inst-a", obs.FlightEntry{Dir: "recv", Type: "Event", Seq: 7})

	var dump traceDump
	getJSON(t, srv.URL+"/debug/trace", &dump)
	if len(dump.Spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(dump.Spans))
	}
	byName := make(map[string]obs.Span)
	for _, s := range dump.Spans {
		byName[s.Name] = s
	}
	rootSpan, childSpan := byName["client.event_send"], byName["server.event_arrival"]
	if rootSpan.ID == 0 || childSpan.ID == 0 {
		t.Fatalf("missing expected spans, got %+v", dump.Spans)
	}
	if childSpan.Parent != rootSpan.ID {
		t.Fatal("child span does not link to root")
	}
	entries := dump.Flight["inst-a"]
	if len(entries) != 1 || entries[0].Type != "Event" || entries[0].Seq != 7 {
		t.Fatalf("flight entries = %+v", entries)
	}
}

func TestDebugTraceFilterByTraceID(t *testing.T) {
	_, tr, _, srv := newTestMux(t)
	a := tr.StartRoot("client.event_send", "inst-a")
	a.End()
	b := tr.StartRoot("client.event_send", "inst-b")
	b.End()

	var dump traceDump
	getJSON(t, srv.URL+"/debug/trace?trace="+a.Context().Trace.String(), &dump)
	if len(dump.Spans) != 1 {
		t.Fatalf("got %d spans, want 1", len(dump.Spans))
	}
	if dump.Spans[0].Trace != a.Context().Trace {
		t.Fatalf("got trace %s, want %s", dump.Spans[0].Trace, a.Context().Trace)
	}

	resp, err := http.Get(srv.URL + "/debug/trace?trace=not-hex")
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Fatalf("bad trace id: status %d, want 400", resp.StatusCode)
	}
}

func TestDebugTraceChromeFormat(t *testing.T) {
	_, tr, _, srv := newTestMux(t)
	sp := tr.StartRoot("client.event_send", "inst-a")
	sp.End()

	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	getJSON(t, srv.URL+"/debug/trace?format=chrome", &doc)
	if len(doc.TraceEvents) == 0 {
		t.Fatal("chrome trace is empty")
	}
	var sawSpan bool
	for _, ev := range doc.TraceEvents {
		if ev["name"] == "client.event_send" && ev["ph"] == "X" {
			sawSpan = true
		}
	}
	if !sawSpan {
		t.Fatalf("no complete event for client.event_send in %v", doc.TraceEvents)
	}
}

// The expvar exposition is gone: /metrics serves the same snapshot as JSON
// and as Prometheus text.
func TestDebugVarsNotServed(t *testing.T) {
	srv := httptest.NewServer(metricsMux(obs.NewRegistry(), nil, nil, nil))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/debug/vars")
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/debug/vars: status %d, want 404", resp.StatusCode)
	}
}

func TestDebugTraceNilTracerAndFlight(t *testing.T) {
	srv := httptest.NewServer(metricsMux(obs.NewRegistry(), nil, nil, nil))
	defer srv.Close()
	var dump traceDump
	getJSON(t, srv.URL+"/debug/trace", &dump)
	if len(dump.Spans) != 0 || len(dump.Flight) != 0 {
		t.Fatalf("nil tracer/flight produced data: %+v", dump)
	}
}

func TestParseLogLevel(t *testing.T) {
	cases := map[string]slog.Level{
		"debug": slog.LevelDebug,
		"info":  slog.LevelInfo,
		"WARN":  slog.LevelWarn,
		"error": slog.LevelError,
	}
	for in, want := range cases {
		got, err := parseLogLevel(in)
		if err != nil || got != want {
			t.Fatalf("parseLogLevel(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := parseLogLevel("loud"); err == nil || !strings.Contains(err.Error(), "unknown log level") {
		t.Fatalf("parseLogLevel(loud) err = %v, want unknown-level error", err)
	}
}

// dialMember connects one client to srv over an in-process link, optionally
// degraded by a faultnet schedule wrapped around the server side of the link
// (so Execs toward the member are delayed, inflating its measured ack
// latency).
func dialMember(t *testing.T, srv *server.Server, user string, sched *faultnet.Schedule) *client.Client {
	t.Helper()
	reg := widget.NewRegistry()
	widget.MustBuild(reg, "/", `textfield note value=""`)
	link := netsim.NewLink(0)
	var sc net.Conn = link.B
	if sched != nil {
		fc := faultnet.Wrap(link.B, *sched)
		t.Cleanup(func() { fc.Close() })
		sc = fc
	}
	go srv.HandleConn(wire.NewConn(sc))
	c, err := client.New(link.A, client.Options{
		AppType: "editor", User: user, Host: "testhost",
		Registry: reg, RPCTimeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatalf("dial %s: %v", user, err)
	}
	t.Cleanup(c.Close)
	return c
}

// TestDebugGroupsEndToEnd drives a live 3-member coupling group with one
// faultnet-delayed member through a real server, then checks that
// /debug/groups attributes that member as the straggler and that
// /metrics?format=prom exposes the per-member family as labeled series.
func TestDebugGroupsEndToEnd(t *testing.T) {
	metrics := obs.NewRegistry()
	srv := server.New(server.Options{Metrics: metrics})
	t.Cleanup(srv.Close)
	hsrv := httptest.NewServer(metricsMux(metrics, nil, nil, srv))
	t.Cleanup(hsrv.Close)

	a := dialMember(t, srv, "alice", nil)
	b := dialMember(t, srv, "bob", nil)
	c := dialMember(t, srv, "carol", &faultnet.Schedule{Delay: 20 * time.Millisecond})

	for _, cl := range []*client.Client{a, b, c} {
		if err := cl.Declare("/note"); err != nil {
			t.Fatalf("declare: %v", err)
		}
	}
	if err := a.Couple("/note", b.Ref("/note")); err != nil {
		t.Fatalf("couple: %v", err)
	}
	if err := a.Couple("/note", c.Ref("/note")); err != nil {
		t.Fatalf("couple: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for !c.Coupled("/note") {
		if time.Now().After(deadline) {
			t.Fatal("coupling never reached carol")
		}
		time.Sleep(2 * time.Millisecond)
	}
	for i := 0; i < 3; i++ {
		if err := a.Registry().Dispatch(&widget.Event{
			Path: "/note", Name: widget.EventChanged, Args: []attr.Value{attr.String("v")},
		}); err != nil {
			t.Fatalf("dispatch: %v", err)
		}
		for srv.Stats().PendingEvents != 0 {
			if time.Now().After(deadline) {
				t.Fatal("event never resolved")
			}
			time.Sleep(2 * time.Millisecond)
		}
	}

	var rep server.HealthReport
	getJSON(t, hsrv.URL+"/debug/groups", &rep)
	if !rep.MemberAttribution {
		t.Fatal("member attribution should be on")
	}
	if len(rep.Groups) != 1 {
		t.Fatalf("groups = %+v", rep.Groups)
	}
	g := rep.Groups[0]
	if g.Straggler != string(c.ID()) {
		t.Fatalf("straggler = %q, want %q (members %+v)", g.Straggler, c.ID(), g.Members)
	}
	if len(g.Members) != 3 || g.Members[0].Instance != string(c.ID()) {
		t.Fatalf("members = %+v", g.Members)
	}
	if g.Members[0].LastAcks != 3 {
		t.Fatalf("straggler last_acks = %d, want 3", g.Members[0].LastAcks)
	}
	if len(rep.Loops) == 0 || rep.Loops[0].Name != "global" {
		t.Fatalf("loops = %+v", rep.Loops)
	}

	resp, err := http.Get(hsrv.URL + "/metrics?format=prom")
	if err != nil {
		t.Fatalf("GET prom: %v", err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("read prom: %v", err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != obs.PromContentType {
		t.Fatalf("prom Content-Type = %q", ct)
	}
	text := string(body)
	for _, want := range []string{
		"cosoft_server_events 3",
		`cosoft_server_member_last_acks{member="` + string(c.ID()) + `"} 3`,
		`cosoft_server_member_ack_ewma_ns{member="` + string(c.ID()) + `"}`,
		`cosoft_server_member_ack_ns_bucket{member="` + string(c.ID()) + `",le="+Inf"} 3`,
		"cosoft_server_global_busy_ns",
		"cosoft_server_shard_0_queue_depth",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("prom output missing %q", want)
		}
	}
}

func TestDebugGroupsNoServer(t *testing.T) {
	hsrv := httptest.NewServer(metricsMux(obs.NewRegistry(), nil, nil, nil))
	defer hsrv.Close()
	resp, err := http.Get(hsrv.URL + "/debug/groups")
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
}

func TestMetricsPromFormatPrefixFilter(t *testing.T) {
	metrics, _, _, srv := newTestMux(t)
	metrics.Counter("server.events").Add(3)
	metrics.Counter("client.execs").Add(1)
	resp, err := http.Get(srv.URL + "/metrics?format=prom&name=server.")
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if !strings.Contains(string(body), "cosoft_server_events 3") {
		t.Fatalf("missing server.events: %s", body)
	}
	if strings.Contains(string(body), "client_execs") {
		t.Fatalf("prefix filter kept client.execs: %s", body)
	}
}
