package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestTracerRecordsSpansWithLinks(t *testing.T) {
	tr := NewTracer(16)
	root := tr.StartRoot("client.event_send", "i1")
	if !root.Active() {
		t.Fatal("root span inactive on enabled tracer")
	}
	child := tr.StartSpan(root.Context(), "server.event_arrival", "server")
	pt := tr.Point(child.Context(), "server.exec_send", "server", "i2:/field")
	if !pt.Valid() {
		t.Fatal("point context invalid")
	}
	child.End()
	root.EndNote("ok")

	spans := tr.TraceSpans(root.Context().Trace)
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	byName := map[string]Span{}
	for _, s := range spans {
		byName[s.Name] = s
	}
	if byName["server.event_arrival"].Parent != byName["client.event_send"].ID {
		t.Error("arrival span not parented to send span")
	}
	if byName["server.exec_send"].Parent != byName["server.event_arrival"].ID {
		t.Error("exec_send span not parented to arrival span")
	}
	if got := byName["client.event_send"].Note; got != "ok" {
		t.Errorf("root note = %q, want ok", got)
	}
	if s := byName["server.exec_send"]; s.Start != s.End {
		t.Error("point span should be instantaneous")
	}
}

func TestTracerRingOverwritesOldest(t *testing.T) {
	tr := NewTracer(4)
	tc := tr.NewTrace()
	for i := 0; i < 10; i++ {
		tr.Point(tc, "hop", "i", "")
	}
	spans := tr.Spans()
	if len(spans) != 4 {
		t.Fatalf("ring kept %d spans, want 4", len(spans))
	}
}

func TestTracerConcurrentRecord(t *testing.T) {
	tr := NewTracer(64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tc := tr.NewTrace()
			for i := 0; i < 100; i++ {
				tr.Point(tc, "hop", "i", "")
				_ = tr.Spans()
			}
		}()
	}
	wg.Wait()
	if got := len(tr.Spans()); got != 64 {
		t.Fatalf("got %d spans, want full ring of 64", got)
	}
}

// TestNilTracerZeroAlloc is the gate for the tracing-disabled hot path: a
// nil tracer must not allocate, read the clock, or generate IDs.
func TestNilTracerZeroAlloc(t *testing.T) {
	var tr *Tracer
	allocs := testing.AllocsPerRun(100, func() {
		h := tr.StartSpan(TraceContext{Trace: 1, Span: 2}, "name", "inst")
		if h.Active() {
			h.SetNote("unreachable")
		}
		h.End()
		tr.Point(TraceContext{Trace: 1}, "p", "i", "")
		_ = tr.NewTrace()
		_ = tr.Spans()
		root := tr.StartRoot("client.event_send", "inst")
		child := tr.StartSpan(root.Context(), "server.event_arrival", "server")
		child.EndNote("ok")
		root.End()
	})
	if allocs != 0 {
		t.Fatalf("nil tracer allocated %.1f times per op, want 0", allocs)
	}
}

// TestNilFlightZeroAlloc gates the disabled flight-recorder path. The entry
// literal itself stays on the stack; Record must not move it to the heap.
func TestNilFlightZeroAlloc(t *testing.T) {
	var f *FlightRecorder
	allocs := testing.AllocsPerRun(100, func() {
		f.Record("conn", FlightEntry{Dir: "recv", Type: "Event", Seq: 1})
		_ = f.Snapshot()
		_ = f.Conns()
	})
	if allocs != 0 {
		t.Fatalf("nil flight recorder allocated %.1f times per op, want 0", allocs)
	}
}

func TestInertSpanHandleSkipsClock(t *testing.T) {
	var tr *Tracer
	h := tr.StartRoot("x", "i")
	if h.Active() {
		t.Fatal("nil tracer handle active")
	}
	if h.Context().Valid() {
		t.Fatal("nil tracer handle has context")
	}
	h.End() // must not panic
}

func TestFlightRecorderWrapsPerConn(t *testing.T) {
	f := NewFlightRecorder(3)
	for i := 0; i < 7; i++ {
		f.Record("a", FlightEntry{Dir: "recv", Type: "Event", Seq: uint64(i)})
	}
	f.Record("b", FlightEntry{Dir: "send", Type: "OK", Seq: 99})
	snap := f.Snapshot()
	a := snap["a"]
	if len(a) != 3 {
		t.Fatalf("conn a kept %d entries, want 3", len(a))
	}
	for i, want := range []uint64{4, 5, 6} {
		if a[i].Seq != want {
			t.Errorf("entry %d seq = %d, want %d (oldest first)", i, a[i].Seq, want)
		}
	}
	if len(snap["b"]) != 1 || snap["b"][0].Type != "OK" {
		t.Errorf("conn b = %+v", snap["b"])
	}
	if got := f.Conns(); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Errorf("Conns() = %v", got)
	}
}

func TestFlightRecorderEvictsOldestConn(t *testing.T) {
	f := NewFlightRecorder(2)
	for i := 0; i < maxFlightConns+5; i++ {
		f.Record(string(rune('A'+i%26))+string(rune('a'+i/26)), FlightEntry{Time: int64(i + 1), Type: "Event"})
	}
	if got := len(f.Conns()); got > maxFlightConns {
		t.Fatalf("recorder retained %d conns, cap is %d", got, maxFlightConns)
	}
}

func TestWriteChromeTrace(t *testing.T) {
	tr := NewTracer(8)
	root := tr.StartRoot("client.event_send", "i1")
	tr.Point(root.Context(), "server.event_arrival", "server", "note-detail")
	root.End()

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, tr.Spans()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not JSON: %v", err)
	}
	var xEvents, metaEvents int
	for _, e := range doc.TraceEvents {
		switch e["ph"] {
		case "X":
			xEvents++
		case "M":
			metaEvents++
		}
	}
	if xEvents != 2 {
		t.Errorf("got %d complete events, want 2", xEvents)
	}
	if metaEvents != 2 { // one thread_name per instance (i1, server)
		t.Errorf("got %d metadata events, want 2", metaEvents)
	}
	if !strings.Contains(buf.String(), "note-detail") {
		t.Error("note missing from chrome trace args")
	}
}
