package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"cosoft/internal/obs"
)

// TestSmoke runs every workload end to end with short windows and a small
// traced run, so the benchmark cannot rot unnoticed: all checks must pass,
// every end-to-end metric must be positive, every per-layer metric must be
// reported, and the baseline predictions that hold at any window length
// must hold.
func TestSmoke(t *testing.T) {
	dir := t.TempDir()
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			w.traced = max(10, w.traced/20)
			if w.members > 1 {
				w.groups = 1 // 128 clients take a second to connect
			}
			res, err := runWorkload(w, options{
				seed: 7, warmup: 50 * time.Millisecond, slices: 2, window: 200 * time.Millisecond,
				setups: 2, reopens: 1, trace: true, dir: dir,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct {
				t.Fatalf("failed %d of %d, problems: %q", res.Failed, res.Attempted, res.Problems)
			}
			for _, m := range endToEnd {
				if v := res.Metrics[m.Name]; !(v > 0) {
					t.Errorf("%s = %v, want > 0", m.Name, v)
				}
			}
			for _, m := range perLayer {
				_, ok := res.Metrics[m.Name]
				switch {
				case strings.HasPrefix(m.Name, "trace.") && m.Name != "trace.complete_share":
					if want := !w.statesync(); ok != want {
						t.Errorf("%s reported = %v, want %v", m.Name, ok, want)
					}
				case m.Name == "eventlog.recovery_us_per_record" || strings.HasPrefix(m.Name, "server.snapshot") ||
					strings.HasPrefix(m.Name, "server.recover_"):
					if ok != w.logged {
						t.Errorf("%s reported = %v, want %v", m.Name, ok, w.logged)
					}
				}
			}
			if v := res.Metrics["lock.denied_share"]; v != 0 {
				t.Errorf("lock.denied_share = %v, want 0", v)
			}
			if v := res.Metrics["eventlog.bytes_per_record"]; (v > 0) != w.logged {
				t.Errorf("eventlog.bytes_per_record = %v on logged=%v", v, w.logged)
			}
			if !w.statesync() {
				if v := res.Metrics["trace.coverage_share"]; v < 0.5 || v > 1.01 {
					t.Errorf("trace.coverage_share = %v, want near 1", v)
				}
				if v, want := res.Metrics["server.execs_per_event"], float64(w.members+1); math.Abs(v-want)/want > 0.02 { // the window cuts through an event
					t.Errorf("server.execs_per_event = %v, want %d", v, w.members+1)
				}
			} else if v := res.Metrics["server.copies_per_join"]; math.Abs(v-boardPairs) > 2 { // a 200 ms window cuts through a few joins
				t.Errorf("server.copies_per_join = %v, want %d", v, boardPairs)
			}
			if _, err := os.Stat(filepath.Join(dir, "trace-"+w.name+".json")); err != nil {
				t.Errorf("trace file: %v", err)
			}
		})
	}
}

func TestMedianAndSpread(t *testing.T) {
	for _, c := range []struct {
		xs           []float64
		med, spreadV float64
	}{
		{nil, 0, 0},
		{[]float64{3}, 3, 0},
		{[]float64{5, 1, 3}, 3, 4.0 / 3},            // quartiles 1 and 5
		{[]float64{4, 1, 3, 2}, 2.5, 2.5 / 2.5},     // quartiles 1.25 and 3.75
		{[]float64{10, 10, 10, 10, 1000}, 10, 49.5}, // a burst slice leaves the median, not the spread
		{[]float64{1, 2, 3, 4, 5}, 3, 3. / 3},       // quartiles 1.5 and 4.5
	} {
		if got := median(c.xs); got != c.med {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.med)
		}
		if got := spread(c.xs); math.Abs(got-c.spreadV) > 1e-12 {
			t.Errorf("spread(%v) = %v, want %v", c.xs, got, c.spreadV)
		}
	}
}

// TestEndToEnd checks that a window's metrics are taken over all of it and
// that every slice's own values are kept beside them.
func TestEndToEnd(t *testing.T) {
	t0 := time.Unix(0, 0)
	rec := newRecorder(nil, 4)
	win := &window{recs: []*recorder{rec}}
	// Slice s lasts one second. Slice 2 is a fast one: 300 operations of
	// 10 µs (cycle 20 µs) at 5 µs of CPU, one allocation of one KiB each;
	// the others manage 100 operations at five times that.
	var cpu time.Duration
	var mallocs uint64
	win.marks = append(win.marks, mark{at: t0})
	for s := 0; s < 4; s++ {
		n, cost := 100, int64(5)
		if s == 2 {
			n, cost = 300, 1
		}
		for i := 0; i < n; i++ {
			rec.op[s].observe(cost * 10_000)
			rec.cycle[s].observe(cost * 20_000)
		}
		cpu += time.Duration(int64(n)*cost*5) * time.Microsecond
		mallocs += uint64(int64(n) * cost)
		win.marks = append(win.marks, mark{at: t0.Add(time.Duration(s+1) * time.Second), cpu: cpu,
			mallocs: mallocs, bytes: mallocs * 1024})
	}
	got, slices := win.endToEnd()
	// 600 operations in 4 s; half of them are the fast ones, so the median
	// sits on the edge of the fast bucket; 1 800 allocations and 9 ms of CPU.
	want := map[string]float64{"ops_per_s": 150, "process.cpu_us_per_op": 15, "allocs_per_op": 3, "alloc_kb_per_op": 3,
		"op_p50_us": 10, "cycle_p50_us": 20}
	for name, v := range want {
		if math.Abs(got[name]-v) > 0.01*v {
			t.Errorf("%s = %v, want %v", name, got[name], v)
		}
		if len(slices[name]) != 4 {
			t.Errorf("%s: %d per-slice values, want 4", name, len(slices[name]))
		}
	}
	if got := slices["ops_per_s"]; !reflect.DeepEqual(got, []float64{100, 100, 300, 100}) {
		t.Errorf("per-slice ops_per_s = %v", got)
	}
}

func TestFastMean(t *testing.T) {
	twenty := make([]float64, 20)
	for i := range twenty {
		twenty[i] = float64(20 - i)
	}
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{5, 1, 4, 2}, 1},
		{twenty, 1.5}, // a tenth of twenty is the two smallest
	} {
		if got := fastMean(c.xs); got != c.want {
			t.Errorf("fastMean(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    uint64
		want float64
	}{{0, 0}, {99, 0}, {100, 90}, {999, 90}, {1000, 99}, {9999, 99}, {10000, 99.9}, {1 << 20, 99.9}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestLatHist(t *testing.T) {
	for i := 0; i < latBuckets; i++ {
		lo, hi := latBounds(i)
		if latBucket(int64(lo)) != i || (i < latBuckets-1 && latBucket(int64(hi)) != i+1) {
			t.Fatalf("bucket %d [%v,%v) does not round-trip", i, lo, hi)
		}
	}
	var h latHist
	for v := int64(1); v <= 100_000; v++ {
		h.observe(v * 100) // 100 ns … 10 ms, uniform
	}
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		want := q * 10_000_000
		if got := h.quantile(q); math.Abs(got-want)/want > 0.01 {
			t.Errorf("quantile(%v) = %v, want %v within 1%%", q, got, want)
		}
	}
	if got := h.mean(); math.Abs(got-5_000_050) > 1 {
		t.Errorf("mean = %v", got)
	}
}

func span(name string, id, parent obs.SpanID, start, end int64) obs.Span {
	return obs.Span{Trace: 1, ID: id, Parent: parent, Name: name, Start: start, End: end}
}

func TestSelfTime(t *testing.T) {
	parent := span("p", 1, 0, 100, 200)
	for _, c := range []struct {
		name     string
		children []obs.Span
		want     int64
	}{
		{"no children", nil, 100},
		{"one child", []obs.Span{span("c", 2, 1, 110, 130)}, 80},
		{"overlapping children count once", []obs.Span{span("c", 2, 1, 110, 150), span("d", 3, 1, 140, 160)}, 50},
		{"nested child adds nothing", []obs.Span{span("c", 2, 1, 110, 150), span("d", 3, 1, 120, 130)}, 60},
		{"child clipped to the parent", []obs.Span{span("c", 2, 1, 50, 120), span("d", 3, 1, 190, 300)}, 70},
		{"child outside the parent", []obs.Span{span("c", 2, 1, 300, 400)}, 100},
		{"point child", []obs.Span{span("c", 2, 1, 150, 150)}, 100},
	} {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: selfTime = %d, want %d", c.name, got, c.want)
		}
	}
}

// TestAttribute splits a hand-built event with two members — one fast, one
// slow and last to acknowledge — into its parts.
func TestAttribute(t *testing.T) {
	spans := []obs.Span{
		span("bench.dispatch", 100, 0, 0, 400),
		span("bench.unlock_wait", 101, 100, 400, 1000),
		span("client.event_send", 1, 0, 10, 390),
		span("server.event_arrival", 2, 1, 50, 150),
		span("lock.acquire", 3, 2, 60, 70),
		span("server.exec_send", 4, 2, 80, 80),   // fast member
		span("server.exec_send", 5, 2, 100, 100), // slow member
		span("server.event_result", 6, 2, 140, 140),
		span("client.exec_apply", 7, 4, 200, 220),
		span("bench.probe_apply", 8, 5, 500, 510),
		span("server.exec_ack", 9, 7, 300, 300),
		span("server.exec_ack", 10, 8, 700, 700),
		span("server.unlock", 11, 2, 710, 710),
		span("bench.unlock_notice", 12, 2, 900, 900),
	}
	got, ok := attribute(spans)
	if !ok {
		t.Fatal("attribute found the event incomplete")
	}
	want := eventParts{
		originSend: 40, arrival: 90, lock: 10,
		execOut: (120 + 400) / 2, execOutMax: 400, execApply: 15,
		ackReturn: (80 + 190) / 2, ackTail: 410, resultReturn: 250, unlockNotice: 190,
		covered: 890, // event_send start (10) → notice (900), hop by hop through the slow member
		floor:   1000,
	}
	if got != want {
		t.Errorf("attribute =\n %+v, want\n %+v", got, want)
	}
	if _, ok := attribute(spans[:len(spans)-1]); ok {
		t.Error("an event without its unlock notice was reported complete")
	}
	out := make(map[string]float64)
	traceMetrics(spans, out)
	if out["trace.coverage_share"] != 0.89 || out["trace.complete_share"] != 1 || out["trace.exec_out_max_us"] != 0.4 {
		t.Errorf("traceMetrics = %v", out)
	}
}

func TestJudge(t *testing.T) {
	lat := metricDef{Name: "op_p50_us", Better: lower, Bound: 0.10}
	rate := metricDef{Name: "ops_per_s", Better: higher, Bound: 0.10}
	for _, c := range []struct {
		m              metricDef
		a, b, spA, spB float64
		want           string
	}{
		{lat, 100, 109, 0.02, 0.02, verdictOK},
		{lat, 100, 80, 0.02, 0.02, verdictOK},
		{lat, 100, 111, 0.02, 0.02, verdictWorse},
		{lat, 100, 111, 0.02, 0.12, verdictUnresolved},
		{lat, 100, 100, 0.12, 0.02, verdictUnresolved},
		{rate, 1000, 905, 0.01, 0.01, verdictOK},
		{rate, 1000, 1200, 0.01, 0.01, verdictOK},
		{rate, 1000, 890, 0.01, 0.01, verdictWorse},
		{lat, 0, 5, 0, 0, verdictUnresolved},
	} {
		if _, got := judge(c.m, c.a, c.b, c.spA, c.spB); got != c.want {
			t.Errorf("judge(%s, %v → %v, spreads %v/%v) = %s, want %s", c.m.Name, c.a, c.b, c.spA, c.spB, got, c.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, cycle float64) string {
		res := &result{Workload: "g8x3", Correct: true, Attempted: 10, Metrics: map[string]float64{}, Slices: map[string][]float64{}}
		for _, m := range endToEnd {
			res.Metrics[m.Name] = 100
			res.Slices[m.Name] = []float64{100, 100, 100}
		}
		res.Metrics["cycle_p50_us"] = cycle
		f := resultFile{Fingerprint: map[string]string{"seed": name}, Workloads: []*result{res}}
		path := filepath.Join(dir, name+".json")
		if err := f.write(path); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base, same, slow := write("base", 100), write("same", 104), write("slow", 140)
	var buf bytes.Buffer
	if worse, err := compareFiles(&buf, base, same); err != nil || worse {
		t.Errorf("base vs same: worse=%v err=%v\n%s", worse, err, buf.String())
	}
	if !strings.Contains(buf.String(), "fingerprints differ: seed") {
		t.Errorf("differing fingerprints not reported:\n%s", buf.String())
	}
	buf.Reset()
	if worse, err := compareFiles(&buf, base, slow); err != nil || !worse {
		t.Errorf("base vs slow: worse=%v err=%v\n%s", worse, err, buf.String())
	}
}

// TestManifest keeps ../BENCHMARK.json equal to the tables in metrics.go
// and topo.go (regenerate it with `go run -C bench cosoft/bench -manifest`).
func TestManifest(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var onDisk any
	if err := json.Unmarshal(data, &onDisk); err != nil {
		t.Fatal(err)
	}
	gen, err := json.Marshal(manifest())
	if err != nil {
		t.Fatal(err)
	}
	var fromCode any
	if err := json.Unmarshal(gen, &fromCode); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(onDisk, fromCode) {
		t.Error("BENCHMARK.json differs from what -manifest prints")
	}
	for _, w := range workloads {
		if len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters, the contract allows 200", w.name, len(w.why))
		}
	}
}

// TestReadme keeps README.md naming every metric and workload.
func TestReadme(t *testing.T) {
	data, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	readme := string(data)
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !strings.Contains(readme, "`"+m.Name+"`") {
			t.Errorf("README.md does not name metric %s", m.Name)
		}
	}
	for _, w := range workloads {
		if !strings.Contains(readme, "`"+w.name+"`") {
			t.Errorf("README.md does not name workload %s", w.name)
		}
	}
}
