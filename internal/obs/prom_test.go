package obs

import (
	"bytes"
	"fmt"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// --- strict text-format checker -----------------------------------------
//
// promCheck parses Prometheus exposition text (format version 0.0.4) and
// fails on anything a strict scraper would reject: bad metric or label
// names, malformed sample lines, duplicate series, TYPE lines after the
// first sample of their metric, and histograms whose cumulative le-series
// is non-monotonic, missing +Inf, or inconsistent with _count.

var (
	promNameRe  = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	promLabelRe = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

type promSample struct {
	name   string
	labels map[string]string
	value  float64
}

func promCheck(t testing.TB, data []byte) []promSample {
	t.Helper()
	var samples []promSample
	typed := map[string]string{}    // metric family -> declared TYPE
	seenSample := map[string]bool{} // metric name -> sample emitted
	seenSeries := map[string]bool{} // name + sorted labelset
	for ln, line := range strings.Split(string(data), "\n") {
		lineNo := ln + 1
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) < 3 || (fields[1] != "TYPE" && fields[1] != "HELP") {
				t.Fatalf("line %d: malformed comment %q", lineNo, line)
			}
			if fields[1] != "TYPE" {
				continue
			}
			name, kind := fields[2], ""
			if len(fields) == 4 {
				kind = fields[3]
			}
			if !promNameRe.MatchString(name) {
				t.Fatalf("line %d: bad metric name %q", lineNo, name)
			}
			switch kind {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				t.Fatalf("line %d: bad TYPE %q for %s", lineNo, kind, name)
			}
			if _, dup := typed[name]; dup {
				t.Fatalf("line %d: duplicate TYPE for %s", lineNo, name)
			}
			if seenSample[name] {
				t.Fatalf("line %d: TYPE for %s after its samples", lineNo, name)
			}
			typed[name] = kind
			continue
		}
		s := parsePromSample(t, lineNo, line)
		base := histBase(s.name)
		seenSample[s.name], seenSample[base] = true, true
		key := seriesKey(s)
		if seenSeries[key] {
			t.Fatalf("line %d: duplicate series %s", lineNo, key)
		}
		seenSeries[key] = true
		samples = append(samples, s)
	}
	checkHistograms(t, samples, typed)
	return samples
}

func parsePromSample(t testing.TB, lineNo int, line string) promSample {
	t.Helper()
	s := promSample{labels: map[string]string{}}
	rest := line
	if i := strings.IndexByte(rest, '{'); i >= 0 {
		s.name = rest[:i]
		end := strings.LastIndexByte(rest, '}')
		if end < i {
			t.Fatalf("line %d: unterminated label set %q", lineNo, line)
		}
		parsePromLabels(t, lineNo, rest[i+1:end], s.labels)
		rest = strings.TrimSpace(rest[end+1:])
	} else {
		fields := strings.SplitN(rest, " ", 2)
		if len(fields) != 2 {
			t.Fatalf("line %d: malformed sample %q", lineNo, line)
		}
		s.name, rest = fields[0], strings.TrimSpace(fields[1])
	}
	if !promNameRe.MatchString(s.name) {
		t.Fatalf("line %d: bad metric name %q", lineNo, s.name)
	}
	// rest is now "value" possibly followed by a timestamp.
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 {
		t.Fatalf("line %d: malformed value %q", lineNo, rest)
	}
	v, err := parsePromValue(fields[0])
	if err != nil {
		t.Fatalf("line %d: bad value %q: %v", lineNo, fields[0], err)
	}
	s.value = v
	return s
}

func parsePromLabels(t testing.TB, lineNo int, body string, into map[string]string) {
	t.Helper()
	for body != "" {
		eq := strings.IndexByte(body, '=')
		if eq < 0 || len(body) < eq+2 || body[eq+1] != '"' {
			t.Fatalf("line %d: malformed labels %q", lineNo, body)
		}
		name := body[:eq]
		if !promLabelRe.MatchString(name) {
			t.Fatalf("line %d: bad label name %q", lineNo, name)
		}
		// Scan the quoted value honoring escapes.
		i := eq + 2
		var val strings.Builder
		for {
			if i >= len(body) {
				t.Fatalf("line %d: unterminated label value in %q", lineNo, body)
			}
			c := body[i]
			if c == '\\' {
				if i+1 >= len(body) {
					t.Fatalf("line %d: dangling escape in %q", lineNo, body)
				}
				switch body[i+1] {
				case '\\', '"':
					val.WriteByte(body[i+1])
				case 'n':
					val.WriteByte('\n')
				default:
					t.Fatalf("line %d: bad escape \\%c", lineNo, body[i+1])
				}
				i += 2
				continue
			}
			if c == '"' {
				i++
				break
			}
			val.WriteByte(c)
			i++
		}
		if _, dup := into[name]; dup {
			t.Fatalf("line %d: duplicate label %q", lineNo, name)
		}
		into[name] = val.String()
		if i < len(body) {
			if body[i] != ',' {
				t.Fatalf("line %d: expected ',' after label in %q", lineNo, body)
			}
			i++
		}
		body = body[i:]
	}
}

func parsePromValue(s string) (float64, error) {
	switch s {
	case "+Inf":
		return float64(^uint64(0)), nil
	case "-Inf", "NaN":
		return 0, nil
	}
	return strconv.ParseFloat(s, 64)
}

// histBase strips histogram sample suffixes so TYPE lookups find the family.
func histBase(name string) string {
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		if b, ok := strings.CutSuffix(name, suf); ok {
			return b
		}
	}
	return name
}

func seriesKey(s promSample) string {
	keys := make([]string, 0, len(s.labels))
	for k := range s.labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(s.name)
	for _, k := range keys {
		fmt.Fprintf(&b, "|%s=%s", k, s.labels[k])
	}
	return b.String()
}

// checkHistograms verifies each declared histogram's series set: per
// labelset (ignoring le), buckets must be cumulative and monotone, the
// +Inf bucket must exist and equal _count, and _sum/_count must exist.
func checkHistograms(t testing.TB, samples []promSample, typed map[string]string) {
	t.Helper()
	type series struct {
		buckets map[string]float64 // le -> cumulative count
		sum     *float64
		count   *float64
	}
	hists := map[string]map[string]*series{} // family -> labelset(sans le) -> series
	for _, s := range samples {
		base := histBase(s.name)
		if typed[base] != "histogram" {
			continue
		}
		rest := promSample{name: base, labels: map[string]string{}}
		for k, v := range s.labels {
			if k != "le" {
				rest.labels[k] = v
			}
		}
		key := seriesKey(rest)
		if hists[base] == nil {
			hists[base] = map[string]*series{}
		}
		sr := hists[base][key]
		if sr == nil {
			sr = &series{buckets: map[string]float64{}}
			hists[base][key] = sr
		}
		v := s.value
		switch {
		case strings.HasSuffix(s.name, "_bucket"):
			le, ok := s.labels["le"]
			if !ok {
				t.Fatalf("%s: bucket sample without le label", s.name)
			}
			sr.buckets[le] = v
		case strings.HasSuffix(s.name, "_sum"):
			sr.sum = &v
		case strings.HasSuffix(s.name, "_count"):
			sr.count = &v
		default:
			t.Fatalf("%s: bare sample for histogram family %s", s.name, base)
		}
	}
	for base, byLabel := range hists {
		for key, sr := range byLabel {
			if sr.sum == nil || sr.count == nil {
				t.Fatalf("%s{%s}: missing _sum or _count", base, key)
			}
			inf, ok := sr.buckets["+Inf"]
			if !ok {
				t.Fatalf("%s{%s}: missing +Inf bucket", base, key)
			}
			if inf != *sr.count {
				t.Fatalf("%s{%s}: +Inf bucket %g != count %g", base, key, inf, *sr.count)
			}
			// Finite buckets sorted by bound must be non-decreasing and
			// bounded by +Inf.
			type bound struct {
				le  float64
				cum float64
			}
			var bounds []bound
			for le, cum := range sr.buckets {
				if le == "+Inf" {
					continue
				}
				f, err := strconv.ParseFloat(le, 64)
				if err != nil {
					t.Fatalf("%s{%s}: bad le %q", base, key, le)
				}
				bounds = append(bounds, bound{f, cum})
			}
			sort.Slice(bounds, func(i, j int) bool { return bounds[i].le < bounds[j].le })
			prev := -1.0
			for _, b := range bounds {
				if b.cum < prev {
					t.Fatalf("%s{%s}: non-monotonic buckets at le=%g", base, key, b.le)
				}
				if b.cum > inf {
					t.Fatalf("%s{%s}: bucket le=%g exceeds +Inf", base, key, b.le)
				}
				prev = b.cum
			}
		}
	}
}

// --- tests ---------------------------------------------------------------

func fullRegistry() *Registry {
	r := NewRegistry()
	r.Counter("server.events").Add(42)
	r.Counter("server.event_lock.busy_ns").Add(123456789)
	r.Gauge("server.outbox_depth").Set(7)
	h := r.Histogram("server.event_rtt_ns")
	for _, v := range []int64{0, 1, 3, 900, 1000, 1100, 1_000_000} {
		h.Observe(v)
	}
	f := r.Family("server.member", memberSchema())
	for _, inst := range []string{"pad-1", "draw \"2\"", `odd\name`} {
		e := f.Get(inst)
		e.Counter(0).Add(10)
		e.Counter(1).Add(2)
		e.Hist().Observe(5000)
		e.EWMA().Observe(5000)
	}
	return r
}

func TestWritePrometheusStrict(t *testing.T) {
	r := fullRegistry()
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf, ""); err != nil {
		t.Fatal(err)
	}
	samples := promCheck(t, buf.Bytes())
	if len(samples) == 0 {
		t.Fatal("no samples")
	}

	byKey := map[string]promSample{}
	for _, s := range samples {
		byKey[seriesKey(s)] = s
	}
	if s, ok := byKey["cosoft_server_events"]; !ok || s.value != 42 {
		t.Errorf("counter sample = %+v", s)
	}
	if s, ok := byKey["cosoft_server_outbox_depth_high_water"]; !ok || s.value != 7 {
		t.Errorf("high water sample = %+v", s)
	}
	if s, ok := byKey["cosoft_server_member_acks|member=pad-1"]; !ok || s.value != 10 {
		t.Errorf("family counter sample = %+v", s)
	}
	if _, ok := byKey[`cosoft_server_member_acks|member=draw "2"`]; !ok {
		t.Error("quoted label value must round-trip")
	}
	if _, ok := byKey[`cosoft_server_member_acks|member=odd\name`]; !ok {
		t.Error("backslash label value must round-trip")
	}
	// Histogram per-member series exist under the family.
	found := false
	for key := range byKey {
		if strings.HasPrefix(key, "cosoft_server_member_ack_ns_bucket|") {
			found = true
		}
	}
	if !found {
		t.Error("family histogram buckets missing")
	}
}

// TestWritePrometheusRoundTripsRegistry asserts every registered name shows
// up in the exposition (families via their schema sub-metrics).
func TestWritePrometheusRoundTripsRegistry(t *testing.T) {
	r := fullRegistry()
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf, ""); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, name := range r.Names() {
		if name == "server.member" {
			// Families export per-schema sub-metric names.
			for _, sub := range []string{"acks", "last_acks", "timeouts", "ack_ns", "ack_ewma_ns"} {
				if !strings.Contains(out, promName(name+"."+sub)) {
					t.Errorf("family sub-metric %s.%s missing from exposition", name, sub)
				}
			}
			continue
		}
		if !strings.Contains(out, promName(name)) {
			t.Errorf("metric %s missing from exposition", name)
		}
	}
}

func TestWritePrometheusPrefixFilter(t *testing.T) {
	r := fullRegistry()
	r.Counter("client.rpcs").Add(1)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf, "server."); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if strings.Contains(out, "cosoft_client_rpcs") {
		t.Error("prefix filter leaked client metric")
	}
	if !strings.Contains(out, "cosoft_server_events") {
		t.Error("prefix filter dropped server metric")
	}
	promCheck(t, buf.Bytes())
}

func TestPromHistogramExactBounds(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("x")
	h.Observe(0)    // bucket 0, le="0"
	h.Observe(1)    // bucket 1, le="1"
	h.Observe(1000) // bucket 10, le="1023"
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf, ""); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`cosoft_x_bucket{le="0"} 1`,
		`cosoft_x_bucket{le="1"} 2`,
		`cosoft_x_bucket{le="1023"} 3`,
		`cosoft_x_bucket{le="+Inf"} 3`,
		`cosoft_x_sum 1001`,
		`cosoft_x_count 3`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	promCheck(t, buf.Bytes())
}

// fakeTB records a Fatalf instead of failing the real test, so the checker
// itself can be tested against malformed input. Fatalf must not return, so
// it exits the goroutine the checker runs on.
type fakeTB struct {
	testing.TB
	failed bool
}

func (f *fakeTB) Helper() {}
func (f *fakeTB) Fatalf(string, ...any) {
	f.failed = true
	runtime.Goexit()
}

func TestPromCheckRejectsMalformed(t *testing.T) {
	bad := []string{
		"cosoft_x{le=\"0\" 1\n",                                         // unterminated label set
		"9bad_name 1\n",                                                 // bad metric name
		"cosoft_x{0bad=\"v\"} 1\n",                                      // bad label name
		"cosoft_x 1\ncosoft_x 1\n",                                      // duplicate series
		"cosoft_x 1\n# TYPE cosoft_x counter\n",                         // TYPE after sample
		"# TYPE cosoft_x widget\ncosoft_x 1\n",                          // unknown TYPE
		"cosoft_x notanumber\n",                                         // bad value
		"# TYPE cosoft_h histogram\ncosoft_h_sum 1\ncosoft_h_count 1\n", // no +Inf bucket
	}
	for i, data := range bad {
		ft := &fakeTB{TB: t}
		done := make(chan struct{})
		go func() {
			defer close(done)
			promCheck(ft, []byte(data))
		}()
		<-done
		if !ft.failed {
			t.Errorf("checker accepted malformed input %d: %q", i, data)
		}
	}
}
