// Command cosoftd runs the central coupling server: the controller of the
// COSOFT architecture that coordinates communication between application
// instances, holding the access permissions, registration records,
// historical UI states, and lock table.
//
// With -metrics-addr set, an HTTP listener additionally serves the
// observability surface:
//
//	/metrics          JSON snapshot of every counter, gauge, histogram and
//	                  metric family (?name=<prefix> restricts to matching
//	                  metric names, ?format=prom emits Prometheus text
//	                  exposition format instead)
//	/debug/groups     per-coupling-group health: topology, lock holder,
//	                  pending events, and per-member straggler attribution
//	/debug/trace      recent causal spans and per-connection flight-recorder
//	                  entries (?trace=<hex id> selects one trace,
//	                  ?format=chrome emits Chrome trace-event JSON for
//	                  chrome://tracing / Perfetto)
//	/debug/pprof/     the standard pprof profiles
//
// Usage:
//
//	cosoftd [-listen :7817] [-metrics-addr :9090] [-history 32]
//	        [-ordered-locking] [-shards N] [-heartbeat 5s] [-event-deadline 10s]
//	        [-outbox-limit 1024] [-batch-limit 32] [-trace-buffer 4096]
//	        [-flight-depth 64] [-log-level info] [-v]
//	        [-log-dir /var/lib/cosoft/log] [-log-sync interval]
//	        [-log-segment-bytes 67108864]
//	        [-log-snapshot-interval 1m] [-log-snapshot-bytes N]
//
// With -log-dir set, every state-mutating hop is appended to a durable
// segmented event log before it is acknowledged, and a restarted cosoftd
// replays the log to rebuild its databases — reconnecting clients resume
// with their logged session tokens as if the restart never happened. With
// -log-snapshot-interval and/or -log-snapshot-bytes, cosoftd additionally
// writes periodic state snapshots beside the log and compacts the segments
// they cover, so restart replay starts at the newest snapshot and disk
// stays bounded. cosoftd -log-fsck <dir> scans a log directory offline,
// reports segment, record and snapshot counts, and exits nonzero on CRC
// damage.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"syscall"

	"cosoft/internal/eventlog"
	"cosoft/internal/obs"
	"cosoft/internal/server"
)

func main() {
	listen := flag.String("listen", ":7817", "TCP address to listen on")
	metricsAddr := flag.String("metrics-addr", "", "HTTP address for the metrics/trace/pprof endpoints (empty = disabled)")
	history := flag.Int("history", 0, "per-object historical-state depth (0 = default)")
	ordered := flag.Bool("ordered-locking", false, "use deterministic-order group locking instead of the paper's sequential algorithm")
	shards := flag.Int("shards", runtime.GOMAXPROCS(0), "number of per-coupling-group state loops (default GOMAXPROCS)")
	heartbeat := flag.Duration("heartbeat", 0, "liveness ping interval; silent clients are dropped after 3 intervals (0 = disabled)")
	eventDeadline := flag.Duration("event-deadline", 0, "max wait for event acknowledgements before the group unlocks without the stragglers (0 = disabled)")
	outboxLimit := flag.Int("outbox-limit", 0, "per-client outbox high-water mark; clients over it for more than a second are evicted (0 = unbounded)")
	batchLimit := flag.Int("batch-limit", 32, "max envelopes packed into one Batch frame (1 = one envelope per frame)")
	traceBuffer := flag.Int("trace-buffer", obs.DefaultTraceBuffer, "causal-trace span ring size (0 = tracing disabled)")
	flightDepth := flag.Int("flight-depth", obs.DefaultFlightDepth, "per-connection flight-recorder depth (0 = disabled)")
	logLevel := flag.String("log-level", "", "structured log level: debug, info, warn or error (empty = logging disabled)")
	logDir := flag.String("log-dir", "", "durable event-log directory; appends before acking and replays on start (empty = durability disabled)")
	logSync := flag.String("log-sync", "interval", "event-log sync policy: always (fsync before every ack), interval, or none")
	logSegBytes := flag.Int64("log-segment-bytes", 0, "event-log segment rotation size in bytes (0 = 64 MiB)")
	logSnapInterval := flag.Duration("log-snapshot-interval", 0, "with -log-dir: write a state snapshot and compact covered segments on this cadence (0 = disabled)")
	logSnapBytes := flag.Int64("log-snapshot-bytes", 0, "with -log-dir: snapshot+compact once this many bytes were appended since the last snapshot (0 = disabled)")
	logFsck := flag.Bool("log-fsck", false, "scan the -log-dir (or the positional argument) offline, report segment/record counts and CRC damage, and exit — nonzero on corruption")
	verbose := flag.Bool("v", false, "log registrations and departures: shorthand for -log-level info")
	flag.Parse()

	if *logFsck {
		dir := *logDir
		if flag.NArg() > 0 {
			dir = flag.Arg(0)
		}
		os.Exit(runFsck(dir))
	}

	metrics := obs.NewRegistry()
	opts := server.Options{
		HistoryDepth:   *history,
		OrderedLocking: *ordered,
		Shards:         *shards,
		Heartbeat:      *heartbeat,
		EventDeadline:  *eventDeadline,
		OutboxLimit:    *outboxLimit,
		BatchLimit:     *batchLimit,
		Metrics:        metrics,
	}
	if *verbose && *logLevel == "" {
		*logLevel = "info"
	}
	if *logLevel != "" {
		lvl, err := parseLogLevel(*logLevel)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cosoftd: %v\n", err)
			os.Exit(2)
		}
		opts.Logger = slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lvl}))
	}
	// The trace ring and flight recorder only cost anything while the HTTP
	// surface that exposes them is up.
	if *metricsAddr != "" {
		if *traceBuffer > 0 {
			opts.Tracer = obs.NewTracer(*traceBuffer)
		}
		if *flightDepth > 0 {
			opts.Flight = obs.NewFlightRecorder(*flightDepth)
		}
	}

	var elog *eventlog.Log
	if *logDir != "" {
		sync, err := eventlog.ParseSync(*logSync)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cosoftd: %v\n", err)
			os.Exit(2)
		}
		elog, err = eventlog.Open(eventlog.Options{
			Dir:          *logDir,
			Sync:         sync,
			SegmentBytes: *logSegBytes,
			Metrics:      metrics,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "cosoftd: %v\n", err)
			os.Exit(1)
		}
		defer elog.Close()
		opts.EventLog = elog
		opts.SnapshotInterval = *logSnapInterval
		opts.SnapshotBytes = *logSnapBytes
		fmt.Printf("cosoftd: durable event log in %s (sync=%s)\n", *logDir, sync)
	}

	lis, err := net.Listen("tcp", *listen)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cosoftd: listen: %v\n", err)
		os.Exit(1)
	}
	srv := server.New(opts)
	fmt.Printf("cosoftd: coupling server listening on %s\n", lis.Addr())

	if *metricsAddr != "" {
		mlis, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cosoftd: metrics listen: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("cosoftd: metrics on http://%s/metrics, traces on http://%s/debug/trace\n",
			mlis.Addr(), mlis.Addr())
		go func() {
			if err := http.Serve(mlis, metricsMux(metrics, opts.Tracer, opts.Flight, srv)); err != nil && !errors.Is(err, net.ErrClosed) {
				fmt.Fprintf(os.Stderr, "cosoftd: metrics serve: %v\n", err)
			}
		}()
		defer mlis.Close()
	}

	done := make(chan os.Signal, 1)
	signal.Notify(done, syscall.SIGINT, syscall.SIGTERM)
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(lis) }()

	select {
	case sig := <-done:
		fmt.Printf("cosoftd: %v — shutting down\n", sig)
	case err := <-serveErr:
		if err != nil {
			fmt.Fprintf(os.Stderr, "cosoftd: serve: %v\n", err)
		}
	}
	lis.Close()
	srv.Close()
	// The state loop is gone after Close (Stats() reports zeros), but the
	// registry's atomics remain readable.
	snap := metrics.Snapshot()
	fmt.Printf("cosoftd: served %d events (%d lock denials), %d copies\n",
		snap.Counters["server.events"], snap.Counters["lock.group_failures"],
		snap.Counters["server.copies"])
	if rtt := snap.Histograms["server.event_rtt_ns"]; rtt.Count > 0 {
		fmt.Printf("cosoftd: event round trip p50=%.0fns p95=%.0fns p99=%.0fns max=%dns (outbox high water %d)\n",
			rtt.P50, rtt.P95, rtt.P99, rtt.Max,
			snap.Gauges["server.outbox_depth"].HighWater)
	}
	if n := snap.Counters["server.log.append_errors"]; n > 0 {
		fmt.Printf("cosoftd: %d event-log appends FAILED: those events were refused; those control-plane transitions were acknowledged but are not in the log\n", n)
	}
}

// runFsck scans a durable event-log directory without opening it for
// append, reporting what a recovery replay would see. Exit codes: 0 clean
// (a torn tail is clean — it is the expected crash signature and open would
// truncate it), 1 corruption before the tail (acknowledged records are
// unreadable), 2 usage or I/O error.
func runFsck(dir string) int {
	if dir == "" {
		fmt.Fprintln(os.Stderr, "cosoftd: -log-fsck needs a log directory (-log-dir or positional)")
		return 2
	}
	rep, err := eventlog.Fsck(dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cosoftd: fsck %s: %v\n", dir, err)
		return 2
	}
	fmt.Printf("cosoftd: %s: %d segment(s), %d record(s), %d byte(s) valid\n",
		dir, rep.Segments, rep.Records, rep.Bytes)
	if rep.Snapshots > 0 || rep.BadSnapshots > 0 {
		fmt.Printf("cosoftd: %d snapshot(s) (%d damaged); replay starts at offset %d\n",
			rep.Snapshots, rep.BadSnapshots, rep.SnapshotOffset)
	}
	if rep.Corrupt {
		fmt.Fprintf(os.Stderr, "cosoftd: CORRUPT: %s\n", rep.Detail)
		return 1
	}
	if rep.TornTail {
		fmt.Printf("cosoftd: torn tail (crash signature, recoverable): %s\n", rep.Detail)
	}
	return 0
}

// parseLogLevel maps the -log-level flag to a slog.Level.
func parseLogLevel(s string) (slog.Level, error) {
	switch strings.ToLower(s) {
	case "debug":
		return slog.LevelDebug, nil
	case "info":
		return slog.LevelInfo, nil
	case "warn", "warning":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return 0, fmt.Errorf("unknown log level %q (want debug, info, warn or error)", s)
}

// traceDump is the JSON shape of /debug/trace.
type traceDump struct {
	Spans  []obs.Span                   `json:"spans"`
	Flight map[string][]obs.FlightEntry `json:"flight,omitempty"`
}

// metricsMux builds the observability mux: the JSON snapshot (or Prometheus
// exposition with ?format=prom), the group health plane, the causal trace
// dump, and the pprof profiles (registered explicitly; we serve a private mux,
// not http.DefaultServeMux). tr and fr may be nil, in which case
// /debug/trace reports empty collections; srv may be nil, in which case
// /debug/groups reports 503.
func metricsMux(metrics *obs.Registry, tr *obs.Tracer, fr *obs.FlightRecorder, srv *server.Server) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		prefix := r.URL.Query().Get("name")
		if r.URL.Query().Get("format") == "prom" {
			w.Header().Set("Content-Type", obs.PromContentType)
			if err := metrics.WritePrometheus(w, prefix); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
			return
		}
		w.Header().Set("Content-Type", "application/json")
		snap := metrics.Snapshot()
		if prefix != "" {
			snap = filterSnapshot(snap, prefix)
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(snap); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/debug/groups", func(w http.ResponseWriter, r *http.Request) {
		if srv == nil {
			http.Error(w, "no server attached", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(srv.Health()); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/debug/trace", func(w http.ResponseWriter, r *http.Request) {
		var spans []obs.Span
		if id := r.URL.Query().Get("trace"); id != "" {
			n, err := strconv.ParseUint(id, 16, 64)
			if err != nil {
				http.Error(w, "bad trace id (want hex): "+err.Error(), http.StatusBadRequest)
				return
			}
			spans = tr.TraceSpans(obs.TraceID(n))
		} else {
			spans = tr.Spans()
		}
		if r.URL.Query().Get("format") == "chrome" {
			w.Header().Set("Content-Type", "application/json")
			if err := obs.WriteChromeTrace(w, spans); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
			return
		}
		w.Header().Set("Content-Type", "application/json")
		dump := traceDump{Spans: spans, Flight: fr.Snapshot()}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(dump); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// filterSnapshot keeps only metrics whose name starts with prefix.
func filterSnapshot(snap obs.Snapshot, prefix string) obs.Snapshot {
	out := obs.Snapshot{
		Counters:   make(map[string]uint64),
		Gauges:     make(map[string]obs.GaugeValue),
		Histograms: make(map[string]obs.Summary),
	}
	for name, v := range snap.Counters {
		if strings.HasPrefix(name, prefix) {
			out.Counters[name] = v
		}
	}
	for name, v := range snap.Gauges {
		if strings.HasPrefix(name, prefix) {
			out.Gauges[name] = v
		}
	}
	for name, v := range snap.Histograms {
		if strings.HasPrefix(name, prefix) {
			out.Histograms[name] = v
		}
	}
	for name, v := range snap.Families {
		if strings.HasPrefix(name, prefix) {
			if out.Families == nil {
				out.Families = make(map[string]obs.FamilySnapshot)
			}
			out.Families[name] = v
		}
	}
	return out
}
