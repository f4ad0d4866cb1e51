package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"cosoft/internal/client"
	"cosoft/internal/eventlog"
	"cosoft/internal/obs"
	"cosoft/internal/server"
	"cosoft/internal/wire"
)

// options is how long and how thoroughly one workload is run.
type options struct {
	seed   uint64
	warmup time.Duration
	slices int
	window time.Duration // the measured window, cut into slices
	// The topology is built at least minSetups times, then until setupFor
	// of set-up time has been measured, and never more than setups times;
	// setup_s is the mean of the fastest tenth (fastMean).
	setups   int
	setupFor time.Duration
	reopens  int    // log reopen cycles to take recovery from; one when not tracing
	trace    bool   // also run the layer probes and the traced run
	dir      string // scratch and trace output directory
}

// result is everything one workload run measured.
type result struct {
	Workload  string               `json:"workload"`
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]float64   `json:"metrics"`
	Slices    map[string][]float64 `json:"slices"` // per-slice end-to-end values
	Problems  []string             `json:"problems,omitempty"`
}

func (r *result) problem(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// setUp builds w's topology and returns it with the time that took. The
// bed still has to be primed before it is loaded.
func setUp(w workload, o options, tr *obs.Tracer) (*bed, time.Duration, error) {
	t0 := time.Now()
	b, err := newBed(w, o.dir, tr)
	if err != nil {
		return nil, 0, err
	}
	if err := b.build(o.seed); err != nil {
		b.discard()
		return nil, 0, fmt.Errorf("%s: building topology: %w", w.name, err)
	}
	return b, time.Since(t0) - b.paused, nil
}

// setUpAgain is setUp with two more attempts when a request of the set-up
// timed out: the server bug settle steps around costs a retry, not the run.
// An error that is not a timeout, or a third one, is final.
func setUpAgain(w workload, o options, tr *obs.Tracer) (b *bed, took time.Duration, err error) {
	for attempt := 0; attempt < 3; attempt++ {
		if b, took, err = setUp(w, o, tr); err == nil || !errors.Is(err, client.ErrTimeout) {
			break
		}
		fmt.Fprintf(os.Stderr, "bench: %v; setting up again\n", err)
	}
	return b, took, err
}

const minSetups = 8

// discard closes the bed and removes its log directory.
func (b *bed) discard() {
	b.close()
	if b.logDir != "" {
		os.RemoveAll(b.logDir)
	}
}

// runWorkload measures one workload. An error means the benchmark itself
// could not run; failed operations and failed output checks are reported in
// the result instead.
func runWorkload(w workload, o options) (*result, error) {
	res := &result{Workload: w.name, Metrics: make(map[string]float64)}

	// Set-up, many times over; the last topology is the one measured.
	var b *bed
	var setups []float64
	var total time.Duration
	for len(setups) < o.setups && (len(setups) < minSetups || total < o.setupFor) {
		if b != nil {
			b.discard()
		}
		var took time.Duration
		var err error
		if b, took, err = setUpAgain(w, o, nil); err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
		total += took
	}
	if err := b.prime(); err != nil {
		b.discard()
		return nil, err
	}
	runtime.GC()

	win := b.run(phase{warmup: o.warmup, slices: o.slices, sliceLen: o.window / time.Duration(o.slices)})
	var e2e map[string]float64
	e2e, res.Slices = win.endToEnd()
	for name, v := range e2e {
		res.Metrics[name] = v
	}
	res.Metrics["setup_s"] = fastMean(setups)
	res.Slices["setup_s"] = setups
	res.Attempted, res.Failed = win.attempts, win.failed
	if res.Attempted == 0 {
		res.problem("no operation completed inside the measured window")
		res.Attempted = 1
	}
	win.verdicts(res)

	cyc := win.whole(cycleHists)
	seconds := win.marks[len(win.marks)-1].at.Sub(win.marks[0].at).Seconds()
	b.countMetrics(win.before, win.after, float64(cyc.n), seconds, res.Metrics)
	if !w.statesync() {
		res.Metrics["client.deliver_p50_us"] = win.whole(deliverHists).quantile(0.5) / 1e3
	}
	if pct := tailPercentile(cyc.n); pct > 0 {
		res.Metrics["client.tail_pct"] = pct
		res.Metrics["client.op_tail_us"] = win.whole(opHists).quantile(pct/100) / 1e3
		res.Metrics["client.cycle_tail_us"] = cyc.quantile(pct/100) / 1e3
	}
	res.Metrics["client.samples"] = float64(cyc.n)

	before, err := b.checkQuiescent(res)
	if err != nil {
		return nil, err
	}
	b.close()
	b.checkClosed(res)
	if w.logged {
		reopens := 1
		if o.trace {
			reopens = o.reopens
		}
		if err := checkRecovery(b.logDir, before, float64(b.accepted()), reopens, res); err != nil {
			return nil, err
		}
	}
	if b.logDir != "" {
		os.RemoveAll(b.logDir)
	}

	if o.trace {
		if err := probeLayers(w, o.dir, res.Metrics); err != nil {
			return nil, err
		}
		if err := tracedRun(w, o, res); err != nil {
			return nil, err
		}
	}
	if len(res.Problems) > 0 {
		res.Failed += int64(len(res.Problems))
		res.Attempted += int64(len(res.Problems))
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// verdicts files what the drivers found wrong while running.
func (w *window) verdicts(res *result) {
	for i, rec := range w.recs {
		if rec.abort != nil {
			res.problem("driver %d gave up: %v", i, rec.abort)
		}
		for _, f := range rec.checkFails {
			res.problem("driver %d: %s", i, f)
		}
	}
}

func (b *bed) accepted() int64 {
	var n int64
	for _, g := range b.groups {
		n += g.accepted
	}
	return n
}

// stats is srv.Stats with a deadline: a server whose loop is wedged must
// fail the run, not hang it. The bed cannot be closed after that either, so
// the caller gives up on the whole process.
func (b *bed) stats() (server.Stats, error) {
	got := make(chan server.Stats, 1)
	go func() { got <- b.srv.Stats() }()
	select {
	case st := <-got:
		return st, nil
	case <-time.After(opTimeout):
		return server.Stats{}, fmt.Errorf("%s: server did not answer Stats within %s; its loop is wedged", b.w.name, opTimeout)
	}
}

// checkQuiescent runs the output checks that need the live server, after
// the drivers have stopped: nothing pending, no shared body still
// referenced, never a denied lock, and every replica identical. It returns
// the server's final state.
func (b *bed) checkQuiescent(res *result) (server.Stats, error) {
	deadline := time.Now().Add(5 * time.Second)
	st, err := b.stats()
	for err == nil && (st.PendingEvents != 0 || wire.LiveSharedBodies() != 0) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
		st, err = b.stats()
	}
	if err != nil {
		return st, err
	}
	if st.PendingEvents != 0 {
		res.problem("%d events still pending at quiescence", st.PendingEvents)
	}
	if n := wire.LiveSharedBodies(); n != 0 {
		res.problem("%d shared bodies still referenced at quiescence", n)
	}
	snap := b.reg.Snapshot()
	if n := snap.Counters["lock.group_failures"]; n != 0 {
		res.problem("%d group-lock attempts were denied; unlock pacing should never collide", n)
	}
	for gi, g := range b.groups {
		if got := g.probe.execs.Load(); got != g.accepted {
			res.problem("group %d: probe acknowledged %d Execs, %d events were accepted", gi, got, g.accepted)
		}
		if got := hubValue(g.origin); got != g.lastPayload {
			res.problem("group %d: origin holds %q, last accepted payload is %q", gi, got, g.lastPayload)
		}
		for mi, m := range g.members {
			if got := m.seen.Load(); got != g.accepted {
				res.problem("group %d member %d saw %d events, %d were accepted", gi, mi, got, g.accepted)
			}
			if n := m.outOf.Load(); n != 0 {
				res.problem("group %d member %d saw %d events out of sequence", gi, mi, n)
			}
			if got := hubValue(m.cl); got != g.lastPayload {
				res.problem("group %d member %d holds %q, origin's last payload is %q", gi, mi, got, g.lastPayload)
			}
		}
	}
	if b.w.logged {
		if appends, events := snap.Counters["server.log.appends"], uint64(b.accepted()); appends < events {
			res.problem("log holds %d appends for %d accepted events", appends, events)
		}
	}
	return st, nil
}

// checkClosed runs the checks that need the connections torn down.
func (b *bed) checkClosed(res *result) {
	for gi, g := range b.groups {
		if g.probe.err != nil {
			res.problem("group %d: %v", gi, g.probe.err)
		}
	}
}

// reopen opens the log in dir and starts a server on it, as a restart
// would, and returns the time until the server answered, the records it
// replayed and its state. fn, when non-nil, runs before the server is
// closed again.
func reopen(dir string, fn func(*server.Server) error) (time.Duration, uint64, server.Stats, error) {
	reg := obs.NewRegistry()
	t0 := time.Now()
	l, err := eventlog.Open(eventlog.Options{Dir: dir, Sync: logSync, Metrics: reg})
	if err != nil {
		return 0, 0, server.Stats{}, err
	}
	srv := server.New(serverOptions(reg, nil, l))
	st := srv.Stats()
	took := time.Since(t0)
	if fn != nil {
		err = fn(srv)
	}
	srv.Close()
	if cerr := l.Close(); err == nil {
		err = cerr
	}
	return took, reg.Counter("server.log.replayed").Value(), st, err
}

// checkRecovery restarts from the logged workload's log: from zero
// reopens times (the median is the recovery metric), then once more from a
// forced snapshot, and checks the directory and the recovered state.
func checkRecovery(dir string, before server.Stats, events float64, reopens int, res *result) error {
	var perRecord []float64
	var records uint64
	for i := 0; i < reopens; i++ {
		took, replayed, st, err := reopen(dir, nil)
		if err != nil {
			return fmt.Errorf("reopening the log: %w", err)
		}
		if st.Instances != before.Instances || st.Links != before.Links {
			res.problem("recovered %d instances and %d links, had %d and %d before shutdown",
				st.Instances, st.Links, before.Instances, before.Links)
		}
		if float64(replayed) < events {
			res.problem("replayed %d records for %.0f accepted events", replayed, events)
			replayed = max(replayed, 1)
		}
		records = replayed
		perRecord = append(perRecord, float64(took.Microseconds())/float64(replayed))
	}
	res.Metrics["eventlog.recovery_us_per_record"] = median(perRecord)

	var snapTook time.Duration
	if _, _, _, err := reopen(dir, func(srv *server.Server) error {
		t0 := time.Now()
		err := srv.Snapshot()
		snapTook = time.Since(t0)
		return err
	}); err != nil {
		return fmt.Errorf("forcing a snapshot: %w", err)
	}
	res.Metrics["server.snapshot_write_ms"] = float64(snapTook.Microseconds()) / 1e3
	took, _, st, err := reopen(dir, nil)
	if err != nil {
		return fmt.Errorf("reopening from the snapshot: %w", err)
	}
	if st.Instances != before.Instances || st.Links != before.Links {
		res.problem("recovered %d instances and %d links from the snapshot, had %d and %d",
			st.Instances, st.Links, before.Instances, before.Links)
	}
	// Per record of the whole log, so it compares directly with the
	// from-zero number: what a snapshot buys.
	res.Metrics["server.recover_snapshot_us_per_record"] = float64(took.Microseconds()) / float64(records)

	rep, err := eventlog.Fsck(dir)
	if err != nil {
		return fmt.Errorf("fsck: %w", err)
	}
	if rep.Corrupt || rep.TornTail {
		res.problem("fsck: corrupt=%v torn_tail=%v %s", rep.Corrupt, rep.TornTail, rep.Detail)
	}
	return nil
}

// tracedRun repeats the workload for a fixed number of operations with one
// tracer shared by server and clients, writes the spans out, and derives
// the trace.* metrics and the tracing overhead from them. End-to-end
// metrics never come from this run.
func tracedRun(w workload, o options, res *result) error {
	tr := obs.NewTracer(1 << 20)
	b, _, err := setUpAgain(w, o, tr)
	if err != nil {
		return err
	}
	if err := b.prime(); err != nil {
		b.discard()
		return err
	}
	win := b.run(phase{limit: w.traced})
	win.verdicts(res)
	res.Attempted += win.attempts
	res.Failed += win.failed
	if _, err := b.checkQuiescent(res); err != nil {
		return err
	}
	b.discard()
	b.checkClosed(res)

	spans := tr.Spans()
	for _, g := range b.groups {
		spans = append(spans, g.probe.spans...)
	}
	for _, rec := range win.recs {
		spans = append(spans, rec.spans...)
	}
	if err := writeSpans(filepath.Join(o.dir, "trace-"+w.name+".json"), spans); err != nil {
		return err
	}
	if !w.statesync() {
		traceMetrics(spans, res.Metrics)
	}
	if untraced := res.Metrics["cycle_p50_us"]; untraced > 0 {
		traced := win.whole(cycleHists).quantile(0.5) / 1e3
		res.Metrics["obs.trace_overhead_share"] = traced/untraced - 1
	}
	return nil
}
