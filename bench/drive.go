package main

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"cosoft/internal/attr"
	"cosoft/internal/client"
	"cosoft/internal/obs"
	"cosoft/internal/widget"
)

// recorder holds one driver's measurements, one set per slice of the
// measured window. Only the driver goroutine writes it; it is read after
// the driver has returned.
type recorder struct {
	slice *atomic.Int32 // the slice being measured, -1 outside the window

	op      []latHist // origin-visible latency (DispatchChecked / CoupleTree)
	cycle   []latHist // until the user can act again (unlock notice / join+leave)
	deliver []latHist // dispatch → OnRemoteEvent at the last full member
	failed  []int64

	checkFails []string // output checks that failed inside the loop
	abort      error    // why the driver gave up before being stopped

	spans []obs.Span // bench.* spans of a traced run
}

func newRecorder(slice *atomic.Int32, slices int) *recorder {
	return &recorder{slice: slice,
		op: make([]latHist, slices), cycle: make([]latHist, slices),
		deliver: make([]latHist, slices), failed: make([]int64, slices)}
}

// fail counts one failed operation and reports whether the driver should
// give up: ten failures in a row mean the topology is broken, not slow.
func (r *recorder) fail(streak *int, err error) bool {
	if s := r.slice.Load(); s >= 0 {
		r.failed[s]++
	}
	*streak++
	if *streak >= 10 {
		r.abort = fmt.Errorf("10 consecutive failures, last: %w", err)
		return true
	}
	return false
}

func newSpanID() obs.SpanID {
	for {
		if v := rand.Uint64(); v != 0 {
			return obs.SpanID(v)
		}
	}
}

func (r *recorder) span(trace obs.TraceID, parent obs.SpanID, name, inst string, start, end time.Time) obs.SpanID {
	id := newSpanID()
	r.spans = append(r.spans, obs.Span{Trace: trace, ID: id, Parent: parent, Name: name, Inst: inst,
		Start: start.UnixNano(), End: end.UnixNano()})
	return id
}

// driveEvents is the closed loop of one group's user: act, wait until the
// floor is free again (the probe member's unlock notice), act again. It never
// sleeps or polls, so a rejected event is a failure, not pacing. limit > 0
// stops it after that many accepted events.
func (g *eventGroup) driveEvents(rec *recorder, stop *atomic.Bool, limit int64, traced bool) {
	timer := time.NewTimer(opTimeout)
	defer timer.Stop()
	inst := string(g.origin.ID())
	streak := 0
	for done := int64(0); !stop.Load() && (limit == 0 || done < limit); {
		select {
		case <-g.probe.unlock: // left behind by a wait that timed out
		default:
		}
		payload := g.pl.next()
		g.delivered.Store(0)
		t0 := time.Now()
		err := g.origin.DispatchChecked(hubEvent(payload))
		t1 := time.Now()
		if err != nil {
			if rec.fail(&streak, err) {
				return
			}
			continue
		}
		g.accepted++
		g.lastPayload = payload
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(opTimeout)
		var notice unlockNotice
		select {
		case notice = <-g.probe.unlock:
		case <-timer.C:
			err = fmt.Errorf("no unlock notice within %s", opTimeout)
		case <-g.probe.done:
			err = fmt.Errorf("probe connection lost: %v", g.probe.err)
		}
		t2 := time.Now()
		if err != nil {
			if rec.fail(&streak, err) {
				return
			}
			continue
		}
		streak = 0
		done++
		if s := rec.slice.Load(); s >= 0 {
			rec.op[s].observe(int64(t1.Sub(t0)))
			rec.cycle[s].observe(int64(t2.Sub(t0)))
			rec.deliver[s].observe(g.lastDeliver.Load() - t0.UnixNano())
		}
		if traced && notice.trace.Valid() {
			// The trace ID is minted inside DispatchChecked, so the bench's
			// own spans are filed under it once the unlock notice (which
			// carries it) is in hand.
			root := rec.span(notice.trace.Trace, 0, "bench.dispatch", inst, t0, t1)
			rec.span(notice.trace.Trace, root, "bench.unlock_wait", inst, t1, t2)
		}
	}
}

// driveJoins is the closed loop of one joiner: couple the local board to the
// host's with an initial pull, then decouple again. Every 64th join first
// blanks the local fields and afterwards checks they hold the host's values.
func (p *syncPair) driveJoins(rec *recorder, stop *atomic.Bool, limit int64, traced bool) {
	inst := string(p.joiner.ID())
	streak := 0
	for done := int64(0); !stop.Load() && (limit == 0 || done < limit); {
		verify := (p.joins+1)%64 == 0
		if verify {
			// Late ApplyStates of earlier joins must land before the fields
			// are blanked, or they would mask a pull that did nothing.
			if err := p.awaitApplied(p.joins); err != nil {
				rec.checkFails = append(rec.checkFails, err.Error())
			}
			p.blank()
		}
		t0 := time.Now()
		n, err := p.joiner.CoupleTree(boardPath, p.hostRef, client.SyncPull)
		t1 := time.Now()
		if err == nil && n != boardPairs {
			err = fmt.Errorf("CoupleTree made %d links, want %d", n, boardPairs)
		}
		if err != nil {
			// Leave no half-coupled board behind for the next attempt.
			_, _ = p.joiner.DecoupleTree(boardPath, p.hostRef)
			if rec.fail(&streak, err) {
				return
			}
			continue
		}
		p.joins++
		if verify {
			if err := p.verifyPulled(); err != nil {
				rec.checkFails = append(rec.checkFails, err.Error())
			}
		}
		t2 := time.Now()
		n, err = p.joiner.DecoupleTree(boardPath, p.hostRef)
		t3 := time.Now()
		if err == nil && n != boardPairs {
			err = fmt.Errorf("DecoupleTree removed %d links, want %d", n, boardPairs)
		}
		if err != nil {
			if rec.fail(&streak, err) {
				return
			}
			continue
		}
		streak = 0
		done++
		if s := rec.slice.Load(); s >= 0 {
			rec.op[s].observe(int64(t1.Sub(t0)))
			rec.cycle[s].observe(int64(t1.Sub(t0) + t3.Sub(t2)))
		}
		if traced {
			trace := obs.TraceID(newSpanID())
			rec.span(trace, 0, "bench.couple_tree", inst, t0, t1)
			rec.span(trace, 0, "bench.decouple_tree", inst, t2, t3)
		}
	}
}

// awaitApplied waits until the joiner has applied the states of the first
// joins joins (each pulls boardPairs of them).
func (p *syncPair) awaitApplied(joins int64) error {
	deadline := time.Now().Add(opTimeout)
	for p.applied.Load() < joins*boardPairs {
		if time.Now().After(deadline) {
			return fmt.Errorf("statesync: joiner applied %d states, want %d", p.applied.Load(), joins*boardPairs)
		}
		time.Sleep(50 * time.Microsecond)
	}
	return nil
}

func (p *syncPair) blank() {
	for i := 0; i < boardFields; i++ {
		if w, err := p.joiner.Registry().Lookup(fieldPath(i)); err == nil {
			w.SetAttr(widget.AttrValue, attr.String(""))
		}
	}
}

// verifyPulled checks that every joiner field equals the host's.
func (p *syncPair) verifyPulled() error {
	if err := p.awaitApplied(p.joins); err != nil {
		return err
	}
	for i, want := range p.values {
		w, err := p.joiner.Registry().Lookup(fieldPath(i))
		if err != nil {
			return err
		}
		if got := w.Attr(widget.AttrValue).AsString(); got != want {
			return fmt.Errorf("statesync: after join %d field %d is %q, host has %q", p.joins, i, got, want)
		}
	}
	return nil
}

// mark is what the coordinator reads at a slice boundary.
type mark struct {
	at      time.Time
	cpu     time.Duration // user+system time of the process so far
	mallocs uint64
	bytes   uint64
}

func takeMark() mark {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return mark{
		at:      time.Now(),
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs: ms.Mallocs,
		bytes:   ms.TotalAlloc,
	}
}

// window is one measured run of a bed's drivers.
type window struct {
	marks    []mark // slices+1 boundaries
	recs     []*recorder
	before   counters // at the first boundary of a timed window
	after    counters // at the last
	attempts int64
	failed   int64
}

// phase says how long and how the drivers of a bed run.
type phase struct {
	warmup   time.Duration
	slices   int
	sliceLen time.Duration
	// limit > 0 replaces the timed window by a fixed number of operations
	// per driver (the traced run), measured as one slice.
	limit int64
}

// run drives b's topology through ph and returns what was measured.
func (b *bed) run(ph phase) *window {
	var slice atomic.Int32
	slice.Store(-1)
	var stop atomic.Bool
	win := &window{}
	var wg sync.WaitGroup
	traced := b.tracer != nil
	start := func(i int, limit int64) {
		rec := newRecorder(&slice, max(ph.slices, 1))
		win.recs = append(win.recs, rec)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if b.w.statesync() {
				b.pairs[i].driveJoins(rec, &stop, limit, traced)
			} else {
				b.groups[i].driveEvents(rec, &stop, limit, traced)
			}
		}()
	}
	if ph.limit > 0 {
		// Fixed-count run, measured whole as one slice; its first operations
		// are cold, which a median over thousands does not see.
		slice.Store(0)
		win.marks = append(win.marks, takeMark())
		for i := 0; i < b.w.drivers(); i++ {
			start(i, ph.limit)
		}
		wg.Wait()
		win.marks = append(win.marks, takeMark())
	} else {
		for i := 0; i < b.w.drivers(); i++ {
			start(i, 0)
		}
		next := time.Now().Add(ph.warmup)
		time.Sleep(ph.warmup)
		win.before = b.counters()
		for s := 0; s < ph.slices; s++ {
			slice.Store(int32(s))
			win.marks = append(win.marks, takeMark())
			next = next.Add(ph.sliceLen)
			time.Sleep(time.Until(next))
		}
		slice.Store(-1)
		win.marks = append(win.marks, takeMark())
		win.after = b.counters()
		stop.Store(true)
		wg.Wait()
	}
	for _, rec := range win.recs {
		for s := range rec.cycle {
			win.attempts += int64(rec.cycle[s].n) + rec.failed[s]
			win.failed += rec.failed[s]
		}
	}
	return win
}

// merged returns the union over drivers of one histogram kind in slice s.
func (w *window) merged(pick func(*recorder) []latHist, s int) *latHist {
	var h latHist
	for _, rec := range w.recs {
		h.merge(&pick(rec)[s])
	}
	return &h
}

// whole returns the union over drivers and slices.
func (w *window) whole(pick func(*recorder) []latHist) *latHist {
	var h latHist
	for s := 0; s < len(w.marks)-1; s++ {
		h.merge(w.merged(pick, s))
	}
	return &h
}

func opHists(r *recorder) []latHist      { return r.op }
func cycleHists(r *recorder) []latHist   { return r.cycle }
func deliverHists(r *recorder) []latHist { return r.deliver }

// sliceMetrics computes the end-to-end metrics, and the CPU time per
// operation, over slices from up to but not including to, taken together.
func (w *window) sliceMetrics(from, to int) map[string]float64 {
	var op, cyc latHist
	for s := from; s < to; s++ {
		op.merge(w.merged(opHists, s))
		cyc.merge(w.merged(cycleHists, s))
	}
	ops := float64(cyc.n)
	if ops == 0 {
		return nil
	}
	m0, m1 := w.marks[from], w.marks[to]
	return map[string]float64{
		"op_p50_us":       op.quantile(0.5) / 1e3,
		"cycle_p50_us":    cyc.quantile(0.5) / 1e3,
		"ops_per_s":       ops / m1.at.Sub(m0.at).Seconds(),
		"alloc_kb_per_op": float64(m1.bytes-m0.bytes) / 1024 / ops,
		"allocs_per_op":   float64(m1.mallocs-m0.mallocs) / ops,
		// Per-layer: see the note on endToEnd in metrics.go.
		"process.cpu_us_per_op": float64((m1.cpu - m0.cpu).Microseconds()) / ops,
	}
}

// endToEnd returns the end-to-end metrics over the whole window, and for
// the record every slice's own values (their spread is printed beside each
// metric and decides -compare's "unresolved").
//
// The issue asked for the median over the slices, and an earlier version
// took the quarter of the slices with the highest throughput. With both
// CPUs kept busy neither repeats better than the plain figure: over eight
// runs of each workload with 20 s windows in half-second slices, the
// run-to-run spread of ops_per_s was 8.0 / 7.2 / 2.4 / 7.9 % for the whole
// window (g8x3, g4x32, g8x3-logged, statesync),
// 8.0 / 6.7 / 2.9 / 12.7 % for the median of slices and 10.4 / 9.8 / 4.9 /
// 7.8 % for the best quarter; the p50s rank the same way.
func (w *window) endToEnd() (values map[string]float64, slices map[string][]float64) {
	slices = make(map[string][]float64)
	n := len(w.marks) - 1
	for s := 0; s < n; s++ {
		for name, v := range w.sliceMetrics(s, s+1) {
			slices[name] = append(slices[name], v)
		}
	}
	return w.sliceMetrics(0, n), slices
}
