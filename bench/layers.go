package main

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"runtime"
	"strings"
	"time"

	"cosoft/internal/attr"
	"cosoft/internal/compat"
	"cosoft/internal/couple"
	"cosoft/internal/eventlog"
	"cosoft/internal/hist"
	"cosoft/internal/lock"
	"cosoft/internal/obs"
	"cosoft/internal/server"
	"cosoft/internal/widget"
	"cosoft/internal/wire"
)

// memConn is an in-memory net.Conn: writes append to a buffer, reads consume
// it. A probe that only encodes resets the buffer itself.
type memConn struct{ bytes.Buffer }

func (*memConn) Close() error                     { return nil }
func (*memConn) LocalAddr() net.Addr              { return memAddr{} }
func (*memConn) RemoteAddr() net.Addr             { return memAddr{} }
func (*memConn) SetDeadline(time.Time) error      { return nil }
func (*memConn) SetReadDeadline(time.Time) error  { return nil }
func (*memConn) SetWriteDeadline(time.Time) error { return nil }

type memAddr struct{}

func (memAddr) Network() string { return "mem" }
func (memAddr) String() string  { return "mem" }

const probeRounds = 5

// perOp times rounds of iters calls and returns the median round's
// nanoseconds per call. prep, when non-nil, runs untimed before each round.
func perOp(iters int, prep, fn func()) float64 {
	var rounds []float64
	for r := 0; r < probeRounds; r++ {
		if prep != nil {
			prep()
		}
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			fn()
		}
		rounds = append(rounds, float64(time.Since(t0))/float64(iters))
	}
	return median(rounds)
}

// probeLayers times the exported calls of each package from outside, with
// inputs shaped like w: fan is the number of members an event of w reaches.
// Every value is a fixed-iteration timing, not a sample of the load run.
func probeLayers(w workload, dir string, out map[string]float64) error {
	fan := 1
	if !w.statesync() {
		fan = w.members + 1 // full members and the probe
	}
	payload := attr.String(strings.Repeat("v", 64))
	origin := couple.ObjectRef{Instance: "bench-1", Path: hubPath}
	must := func(err error) {
		if err != nil {
			panic(fmt.Sprintf("layer probe: %v", err)) // in-memory writes of valid messages cannot fail
		}
	}

	// wire: one small frame each way.
	mc := &memConn{}
	conn := wire.NewConn(mc)
	event := wire.Envelope{Seq: 7, Msg: wire.Event{Path: hubPath, Name: widget.EventChanged, Args: []attr.Value{payload}}}
	exec := wire.Envelope{Msg: wire.Exec{EventID: 7, TargetPath: hubPath, Name: widget.EventChanged,
		Args: []attr.Value{payload}, Origin: origin}}
	const small = 2000
	out["wire.encode_event_ns"] = perOp(small, nil, func() { mc.Reset(); must(conn.Write(event)) })
	fill := func() {
		mc.Reset()
		for i := 0; i < small; i++ {
			must(conn.Write(exec))
		}
	}
	out["wire.decode_exec_ns"] = perOp(small, fill, func() {
		_, err := conn.Read()
		must(err)
	})
	fill()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for i := 0; i < small; i++ {
		_, err := conn.Read()
		must(err)
	}
	mc.Reset()
	for i := 0; i < small; i++ {
		mc.Reset()
		must(conn.Write(event))
	}
	runtime.ReadMemStats(&ms1)
	out["wire.allocs_per_roundtrip"] = float64(ms1.Mallocs-ms0.Mallocs) / small

	// wire: an encode-once broadcast to fan members, and one packed frame.
	sinks := make([]*memConn, fan)
	conns := make([]*wire.Conn, fan)
	for i := range conns {
		sinks[i] = &memConn{}
		conns[i] = wire.NewConn(sinks[i])
	}
	args := []attr.Value{payload}
	out["wire.shared_exec_ns_per_member"] = perOp(20000/fan, nil, func() {
		se := wire.NewSharedExec(7, widget.EventChanged, args, origin)
		for i, c := range conns {
			sinks[i].Reset()
			must(c.WriteOutgoing(wire.Outgoing{Shared: se, Target: hubPath}))
		}
		se.Release()
	}) / float64(fan)
	const batch = 32
	recs := make([]wire.Outgoing, batch)
	out["wire.batch_write_ns_per_rec"] = perOp(500, nil, func() {
		se := wire.NewSharedExec(7, widget.EventChanged, args, origin)
		for i := range recs {
			recs[i] = wire.Outgoing{Shared: se, Target: hubPath}
		}
		mc.Reset()
		must(conn.WriteBatch(recs))
		se.Release()
	}) / batch

	// wire + widget: the statesync board as one state frame.
	values := make([]string, boardFields)
	for i := range values {
		values[i] = strings.Repeat("v", 64)
	}
	boardA, boardB := boardRegistry(values), boardRegistry(nil)
	stateA, err := boardA.CaptureTree(boardPath, true)
	if err != nil {
		return err
	}
	stateB, err := boardB.CaptureTree(boardPath, true)
	if err != nil {
		return err
	}
	apply := wire.Envelope{Msg: wire.ApplyState{Path: boardPath, State: stateA, Origin: "bench-1"}}
	out["wire.state_frame_ns"] = perOp(500, nil, func() {
		mc.Reset()
		must(conn.Write(apply))
		_, err := conn.Read()
		must(err)
	})
	out["widget.capture_tree_us"] = perOp(500, nil, func() {
		_, err := boardA.CaptureTree(boardPath, true)
		must(err)
	}) / 1e3
	fields := make([]*widget.Widget, boardFields)
	for i := range fields {
		if fields[i], err = boardB.Lookup(fieldPath(i)); err != nil {
			return err
		}
	}
	flip := false
	out["widget.apply_state_us"] = perOp(500, nil, func() {
		// Alternate two boards so every attribute really changes.
		src := stateA
		if flip = !flip; flip {
			src = stateB
		}
		for i, f := range fields {
			f.ApplyState(src.Children[i].Attrs)
		}
	}) / 1e3
	checker := compat.NewChecker(boardA.Classes(), compat.NewCorrespondences())
	out["compat.scompatible_us"] = perOp(200, nil, func() {
		if _, ok, _ := checker.SCompatible(stateB, stateA, compat.MatchOptions{Heuristic: true}); !ok {
			panic("layer probe: the two boards are not s-compatible")
		}
	}) / 1e3
	hub := hubRegistry()
	remote := &widget.Event{Path: hubPath, Name: widget.EventChanged, Args: args, Remote: true}
	out["widget.deliver_ns"] = perOp(small, nil, func() {
		_, err := hub.Deliver(remote)
		must(err)
	})

	// lock, couple, hist: the group an event of w touches.
	refs := make([]couple.ObjectRef, fan)
	graph := couple.NewGraph()
	for i := range refs {
		refs[i] = couple.ObjectRef{Instance: couple.InstanceID(fmt.Sprintf("bench-%d", i+2)), Path: hubPath}
		must(graph.AddLink(couple.Link{From: origin, To: refs[i], Creator: origin.Instance}))
	}
	table := lock.NewTable()
	owner := lock.Owner{Instance: origin.Instance, Seq: 1}
	out["lock.group_cycle_ns"] = perOp(small, nil, func() {
		if ok, _ := table.TryLockGroup(refs, owner); !ok {
			panic("layer probe: uncontended group lock denied")
		}
		table.UnlockGroup(refs, owner)
	})
	out["couple.co_ns"] = perOp(small, nil, func() { graph.CO(origin) })
	extra := couple.ObjectRef{Instance: "bench-extra", Path: hubPath}
	out["couple.link_cycle_ns"] = perOp(small, nil, func() {
		must(graph.AddLink(couple.Link{From: origin, To: extra, Creator: origin.Instance}))
		graph.RemoveLink(origin, extra)
	})
	db := hist.NewDB(0)
	snap := hist.Snapshot{Ref: refs[0], State: stateA.Children[0], Origin: origin.Instance, At: time.Now()}
	out["hist.record_ns"] = perOp(small, nil, func() { db.Record(snap) })

	// obs: the cost of one observation and of one full snapshot of the
	// server's own registry.
	reg := obs.NewRegistry()
	server.New(serverOptions(reg, nil, nil)).Close()
	h, c := reg.Histogram("server.event_rtt_ns"), reg.Counter("server.events")
	out["obs.observe_ns"] = perOp(small*10, nil, func() { h.Observe(40000); c.Inc() })
	out["obs.snapshot_us"] = perOp(200, nil, func() { reg.Snapshot() }) / 1e3

	return probeEventLog(dir, exec, out)
}

// probeEventLog times one Append to return under each sync policy, then a
// decode-only replay of what was written.
func probeEventLog(dir string, exec wire.Envelope, out map[string]float64) error {
	rec := eventlog.Record{Kind: eventlog.KindEvent, Origin: "bench-1", Group: "bench-1:" + hubPath, Env: exec}
	for _, p := range []struct {
		name  string
		sync  eventlog.Sync
		iters int
	}{
		{"eventlog.append_always_us", eventlog.SyncAlways, 100},
		{"eventlog.append_interval_us", eventlog.SyncInterval, 2000},
	} {
		d, err := os.MkdirTemp(dir, "probe-log-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(d)
		l, err := eventlog.Open(eventlog.Options{Dir: d, Sync: p.sync})
		if err != nil {
			return err
		}
		var appendErr error
		out[p.name] = perOp(p.iters, nil, func() {
			if err := l.Append(rec); err != nil {
				appendErr = err
			}
		}) / 1e3
		if err := l.Close(); err != nil {
			return err
		}
		if appendErr != nil {
			return appendErr
		}
		if p.sync != eventlog.SyncInterval {
			continue
		}
		n := 0
		t0 := time.Now()
		if err := eventlog.ReplayDir(d, func(eventlog.Record) error { n++; return nil }); err != nil {
			return err
		}
		if n != p.iters*probeRounds {
			return fmt.Errorf("layer probe: replayed %d records, appended %d", n, p.iters*probeRounds)
		}
		out["eventlog.replay_us_per_record"] = float64(time.Since(t0).Microseconds()) / float64(n)
	}
	return nil
}
