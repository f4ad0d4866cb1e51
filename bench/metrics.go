package main

// metricDef names one reported metric. Bound is the share of the parent's
// median by which an end-to-end metric may get worse before a change counts
// as a regression; per-layer metrics have none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd is what a user at a coupled widget (or whoever pays for the
// server) sees. Every workload reports every one of them: "op" is an event
// on the event workloads and a join on statesync. Tails are not here; they
// do not repeat within a tenth on a shared two-core box and are reported
// under client.* instead.
//
// Each is taken over the whole measured window (see endToEnd in drive.go).
// The timing bounds are the widest the contract allows: with both CPUs busy
// ten runs repeat to 3-9 %, but the shared sandbox host also moves between
// speeds a fifth apart over tens of minutes, which nothing inside a run
// removes. The allocation counts repeat to a few parts in a thousand and are
// held to 2%.
//
// The issue also wanted CPU time per operation here. It is reported, as
// process.cpu_us_per_op, but not bounded: a slowed-down host inflates the
// guest's user+sys time as much as its wall time, and on two CPUs that the
// event workloads keep busy ops_per_s already is the capacity number.
var endToEnd = []metricDef{
	// DispatchChecked call → returns OK; on statesync CoupleTree(SyncPull).
	{"op_p50_us", "us", lower, 0.25},
	// Dispatch → unlock notice seen at the probe member, the span other
	// users' widgets are frozen; on statesync join + leave.
	{"cycle_p50_us", "us", lower, 0.25},
	// Completed operations per second, whole server.
	{"ops_per_s", "1/s", higher, 0.25},
	// MemStats.TotalAlloc and Mallocs per completed operation, whole process.
	{"alloc_kb_per_op", "KiB", lower, 0.02},
	{"allocs_per_op", "count", lower, 0.02},
	// server.New (and log open) → last member coupled, without the settle
	// pauses; the fastest tenth of up to a hundred set-ups in one run.
	{"setup_s", "s", lower, 0.25},
}

// perLayer lists the single-layer metrics in the order they are printed;
// the prefix is the package the number belongs to. "Better" for a pure
// count says which direction an optimisation would move it.
var perLayer = []metricDef{
	// getrusage user+sys of the whole process (server and in-process
	// clients) per completed operation, over the window.
	{Name: "process.cpu_us_per_op", Unit: "us", Better: lower},
	{Name: "wire.encode_event_ns", Unit: "ns", Better: lower},
	{Name: "wire.decode_exec_ns", Unit: "ns", Better: lower},
	{Name: "wire.allocs_per_roundtrip", Unit: "count", Better: lower},
	{Name: "wire.shared_exec_ns_per_member", Unit: "ns", Better: lower},
	{Name: "wire.batch_write_ns_per_rec", Unit: "ns", Better: lower},
	{Name: "wire.state_frame_ns", Unit: "ns", Better: lower},
	{Name: "wire.bytes_encoded_per_event", Unit: "B", Better: lower},
	{Name: "wire.body_pool_hit_share", Unit: "share", Better: higher},
	{Name: "lock.group_cycle_ns", Unit: "ns", Better: lower},
	{Name: "lock.attempts_per_event", Unit: "count", Better: lower},
	{Name: "lock.denied_share", Unit: "share", Better: lower},
	{Name: "couple.co_ns", Unit: "ns", Better: lower},
	{Name: "couple.link_cycle_ns", Unit: "ns", Better: lower},
	{Name: "hist.record_ns", Unit: "ns", Better: lower},
	{Name: "compat.scompatible_us", Unit: "us", Better: lower},
	{Name: "widget.capture_tree_us", Unit: "us", Better: lower},
	{Name: "widget.apply_state_us", Unit: "us", Better: lower},
	{Name: "widget.deliver_ns", Unit: "ns", Better: lower},
	{Name: "client.exec_p50_us", Unit: "us", Better: lower},
	{Name: "client.rpc_p50_us", Unit: "us", Better: lower},
	{Name: "client.deliver_p50_us", Unit: "us", Better: lower},
	{Name: "client.op_tail_us", Unit: "us", Better: lower},
	{Name: "client.cycle_tail_us", Unit: "us", Better: lower},
	{Name: "client.tail_pct", Unit: "%", Better: higher},
	{Name: "client.samples", Unit: "count", Better: higher},
	{Name: "eventlog.append_always_us", Unit: "us", Better: lower},
	{Name: "eventlog.append_interval_us", Unit: "us", Better: lower},
	{Name: "eventlog.replay_us_per_record", Unit: "us", Better: lower},
	{Name: "eventlog.bytes_per_record", Unit: "B", Better: lower},
	{Name: "eventlog.records_per_fsync", Unit: "count", Better: higher},
	{Name: "eventlog.recovery_us_per_record", Unit: "us", Better: lower},
	{Name: "server.floor_p50_us", Unit: "us", Better: lower},
	{Name: "server.loop_busy_share", Unit: "share", Better: lower},
	{Name: "server.queue_high_water", Unit: "count", Better: lower},
	{Name: "server.outbox_high_water", Unit: "count", Better: lower},
	{Name: "server.execs_per_event", Unit: "count", Better: lower},
	{Name: "server.batch_mean", Unit: "count", Better: higher},
	{Name: "server.acks_coalesced_share", Unit: "share", Better: higher},
	{Name: "server.handoffs_per_join", Unit: "count", Better: lower},
	{Name: "server.copies_per_join", Unit: "count", Better: lower},
	{Name: "server.snapshot_write_ms", Unit: "ms", Better: lower},
	{Name: "server.recover_snapshot_us_per_record", Unit: "us", Better: lower},
	{Name: "obs.observe_ns", Unit: "ns", Better: lower},
	{Name: "obs.snapshot_us", Unit: "us", Better: lower},
	{Name: "obs.trace_overhead_share", Unit: "share", Better: lower},
	{Name: "trace.origin_send_us", Unit: "us", Better: lower},
	{Name: "trace.arrival_us", Unit: "us", Better: lower},
	{Name: "trace.lock_us", Unit: "us", Better: lower},
	{Name: "trace.exec_out_us", Unit: "us", Better: lower},
	{Name: "trace.exec_out_max_us", Unit: "us", Better: lower},
	{Name: "trace.exec_apply_us", Unit: "us", Better: lower},
	{Name: "trace.ack_return_us", Unit: "us", Better: lower},
	{Name: "trace.ack_tail_us", Unit: "us", Better: lower},
	{Name: "trace.result_return_us", Unit: "us", Better: lower},
	{Name: "trace.unlock_notice_us", Unit: "us", Better: lower},
	{Name: "trace.coverage_share", Unit: "share", Better: higher},
	{Name: "trace.complete_share", Unit: "share", Better: higher},
}

// runSeconds is the length of the measured window the driver asks for, and
// the default of -seconds. Twenty seconds repeat a little better than ten
// (g4x32 by a quarter), thirty no better than twenty; what is left is the
// host changing speed between runs, and a shorter set of runs (70 of them,
// each also setting up and checking) sees fewer such changes.
const runSeconds = 20

// manifest is BENCHMARK.json, generated from the tables above so the file
// and the program cannot disagree (bench_test.go compares them).
func manifest() map[string]any {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	var wls []wl
	for _, w := range workloads {
		if !w.ungated {
			wls = append(wls, wl{w.name, w.why})
		}
	}
	return map[string]any{
		"command":     []string{"go", "run", "-C", "bench", "cosoft/bench"},
		"paths":       []string{"bench"},
		"run_seconds": runSeconds,
		"workloads":   wls,
		"end_to_end":  endToEnd,
		"per_layer":   perLayer,
	}
}
