package main

import (
	"fmt"

	"cosoft/internal/obs"
)

// counters is a reading of everything the program exports that the
// benchmark turns into per-layer metrics: the server registry's snapshot
// plus the raw buckets of the histograms whose window quantiles it needs
// (a Summary is cumulative; a bucket difference is not).
type counters struct {
	snap     obs.Snapshot
	eventRTT histBuckets // server.event_rtt_ns
	batch    histBuckets // server.batch_size
	exec     histBuckets // client.exec_ns, all full clients
	rpc      histBuckets // client.rpc_ns, all full clients
}

type histBuckets struct {
	b     [obs.NumHistBuckets]uint64
	count uint64
	sum   int64
}

func readBuckets(h *obs.Histogram) histBuckets {
	var hb histBuckets
	hb.b, hb.count, hb.sum = h.Buckets()
	return hb
}

func (b *bed) counters() counters {
	return counters{
		snap:     b.reg.Snapshot(),
		eventRTT: readBuckets(b.reg.Histogram("server.event_rtt_ns")),
		batch:    readBuckets(b.reg.Histogram("server.batch_size")),
		exec:     readBuckets(b.cliReg.Histogram("client.exec_ns")),
		rpc:      readBuckets(b.cliReg.Histogram("client.rpc_ns")),
	}
}

// sub returns the observations made between two readings.
func (hb histBuckets) sub(before histBuckets) histBuckets {
	d := histBuckets{count: hb.count - before.count, sum: hb.sum - before.sum}
	for i := range hb.b {
		d.b[i] = hb.b[i] - before.b[i]
	}
	return d
}

func (hb histBuckets) mean() float64 {
	if hb.count == 0 {
		return 0
	}
	return float64(hb.sum) / float64(hb.count)
}

// quantile interpolates inside obs's power-of-two buckets (bucket 0 holds
// zeros, bucket k holds [2^(k-1), 2^k)), as obs.Histogram.Summary does.
func (hb histBuckets) quantile(q float64) float64 {
	var total uint64
	for _, n := range hb.b {
		total += n
	}
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var seen float64
	for i, n := range hb.b {
		if n == 0 {
			continue
		}
		if seen+float64(n) >= rank {
			if i == 0 {
				return 0
			}
			lo := float64(int64(1) << (i - 1))
			return lo + (rank-seen)/float64(n)*lo
		}
		seen += float64(n)
	}
	return 0
}

func share(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return part / whole
}

// countMetrics derives the count-based per-layer metrics of one window.
// ops is the number of completed operations (events or joins) in it and
// seconds its length.
func (b *bed) countMetrics(before, after counters, ops, seconds float64, out map[string]float64) {
	delta := func(name string) float64 {
		return float64(after.snap.Counters[name] - before.snap.Counters[name])
	}
	events := delta("server.events")

	out["wire.bytes_encoded_per_event"] = share(delta("server.bytes_encoded"), events)
	hits, misses := delta("wire.body_pool_hits"), delta("wire.body_pool_misses")
	out["wire.body_pool_hit_share"] = share(hits, hits+misses)

	out["lock.attempts_per_event"] = share(delta("lock.group_attempts"), events)
	out["lock.denied_share"] = share(delta("lock.group_failures"), delta("lock.group_attempts"))

	out["client.exec_p50_us"] = after.exec.sub(before.exec).quantile(0.5) / 1e3
	out["client.rpc_p50_us"] = after.rpc.sub(before.rpc).quantile(0.5) / 1e3

	appends := delta("server.log.appends")
	out["eventlog.bytes_per_record"] = share(delta("server.log.bytes"), appends)
	out["eventlog.records_per_fsync"] = share(appends, delta("server.log.fsyncs"))

	out["server.floor_p50_us"] = after.eventRTT.sub(before.eventRTT).quantile(0.5) / 1e3
	busy := delta("server.global.busy_ns")
	queueHW := after.snap.Gauges["server.global.queue_depth"].HighWater
	const loops = 3 // the global loop and the two shard loops
	for i := 0; i < loops-1; i++ {
		busy += delta(fmt.Sprintf("server.shard.%d.busy_ns", i))
		queueHW = max(queueHW, after.snap.Gauges[fmt.Sprintf("server.shard.%d.queue_depth", i)].HighWater)
	}
	out["server.loop_busy_share"] = share(busy, seconds*1e9*loops)
	out["server.queue_high_water"] = float64(queueHW)
	out["server.outbox_high_water"] = float64(after.snap.Gauges["server.outbox_depth"].HighWater)
	out["server.execs_per_event"] = share(delta("server.execs_sent"), events)
	// server.batch_size only sees packed frames; with none in the window
	// every frame carried one envelope.
	out["server.batch_mean"] = 1
	if packed := after.batch.sub(before.batch); packed.count > 0 {
		out["server.batch_mean"] = packed.mean()
	}
	out["server.acks_coalesced_share"] = share(delta("server.acks_coalesced"), delta("server.execs_sent"))
	if b.w.statesync() {
		out["server.handoffs_per_join"] = share(delta("server.cross_shard_handoffs"), ops)
		out["server.copies_per_join"] = share(delta("server.copies"), ops)
	}
}
