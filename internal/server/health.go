// The group health plane: a structured, JSON-ready report of per-group
// topology and per-member event health, built from the couple graph, the
// shard lock tables and pending maps, and the server.member metric family.
// cosoftd serves it at /debug/groups and cosoft-repl renders it as the
// `groups` command — the evidence surface for "which member is the chronic
// critical path?", the question the §3.2 floor lock makes matter: every
// event blocks its whole coupling group on the slowest acker.
package server

import (
	"sort"
	"strconv"
	"time"

	"cosoft/internal/couple"
)

// MemberHealth is one instance's event-path health. Stats are per instance,
// not per group: an instance coupled into several groups shows the same
// numbers in each.
type MemberHealth struct {
	// Instance is the member's instance ID.
	Instance string `json:"instance"`
	// Connected reports whether the instance currently has a connection.
	Connected bool `json:"connected"`
	// Acks counts ExecAcks received from the member; LastAcks counts the
	// events where this member acked last — the member the group's unlock
	// waited on. Timeouts counts events that hit their deadline while still
	// waiting on this member.
	Acks     uint64 `json:"acks"`
	LastAcks uint64 `json:"last_acks"`
	Timeouts uint64 `json:"timeouts"`
	// AckEWMANS is the exponentially weighted moving average of the
	// member's ack latency (Event arrival → this member's ExecAck) in
	// nanoseconds; AckP50NS/AckP99NS are quantiles over the same latency.
	AckEWMANS float64 `json:"ack_ewma_ns"`
	AckP50NS  float64 `json:"ack_p50_ns"`
	AckP99NS  float64 `json:"ack_p99_ns"`
}

// GroupHealth is one coupling group's topology plus its members' health.
type GroupHealth struct {
	// Refs lists the group's member objects as "instance:path", in the
	// graph's deterministic order.
	Refs []string `json:"refs"`
	// Shard is the index of the shard loop serializing this group's events.
	Shard int `json:"shard"`
	// LockHolder is the instance currently holding the group's floor lock
	// ("" when unlocked).
	LockHolder string `json:"lock_holder,omitempty"`
	// PendingEvents counts broadcast events of this group still awaiting
	// acknowledgements.
	PendingEvents int `json:"pending_events"`
	// Waiting lists the instances those pending events still await an
	// acknowledgement from, sorted — the members holding the floor right now.
	Waiting []string `json:"waiting,omitempty"`
	// Straggler names the member with the highest ack-latency EWMA — the
	// chronic critical path ("" until someone has acked, or when metrics are
	// disabled).
	Straggler string `json:"straggler,omitempty"`
	// Members holds one entry per distinct instance in the group, sorted by
	// ack-latency EWMA descending (slowest first).
	Members []MemberHealth `json:"members"`
}

// LoopHealth is one serialization loop's utilization numbers.
type LoopHealth struct {
	// Name is "global" or "shard.<i>".
	Name string `json:"name"`
	// BusyNS is the cumulative time the loop spent executing posted
	// closures; Utilization is BusyNS over the server's uptime.
	BusyNS      uint64  `json:"busy_ns"`
	Utilization float64 `json:"utilization"`
	// QueueDepth is the inbox depth at the last dequeue; QueueHighWater the
	// deepest backlog ever sampled.
	QueueDepth     int64 `json:"queue_depth"`
	QueueHighWater int64 `json:"queue_high_water"`
	// Events counts events processed by this shard loop (0 for "global":
	// event work runs on, and is counted by, the shard loops).
	Events uint64 `json:"events"`
	// PendingEvents counts this shard's events still awaiting acks (always
	// 0 for "global": pending state lives on shards).
	PendingEvents int `json:"pending_events"`
}

// HealthReport is the /debug/groups payload.
type HealthReport struct {
	// UptimeNS is time since the server started.
	UptimeNS int64 `json:"uptime_ns"`
	// MemberAttribution reports whether the per-member family is active
	// (it is unless the server runs under obs.Disabled); when false every
	// member's stats read zero by construction.
	MemberAttribution bool `json:"member_attribution"`
	// Loops lists the global loop first, then each shard loop.
	Loops []LoopHealth `json:"loops"`
	// Groups lists every coupling group (two or more members).
	Groups []GroupHealth `json:"groups"`
}

// Health assembles the group health report. Callable from any goroutine: the
// graph, lock tables, client map and metric handles are all individually
// synchronized, and per-shard pending counts are gathered under each shard's
// own serialization (the same non-blocking pattern as pendingCount).
func (s *Server) Health() HealthReport {
	rep := HealthReport{
		UptimeNS:          int64(time.Since(s.started)),
		MemberAttribution: s.mMember != nil,
	}

	// Per-shard pending snapshot: event counts and awaited instances keyed by
	// source ref, taken on the owning loop so the maps are never read
	// concurrently.
	type srcPending struct {
		events  int
		waiting []couple.InstanceID
	}
	type pendingSnap struct {
		idx     int
		bySrc   map[couple.ObjectRef]srcPending
		pending int
	}
	snaps := make(chan pendingSnap, len(s.shards))
	posted := 0
	for _, sh := range s.shards {
		sh := sh
		if s.postShard(sh, func() {
			ps := pendingSnap{idx: sh.idx, bySrc: make(map[couple.ObjectRef]srcPending, len(sh.pending))}
			for _, pe := range sh.pending {
				sp := ps.bySrc[pe.source]
				sp.events++
				sp.waiting = append(sp.waiting, pe.awaited()...)
				ps.bySrc[pe.source] = sp
				ps.pending++
			}
			snaps <- ps
		}) {
			posted++
		}
	}
	pendingBySrc := make(map[couple.ObjectRef]srcPending)
	pendingByShard := make(map[int]int)
	for i := 0; i < posted; i++ {
		select {
		case ps := <-snaps:
			pendingByShard[ps.idx] = ps.pending
			for src, sp := range ps.bySrc {
				all := pendingBySrc[src]
				all.events += sp.events
				all.waiting = append(all.waiting, sp.waiting...)
				pendingBySrc[src] = all
			}
		case <-s.quit:
			i = posted // shutting down: report what we have
		}
	}

	uptime := float64(rep.UptimeNS)
	rep.Loops = append(rep.Loops, LoopHealth{
		Name:           "global",
		BusyNS:         s.mGlobalBusy.Value(),
		Utilization:    utilization(s.mGlobalBusy.Value(), uptime),
		QueueDepth:     s.mGlobalDepth.Value(),
		QueueHighWater: s.mGlobalDepth.HighWater(),
	})
	for _, sh := range s.shards {
		rep.Loops = append(rep.Loops, LoopHealth{
			Name:           "shard." + strconv.Itoa(sh.idx),
			BusyNS:         sh.mBusy.Value(),
			Utilization:    utilization(sh.mBusy.Value(), uptime),
			QueueDepth:     sh.mDepth.Value(),
			QueueHighWater: sh.mDepth.HighWater(),
			Events:         sh.mEvents.Value(),
			PendingEvents:  pendingByShard[sh.idx],
		})
	}

	for _, refs := range s.st.graph.Groups() {
		g := GroupHealth{Shard: s.shardForRef(refs[0]).idx}
		seen := make(map[couple.InstanceID]bool)
		awaited := make(map[couple.InstanceID]bool)
		sh := s.shards[g.Shard]
		for _, ref := range refs {
			g.Refs = append(g.Refs, ref.String())
			g.PendingEvents += pendingBySrc[ref].events
			for _, inst := range pendingBySrc[ref].waiting {
				if !awaited[inst] {
					awaited[inst] = true
					g.Waiting = append(g.Waiting, string(inst))
				}
			}
			if g.LockHolder == "" {
				// The lock table carries its own mutex, so holders can be
				// read from here without entering the shard loop.
				if owner, held := sh.locks.HeldBy(ref); held {
					g.LockHolder = string(owner.Instance)
				}
			}
			if seen[ref.Instance] {
				continue
			}
			seen[ref.Instance] = true
			g.Members = append(g.Members, s.memberHealth(ref.Instance))
		}
		sort.Strings(g.Waiting)
		sort.SliceStable(g.Members, func(i, j int) bool {
			return g.Members[i].AckEWMANS > g.Members[j].AckEWMANS
		})
		if len(g.Members) > 0 && g.Members[0].AckEWMANS > 0 {
			g.Straggler = g.Members[0].Instance
		}
		rep.Groups = append(rep.Groups, g)
	}
	// Deterministic group order: by first ref.
	sort.Slice(rep.Groups, func(i, j int) bool { return rep.Groups[i].Refs[0] < rep.Groups[j].Refs[0] })
	return rep
}

// memberHealth reads one instance's entry from the member family. Peek
// neither creates entries nor disturbs the LRU, so reporting cannot inflate
// the family past members that actually acked.
func (s *Server) memberHealth(id couple.InstanceID) MemberHealth {
	_, connected := s.clientOf(id)
	mh := MemberHealth{Instance: string(id), Connected: connected}
	e := s.mMember.Peek(string(id))
	if e == nil {
		return mh
	}
	mh.Acks = e.Counter(memberAcks).Value()
	mh.LastAcks = e.Counter(memberLastAcks).Value()
	mh.Timeouts = e.Counter(memberTimeouts).Value()
	mh.AckEWMANS = e.EWMA().Value()
	sum := e.Hist().Summary()
	mh.AckP50NS = sum.P50
	mh.AckP99NS = sum.P99
	return mh
}

func utilization(busy uint64, uptimeNS float64) float64 {
	if uptimeNS <= 0 {
		return 0
	}
	return float64(busy) / uptimeNS
}
