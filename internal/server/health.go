// The group health plane: a structured, JSON-ready report of per-group
// topology and per-member event health, built from the couple graph, the
// lock table, the pending events and the server.member metric family.
// cosoftd serves it at /debug/groups and cosoft-repl renders it as the
// `groups` command — the evidence surface for "which member is the chronic
// critical path?", the question the §3.2 floor lock makes matter: every
// event blocks its whole coupling group on the slowest acker.
package server

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"cosoft/internal/couple"
	"cosoft/internal/lock"
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
	// waiting on this member. Pushbacks counts the lock holders' writes the
	// member's socket did not take whole — a member falling behind shows
	// here before the outbox limit evicts it.
	Acks      uint64 `json:"acks"`
	LastAcks  uint64 `json:"last_acks"`
	Timeouts  uint64 `json:"timeouts"`
	Pushbacks uint64 `json:"pushbacks"`
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

// LoopHealth is the utilization of one serialization point: the global lock
// (gmu) or the event lock. The name stays from when each was a goroutine.
type LoopHealth struct {
	// Name is "global" or "event_lock".
	Name string `json:"name"`
	// BusyNS is the cumulative time the lock was held; Utilization is BusyNS
	// over the server's uptime.
	BusyNS      uint64  `json:"busy_ns"`
	Utilization float64 `json:"utilization"`
	// QueueDepth is the number of goroutines waiting for the lock;
	// QueueHighWater the most ever seen waiting.
	QueueDepth     int64 `json:"queue_depth"`
	QueueHighWater int64 `json:"queue_high_water"`
	// Events counts events processed under the lock (0 for "global": event
	// work runs under, and is counted by, the event lock).
	Events uint64 `json:"events"`
	// PendingEvents counts events still awaiting acks (always 0 for
	// "global": pending state lives under the event lock).
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
	// Loops lists the global lock first, then the event lock.
	Loops []LoopHealth `json:"loops"`
	// Groups lists every coupling group (two or more members).
	Groups []GroupHealth `json:"groups"`
}

// Health assembles the group health report. Callable from any goroutine: the
// graph, lock table, client map and metric handles are all individually
// synchronized, and the pending events are read under the event lock.
func (s *Server) Health() HealthReport {
	rep := HealthReport{
		UptimeNS:          int64(s.opts.Clock.Now().Sub(s.started)),
		MemberAttribution: s.mMember != nil,
	}

	// Pending snapshot: event counts and awaited instances keyed by source
	// ref, taken under the event lock.
	type srcPending struct {
		events  int
		waiting []couple.InstanceID
	}
	pendingBySrc := make(map[couple.ObjectRef]srcPending)
	s.ev.lock()
	for _, pe := range s.ev.pending {
		sp := pendingBySrc[pe.source]
		sp.events++
		sp.waiting = append(sp.waiting, pe.awaited()...)
		pendingBySrc[pe.source] = sp
	}
	pending := len(s.ev.pending)
	s.ev.unlock()

	uptime := float64(rep.UptimeNS)
	loop := func(name string, l *serial) LoopHealth {
		return LoopHealth{
			Name:           name,
			BusyNS:         l.mBusy.Value(),
			Utilization:    utilization(l.mBusy.Value(), uptime),
			QueueDepth:     l.mDepth.Value(),
			QueueHighWater: l.mDepth.HighWater(),
		}
	}
	events := loop("event_lock", &s.ev.serial)
	events.Events, events.PendingEvents = s.mEvents.Value(), pending
	rep.Loops = append(rep.Loops, loop("global", &s.gmu), events)

	for _, refs := range s.st.graph.Groups() {
		var g GroupHealth
		seen := make(map[couple.InstanceID]bool)
		awaited := make(map[couple.InstanceID]bool)
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
				// read from here without taking the event lock.
				if owner, held := s.locks.HeldBy(ref); held {
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
	mh.Pushbacks = e.Counter(memberPushbacks).Value()
	mh.AckEWMANS = e.EWMA().Value()
	sum := e.Hist().Summary()
	mh.AckP50NS = sum.P50
	mh.AckP99NS = sum.P99
	return mh
}

// CheckInvariants judges the event state under gmu and the event lock:
//   - every lock entry is owned either by a pending event or transfer, or by
//     a restored instance that has neither resumed nor departed, on an
//     object it declared — any other lock would deny its group forever;
//   - no restored floor outlives its window: once the sweep has closed it,
//     three heartbeats after the start, no restore owner holds an entry;
//   - no event on the free list is pending, or the next event granted would
//     overwrite it;
//   - the plan cache is no newer than the couple graph.
//
// Every test bed calls it at teardown.
func (s *Server) CheckInvariants() error {
	s.gmu.lock()
	defer s.gmu.unlock()
	s.ev.lock()
	defer s.ev.unlock()
	var errs []error
	s.locks.Each(func(ref couple.ObjectRef, owner lock.Owner) {
		switch {
		case owner.Seq == 0 && s.restored == nil:
			errs = append(errs, fmt.Errorf("%v locked by restored %s past the restore window", ref, owner.Instance))
		case owner.Seq == 0:
			if !slices.Contains(s.restored[owner.Instance], ref) {
				errs = append(errs, fmt.Errorf("%v locked by restored %s, which holds no such floor", ref, owner.Instance))
			}
		default:
			if pe, ok := s.ev.pending[owner.Seq]; !ok || pe.owner != owner {
				errs = append(errs, fmt.Errorf("%v locked by event %d of %s, which is not pending", ref, owner.Seq, owner.Instance))
			}
		}
	})
	if gen := s.st.graph.Generation(); s.ev.planGen > gen {
		errs = append(errs, fmt.Errorf("plans of graph generation %d, past the graph's %d", s.ev.planGen, gen))
	}
	pending := make(map[*pendingEvent]uint64, len(s.ev.pending)) // event → its ID
	for id, pe := range s.ev.pending {
		pending[pe] = id
	}
	for _, pe := range s.ev.free {
		if id, ok := pending[pe]; ok {
			errs = append(errs, fmt.Errorf("event %d is on the free list and still pending", id))
		}
	}
	return errors.Join(errs...)
}

func utilization(busy uint64, uptimeNS float64) float64 {
	if uptimeNS <= 0 {
		return 0
	}
	return float64(busy) / uptimeNS
}
