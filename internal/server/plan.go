package server

import (
	"cosoft/internal/couple"
	"cosoft/internal/obs"
	"cosoft/internal/wire"
)

// plan is everything an event on one source object needs that depends only
// on the couple graph: whom to lock, whom to notify with which message, and
// how many acknowledgements each instance owes. Groups change on couple,
// decouple, retract and disconnect — rare next to events — so a plan is
// derived once per (source, graph generation) and shared, read-only, by
// every event until the graph moves. A pending event keeps the plan it was
// broadcast under, so its unlock releases and re-enables exactly what its
// lock took even if the group changed while it waited.
type plan struct {
	// members is CO(source) in the graph's deterministic order: the refs
	// handed to lockGroup and UnlockGroup.
	members []couple.ObjectRef
	// insts holds one entry per distinct member instance, in members order
	// (which sorts by instance first, so an instance's members are adjacent).
	insts []planInst
	// pos maps an instance to its index in insts.
	pos map[couple.InstanceID]int
}

// planInst is one instance's share of a plan.
type planInst struct {
	id couple.InstanceID
	// paths are the instance's member objects: one Exec goes to each, so
	// len(paths) is also the number of acknowledgements the instance owes.
	paths []string
	// lock and unlock are SetLocks{paths, true} and SetLocks{paths, false},
	// boxed once here instead of once per event.
	lock, unlock wire.Message
}

func newPlan(members []couple.ObjectRef) *plan {
	p := &plan{members: members, pos: make(map[couple.InstanceID]int)}
	for _, m := range members {
		i, ok := p.pos[m.Instance]
		if !ok {
			i = len(p.insts)
			p.pos[m.Instance] = i
			p.insts = append(p.insts, planInst{id: m.Instance})
		}
		p.insts[i].paths = append(p.insts[i].paths, m.Path)
	}
	for i := range p.insts {
		pi := &p.insts[i]
		pi.lock = wire.SetLocks{Paths: pi.paths, Locked: true}
		pi.unlock = wire.SetLocks{Paths: pi.paths, Locked: false}
	}
	return p
}

// planFor returns the broadcast plan of source, from sh's cache when the
// couple graph has not changed since it was derived. Any change to the graph
// flushes the whole cache: which groups a new link or a departure touched is
// not worth working out for something that rare. The generation is read
// before the group is derived, so a change landing in between leaves a plan
// filed under the older generation — flushed by the next event, never
// trusted past it. Uncoupled sources are not cached, which bounds the cache
// by the number of coupled objects rather than by what clients send.
func (s *Server) planFor(sh *shard, source couple.ObjectRef) *plan {
	if gen := s.graph.Generation(); gen != sh.planGen {
		clear(sh.plans)
		sh.planGen = gen
	}
	if p, ok := sh.plans[source]; ok {
		return p
	}
	members := s.graph.CO(source)
	if len(members) == 0 {
		return nil
	}
	p := newPlan(members)
	sh.plans[source] = p
	return p
}

// notifyLocks sends each connected instance of the plan its lock or unlock
// notice, carrying the event's trace context so members can attribute the
// disable/enable to the event. Clients are looked up per call: an instance
// that disconnected since the plan was derived is simply skipped.
func (s *Server) notifyLocks(p *plan, tc obs.TraceContext, locked bool) {
	for i := range p.insts {
		pi := &p.insts[i]
		if c, ok := s.clientOf(pi.id); ok {
			msg := pi.unlock
			if locked {
				msg = pi.lock
			}
			c.out.send(wire.Envelope{Trace: tc, Msg: msg})
		}
	}
}
