package server

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"cosoft/internal/couple"
)

// Property: whatever script of couples, decouples, retractions and
// departures runs against the graph, with events (plan lookups) between the
// steps so the cache is always warm when the graph moves, the cached plan of
// every object lists exactly graph.CO of that object, and splits it by
// instance without losing or inventing a member. Over 0.5 s: it is the only
// test that removes links, objects and instances under a warm plan cache, so
// it alone catches a removal that leaves a stale cached plan behind.
func TestPropCachedPlanMatchesGraph(t *testing.T) {
	var universe []couple.ObjectRef
	for _, inst := range []couple.InstanceID{"a", "b", "c", "d"} {
		for _, path := range []string{"/x", "/y", "/z"} {
			universe = append(universe, couple.ObjectRef{Instance: inst, Path: path})
		}
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s := newServer(Options{}.withDefaults(), newState(0, nil)) // built, never started: only the graph and the plan cache are used
		pick := func() couple.ObjectRef { return universe[r.Intn(len(universe))] }
		for step := 0; step < 60; step++ {
			switch r.Intn(8) {
			case 0, 1, 2, 3:
				from, to := pick(), pick()
				_ = s.st.graph.AddLink(couple.Link{From: from, To: to, Creator: from.Instance})
			case 4, 5:
				s.st.graph.RemoveLink(pick(), pick())
			case 6:
				s.st.graph.RemoveObject(pick())
			default:
				s.st.graph.RemoveInstance(pick().Instance)
			}
			for _, o := range universe {
				want := s.st.graph.CO(o)
				p := s.planFor(o)
				if p == nil {
					if len(want) != 0 {
						t.Logf("seed %d step %d: no plan for %s, CO = %v", seed, step, o, want)
						return false
					}
					continue
				}
				if !reflect.DeepEqual(p.members, want) {
					t.Logf("seed %d step %d: plan of %s lists %v, CO = %v", seed, step, o, p.members, want)
					return false
				}
				var flat []couple.ObjectRef
				for i, pi := range p.insts {
					if p.pos[pi.id] != i {
						t.Logf("seed %d step %d: plan of %s indexes %s at %d, not %d", seed, step, o, pi.id, p.pos[pi.id], i)
						return false
					}
					for _, path := range pi.paths {
						flat = append(flat, couple.ObjectRef{Instance: pi.id, Path: path})
					}
				}
				if !reflect.DeepEqual(flat, want) {
					t.Logf("seed %d step %d: plan of %s splits into %v, CO = %v", seed, step, o, flat, want)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
