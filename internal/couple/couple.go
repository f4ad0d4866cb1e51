// Package couple implements the couple relation of the paper (§3): directed
// couple links between UI objects of (possibly different) application
// instances, and the transitive closure CO(o) that defines which objects a
// given object is synchronized with.
package couple

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// InstanceID identifies a registered application instance.
type InstanceID string

// ObjectRef globally identifies a UI object across application instances as
// the pair <instance-id, pathname> (§3).
type ObjectRef struct {
	Instance InstanceID
	Path     string
}

// String renders the reference as instance:path.
func (o ObjectRef) String() string { return string(o.Instance) + ":" + o.Path }

// Less orders references lexicographically (instance, then path).
func (o ObjectRef) Less(p ObjectRef) bool {
	if o.Instance != p.Instance {
		return o.Instance < p.Instance
	}
	return o.Path < p.Path
}

// Link is a directed arc from a source UI object to a destination UI object,
// labeled with the application instance that created it (§3).
type Link struct {
	From, To ObjectRef
	Creator  InstanceID
}

// String renders the link.
func (l Link) String() string {
	return fmt.Sprintf("%s -> %s (by %s)", l.From, l.To, l.Creator)
}

// Graph maintains the couple relation C and answers transitive-closure
// queries. The zero value is not usable; call NewGraph.
//
// Groups are the connected components of the undirected view of C: coupling
// is symmetric in effect ("the link from o2 to o1 is created" at the
// destination) even though links are stored directed with their creator.
type Graph struct {
	mu    sync.RWMutex
	links map[Link]struct{}
	// inc is the incidence index: inc[o] holds every link that has o as its
	// source or destination, in no particular order, and objects without
	// links have no entry. Each link is listed under both endpoints, so what
	// touches an object — and from there its neighbours and its whole group
	// — is found without looking at the rest of the relation. Duplicate
	// links (from different creators) are separate entries and keep the pair
	// connected until all are removed.
	inc map[ObjectRef][]Link
	// gen counts changes to the relation: every mutator that adds or removes
	// a link bumps it under mu, no reader does. Anything derived from the
	// graph (the server's cached broadcast plans) is valid exactly as long as
	// the generation it was derived at is still current.
	gen atomic.Uint64
}

// NewGraph returns an empty couple graph.
func NewGraph() *Graph {
	return &Graph{
		links: make(map[Link]struct{}),
		inc:   make(map[ObjectRef][]Link),
	}
}

// AddLink inserts a couple link. Inserting an identical link (same source,
// destination and creator) is idempotent. Self-links are rejected. The two
// endpoints' groups merge, implementing "objects already connected to o2 are
// added to the list of targets, and objects already connected to o1 are
// added to the source" (§3.2).
func (g *Graph) AddLink(l Link) error {
	if l.From == l.To {
		return fmt.Errorf("couple: self link %s", l.From)
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, dup := g.links[l]; dup {
		return nil
	}
	g.links[l] = struct{}{}
	g.inc[l.From] = append(g.inc[l.From], l)
	g.inc[l.To] = append(g.inc[l.To], l)
	g.gen.Add(1)
	return nil
}

// Has reports whether exactly this link (same source, destination and
// creator) is in the relation, which is when AddLink would change nothing.
func (g *Graph) Has(l Link) bool {
	g.mu.RLock()
	defer g.mu.RUnlock()
	_, ok := g.links[l]
	return ok
}

// RemoveLink deletes a couple link regardless of creator. It reports whether
// any link was removed. When the removed link was a bridge, the group splits
// into two components.
func (g *Graph) RemoveLink(from, to ObjectRef) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	at := g.inc[from]
	kept := at[:0]
	for _, l := range at {
		if l.From == from && l.To == to {
			delete(g.links, l)
			g.unlist(to, l)
		} else {
			kept = append(kept, l)
		}
	}
	if len(kept) == len(at) {
		return false
	}
	clear(at[len(kept):])
	g.setIncident(from, kept)
	g.gen.Add(1)
	return true
}

// RemoveObject deletes every link incident to ref — the automatic decoupling
// applied "when a UI object is destroyed" (§3.2). It returns the removed
// links.
func (g *Graph) RemoveObject(ref ObjectRef) []Link {
	g.mu.Lock()
	defer g.mu.Unlock()
	removed := g.inc[ref]
	delete(g.inc, ref)
	for _, l := range removed {
		delete(g.links, l)
		if l.From == ref {
			g.unlist(l.To, l)
		} else {
			g.unlist(l.From, l)
		}
	}
	if len(removed) > 0 {
		g.gen.Add(1)
	}
	sortLinks(removed)
	return removed
}

// RemoveInstance deletes every link incident to any object of the instance —
// the automatic decoupling applied when "an application instance terminates"
// (§3.2). It returns the removed links.
func (g *Graph) RemoveInstance(id InstanceID) []Link {
	g.mu.Lock()
	defer g.mu.Unlock()
	var removed []Link
	for l := range g.links {
		if l.From.Instance == id || l.To.Instance == id {
			delete(g.links, l)
			g.unlist(l.From, l)
			g.unlist(l.To, l)
			removed = append(removed, l)
		}
	}
	if len(removed) > 0 {
		g.gen.Add(1)
	}
	sortLinks(removed)
	return removed
}

// unlist takes l out of o's incidence list. The caller holds mu.
func (g *Graph) unlist(o ObjectRef, l Link) {
	at := g.inc[o]
	for i := range at {
		if at[i] == l {
			last := len(at) - 1
			at[i], at[last] = at[last], Link{}
			g.setIncident(o, at[:last])
			return
		}
	}
}

// setIncident stores o's incidence list, dropping the entry once it is empty
// so that inc lists exactly the coupled objects.
func (g *Graph) setIncident(o ObjectRef, at []Link) {
	if len(at) == 0 {
		delete(g.inc, o)
		return
	}
	g.inc[o] = at
}

// Generation returns the graph's change counter. It moves whenever a link is
// added or removed and never otherwise, so a caller that derived something
// from the graph (CO, Group, LinksOf) can tell with one atomic load whether
// the derivation still holds. Read it before deriving: a change that lands in
// between then invalidates the result instead of hiding behind it.
func (g *Graph) Generation() uint64 { return g.gen.Load() }

// CO returns the set of UI objects coupled with o — the transitive closure
// of the couple relation, excluding o itself — in deterministic order.
func (g *Graph) CO(o ObjectRef) []ObjectRef {
	members := g.Group(o)
	out := members[:0]
	for _, m := range members {
		if m != o {
			out = append(out, m)
		}
	}
	return out
}

// Group returns the coupling group containing o (o's connected component,
// including o) in deterministic order. An uncoupled object's group is just
// itself.
func (g *Graph) Group(o ObjectRef) []ObjectRef {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.component(o, nil)
}

// GroupLinks returns o's coupling group as Group does, together with every
// link between its members, both in deterministic order and from one walk of
// the component. It is what an instance with an object in the group mirrors.
func (g *Graph) GroupLinks(o ObjectRef) ([]ObjectRef, []Link) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	var links []Link
	members := g.component(o, &links)
	sortLinks(links)
	return members, links
}

// Owns reports whether the instance owns a member of o's group, o included.
// It looks at all of a member's neighbours before it walks on to any of them
// and stops at the first hit, so for a group the instance is in — the usual
// question — it costs about the distance, not the group.
func (g *Graph) Owns(o ObjectRef, id InstanceID) bool {
	g.mu.RLock()
	defer g.mu.RUnlock()
	if o.Instance == id {
		return true
	}
	seen := map[ObjectRef]struct{}{o: {}}
	queue := []ObjectRef{o}
	for i := 0; i < len(queue); i++ {
		at := g.inc[queue[i]]
		for _, l := range at {
			if l.From.Instance == id || l.To.Instance == id {
				return true
			}
		}
		for _, l := range at {
			next := l.To
			if next == queue[i] {
				next = l.From
			}
			if _, ok := seen[next]; !ok {
				seen[next] = struct{}{}
				queue = append(queue, next)
			}
		}
	}
	return false
}

// component walks o's connected component breadth-first over the incidence
// index and returns its members sorted. With links non-nil it also collects
// the component's links, each once: a link is listed under both endpoints and
// taken at its source. The caller holds mu.
func (g *Graph) component(o ObjectRef, links *[]Link) []ObjectRef {
	seen := map[ObjectRef]struct{}{o: {}}
	members := []ObjectRef{o} // doubles as the walk's queue
	for i := 0; i < len(members); i++ {
		cur := members[i]
		for _, l := range g.inc[cur] {
			next := l.To
			if next == cur {
				next = l.From
			} else if links != nil {
				*links = append(*links, l)
			}
			if _, ok := seen[next]; !ok {
				seen[next] = struct{}{}
				members = append(members, next)
			}
		}
	}
	sort.Slice(members, func(i, j int) bool { return members[i].Less(members[j]) })
	return members
}

// Coupled reports whether o participates in any couple link.
func (g *Graph) Coupled(o ObjectRef) bool {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return len(g.inc[o]) > 0
}

// Links returns all current links in deterministic order.
func (g *Graph) Links() []Link {
	g.mu.RLock()
	defer g.mu.RUnlock()
	out := make([]Link, 0, len(g.links))
	for l := range g.links {
		out = append(out, l)
	}
	sortLinks(out)
	return out
}

// LinksOf returns the links incident to o in deterministic order.
func (g *Graph) LinksOf(o ObjectRef) []Link {
	g.mu.RLock()
	defer g.mu.RUnlock()
	out := append([]Link(nil), g.inc[o]...)
	sortLinks(out)
	return out
}

// InstanceLinks returns the links incident to any object of the instance in
// deterministic order — exactly the set RemoveInstance would remove — without
// removing them. Callers use it to snapshot the affected groups before the
// removal actually splits them.
func (g *Graph) InstanceLinks(id InstanceID) []Link {
	g.mu.RLock()
	defer g.mu.RUnlock()
	var out []Link
	for l := range g.links {
		if l.From.Instance == id || l.To.Instance == id {
			out = append(out, l)
		}
	}
	sortLinks(out)
	return out
}

// Groups returns every coupling group with at least two members, in
// deterministic order.
func (g *Graph) Groups() [][]ObjectRef {
	g.mu.RLock()
	objs := make([]ObjectRef, 0, len(g.inc))
	for o := range g.inc {
		objs = append(objs, o)
	}
	g.mu.RUnlock()
	sort.Slice(objs, func(i, j int) bool { return objs[i].Less(objs[j]) })
	var groups [][]ObjectRef
	seen := make(map[ObjectRef]bool)
	for _, o := range objs {
		if seen[o] {
			continue
		}
		grp := g.Group(o)
		for _, m := range grp {
			seen[m] = true
		}
		if len(grp) > 1 {
			groups = append(groups, grp)
		}
	}
	return groups
}

// Len returns the number of links.
func (g *Graph) Len() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return len(g.links)
}

func sortLinks(ls []Link) {
	sort.Slice(ls, func(i, j int) bool {
		if ls[i].From != ls[j].From {
			return ls[i].From.Less(ls[j].From)
		}
		if ls[i].To != ls[j].To {
			return ls[i].To.Less(ls[j].To)
		}
		return ls[i].Creator < ls[j].Creator
	})
}
