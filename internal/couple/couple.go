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
	// adj counts undirected edges between pairs, so duplicate links (from
	// different creators) keep the pair connected until all are removed.
	adj map[ObjectRef]map[ObjectRef]int
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
		adj:   make(map[ObjectRef]map[ObjectRef]int),
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
	g.bump(l.From, l.To, 1)
	g.bump(l.To, l.From, 1)
	g.gen.Add(1)
	return nil
}

// RemoveLink deletes a couple link regardless of creator. It reports whether
// any link was removed. When the removed link was a bridge, the group splits
// into two components.
func (g *Graph) RemoveLink(from, to ObjectRef) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	removed := false
	for l := range g.links {
		if l.From == from && l.To == to {
			delete(g.links, l)
			g.bump(l.From, l.To, -1)
			g.bump(l.To, l.From, -1)
			removed = true
		}
	}
	if removed {
		g.gen.Add(1)
	}
	return removed
}

// RemoveObject deletes every link incident to ref — the automatic decoupling
// applied "when a UI object is destroyed" (§3.2). It returns the removed
// links.
func (g *Graph) RemoveObject(ref ObjectRef) []Link {
	g.mu.Lock()
	defer g.mu.Unlock()
	var removed []Link
	for l := range g.links {
		if l.From == ref || l.To == ref {
			delete(g.links, l)
			g.bump(l.From, l.To, -1)
			g.bump(l.To, l.From, -1)
			removed = append(removed, l)
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
			g.bump(l.From, l.To, -1)
			g.bump(l.To, l.From, -1)
			removed = append(removed, l)
		}
	}
	if len(removed) > 0 {
		g.gen.Add(1)
	}
	sortLinks(removed)
	return removed
}

func (g *Graph) bump(a, b ObjectRef, delta int) {
	m := g.adj[a]
	if m == nil {
		if delta <= 0 {
			return
		}
		m = make(map[ObjectRef]int)
		g.adj[a] = m
	}
	m[b] += delta
	if m[b] <= 0 {
		delete(m, b)
		if len(m) == 0 {
			delete(g.adj, a)
		}
	}
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
	seen := map[ObjectRef]bool{o: true}
	queue := []ObjectRef{o}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for next := range g.adj[cur] {
			if !seen[next] {
				seen[next] = true
				queue = append(queue, next)
			}
		}
	}
	out := make([]ObjectRef, 0, len(seen))
	for ref := range seen {
		out = append(out, ref)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// Coupled reports whether o participates in any couple link.
func (g *Graph) Coupled(o ObjectRef) bool {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return len(g.adj[o]) > 0
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
	var out []Link
	for l := range g.links {
		if l.From == o || l.To == o {
			out = append(out, l)
		}
	}
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
	objs := make([]ObjectRef, 0, len(g.adj))
	for o := range g.adj {
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
