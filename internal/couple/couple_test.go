package couple

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func ref(inst, path string) ObjectRef {
	return ObjectRef{Instance: InstanceID(inst), Path: path}
}

func TestAddLinkAndCO(t *testing.T) {
	g := NewGraph()
	a, b, c := ref("i1", "/x"), ref("i2", "/y"), ref("i3", "/z")
	if err := g.AddLink(Link{From: a, To: b, Creator: "i1"}); err != nil {
		t.Fatal(err)
	}
	if err := g.AddLink(Link{From: b, To: c, Creator: "i2"}); err != nil {
		t.Fatal(err)
	}
	// Transitive closure: a is coupled with c through b.
	if got := g.CO(a); !reflect.DeepEqual(got, []ObjectRef{b, c}) {
		t.Errorf("CO(a) = %v", got)
	}
	if got := g.CO(c); !reflect.DeepEqual(got, []ObjectRef{a, b}) {
		t.Errorf("CO(c) = %v", got)
	}
	if got := g.Group(b); len(got) != 3 {
		t.Errorf("Group(b) = %v", got)
	}
	if !g.Coupled(a) || g.Coupled(ref("i9", "/none")) {
		t.Error("Coupled wrong")
	}
	if g.Len() != 2 {
		t.Errorf("Len = %d", g.Len())
	}
}

func TestSelfLinkRejected(t *testing.T) {
	g := NewGraph()
	a := ref("i1", "/x")
	if err := g.AddLink(Link{From: a, To: a, Creator: "i1"}); err == nil {
		t.Error("self link must fail")
	}
}

func TestDuplicateLinkIdempotent(t *testing.T) {
	g := NewGraph()
	a, b := ref("i1", "/x"), ref("i2", "/y")
	l := Link{From: a, To: b, Creator: "i1"}
	if err := g.AddLink(l); err != nil {
		t.Fatal(err)
	}
	if err := g.AddLink(l); err != nil {
		t.Fatal(err)
	}
	if g.Len() != 1 {
		t.Errorf("Len = %d, want 1", g.Len())
	}
	g.RemoveLink(a, b)
	if g.Coupled(a) {
		t.Error("still coupled after removal")
	}
}

func TestParallelLinksDifferentCreators(t *testing.T) {
	g := NewGraph()
	a, b := ref("i1", "/x"), ref("i2", "/y")
	if err := g.AddLink(Link{From: a, To: b, Creator: "i1"}); err != nil {
		t.Fatal(err)
	}
	if err := g.AddLink(Link{From: a, To: b, Creator: "i3"}); err != nil {
		t.Fatal(err)
	}
	if g.Len() != 2 {
		t.Fatalf("Len = %d, want 2", g.Len())
	}
	// RemoveLink removes both directed a->b links.
	if !g.RemoveLink(a, b) {
		t.Fatal("RemoveLink reported nothing removed")
	}
	if g.Coupled(a) || g.Coupled(b) {
		t.Error("objects still coupled")
	}
}

func TestDecouplingSplitsGroup(t *testing.T) {
	g := NewGraph()
	a, b, c := ref("i1", "/a"), ref("i2", "/b"), ref("i3", "/c")
	g.AddLink(Link{From: a, To: b, Creator: "i1"})
	g.AddLink(Link{From: b, To: c, Creator: "i1"})
	if !g.RemoveLink(b, c) {
		t.Fatal("remove failed")
	}
	if got := g.CO(a); !reflect.DeepEqual(got, []ObjectRef{b}) {
		t.Errorf("CO(a) = %v", got)
	}
	if got := g.CO(c); len(got) != 0 {
		t.Errorf("CO(c) = %v, want empty", got)
	}
	// Objects do not cease to exist when decoupled — the graph simply no
	// longer relates them (paper contrast with shared window systems).
	if g.RemoveLink(b, c) {
		t.Error("second removal must report false")
	}
}

func TestRemoveObject(t *testing.T) {
	g := NewGraph()
	a, b, c := ref("i1", "/a"), ref("i2", "/b"), ref("i3", "/c")
	g.AddLink(Link{From: a, To: b, Creator: "i1"})
	g.AddLink(Link{From: b, To: c, Creator: "i2"})
	removed := g.RemoveObject(b)
	if len(removed) != 2 {
		t.Fatalf("removed %d links, want 2", len(removed))
	}
	if g.Coupled(a) || g.Coupled(c) {
		t.Error("neighbors must be uncoupled")
	}
	if g.Len() != 0 {
		t.Errorf("Len = %d", g.Len())
	}
}

func TestRemoveInstance(t *testing.T) {
	g := NewGraph()
	a1, a2 := ref("gone", "/a"), ref("gone", "/b")
	b, c := ref("i2", "/x"), ref("i3", "/y")
	g.AddLink(Link{From: a1, To: b, Creator: "gone"})
	g.AddLink(Link{From: a2, To: c, Creator: "i3"})
	g.AddLink(Link{From: b, To: c, Creator: "i2"})
	removed := g.RemoveInstance("gone")
	if len(removed) != 2 {
		t.Fatalf("removed %d links, want 2", len(removed))
	}
	// The b—c link survives.
	if got := g.CO(b); !reflect.DeepEqual(got, []ObjectRef{c}) {
		t.Errorf("CO(b) = %v", got)
	}
}

func TestLinksAndLinksOf(t *testing.T) {
	g := NewGraph()
	a, b, c := ref("i1", "/a"), ref("i2", "/b"), ref("i3", "/c")
	l1 := Link{From: b, To: a, Creator: "i2"}
	l2 := Link{From: a, To: c, Creator: "i1"}
	g.AddLink(l1)
	g.AddLink(l2)
	if got := g.Links(); !reflect.DeepEqual(got, []Link{l2, l1}) {
		t.Errorf("Links = %v", got)
	}
	if got := g.LinksOf(c); !reflect.DeepEqual(got, []Link{l2}) {
		t.Errorf("LinksOf(c) = %v", got)
	}
}

func TestGroups(t *testing.T) {
	g := NewGraph()
	g.AddLink(Link{From: ref("i1", "/a"), To: ref("i2", "/b"), Creator: "i1"})
	g.AddLink(Link{From: ref("i3", "/c"), To: ref("i4", "/d"), Creator: "i3"})
	g.AddLink(Link{From: ref("i4", "/d"), To: ref("i5", "/e"), Creator: "i3"})
	groups := g.Groups()
	if len(groups) != 2 {
		t.Fatalf("groups = %v", groups)
	}
	if len(groups[0]) != 2 || len(groups[1]) != 3 {
		t.Errorf("group sizes = %d, %d", len(groups[0]), len(groups[1]))
	}
}

func TestObjectRefString(t *testing.T) {
	if got := ref("i1", "/a/b").String(); got != "i1:/a/b" {
		t.Errorf("String = %q", got)
	}
	l := Link{From: ref("i1", "/a"), To: ref("i2", "/b"), Creator: "i1"}
	if got := l.String(); got != "i1:/a -> i2:/b (by i1)" {
		t.Errorf("Link.String = %q", got)
	}
}

// Property: group membership is symmetric and reflexive-closed — for any
// random link set, b ∈ Group(a) iff a ∈ Group(b), and every member of
// Group(a) has the same group.
func TestPropGroupConsistency(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := NewGraph()
		objs := make([]ObjectRef, 8)
		for i := range objs {
			objs[i] = ref(string(rune('A'+i%4)), "/"+string(rune('a'+i)))
		}
		for i, n := 0, r.Intn(12); i < n; i++ {
			a, b := objs[r.Intn(len(objs))], objs[r.Intn(len(objs))]
			if a != b {
				g.AddLink(Link{From: a, To: b, Creator: a.Instance})
			}
		}
		for _, o := range objs {
			grp := g.Group(o)
			for _, m := range grp {
				if !reflect.DeepEqual(g.Group(m), grp) {
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

// Property: adding then removing the same links leaves the graph empty.
func TestPropAddRemoveInverse(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := NewGraph()
		var links []Link
		for i, n := 0, r.Intn(10)+1; i < n; i++ {
			a := ref(string(rune('A'+r.Intn(3))), "/"+string(rune('a'+r.Intn(5))))
			b := ref(string(rune('A'+r.Intn(3))), "/"+string(rune('a'+r.Intn(5))))
			if a == b {
				continue
			}
			l := Link{From: a, To: b, Creator: a.Instance}
			if g.AddLink(l) == nil {
				links = append(links, l)
			}
		}
		for _, l := range links {
			g.RemoveLink(l.From, l.To)
		}
		return g.Len() == 0 && len(g.Groups()) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkCOChain(b *testing.B) {
	g := NewGraph()
	const n = 100
	for i := 0; i < n-1; i++ {
		g.AddLink(Link{
			From:    ref("i", string(rune('a'+i%26))+string(rune('0'+i/26))),
			To:      ref("i", string(rune('a'+(i+1)%26))+string(rune('0'+(i+1)/26))),
			Creator: "i",
		})
	}
	start := ref("i", "a0")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := g.CO(start); len(got) != n-1 {
			b.Fatalf("CO = %d members", len(got))
		}
	}
}

// TestGenerationTracksMutations pins the contract plan caches rest on: every
// call that changes the relation moves the generation, and nothing else does
// — not a mutator that found nothing to change, not a reader.
func TestGenerationTracksMutations(t *testing.T) {
	g := NewGraph()
	a, b, c, d := ref("i1", "/x"), ref("i2", "/x"), ref("i3", "/x"), ref("i3", "/y")
	mustMove := func(what string, mutate func()) {
		t.Helper()
		before := g.Generation()
		mutate()
		if g.Generation() == before {
			t.Errorf("%s changed the graph but not its generation", what)
		}
	}
	mustStay := func(what string, call func()) {
		t.Helper()
		before := g.Generation()
		call()
		if g.Generation() != before {
			t.Errorf("%s moved the generation without changing the graph", what)
		}
	}
	add := func(from, to ObjectRef) func() {
		return func() {
			if err := g.AddLink(Link{From: from, To: to, Creator: from.Instance}); err != nil {
				t.Fatal(err)
			}
		}
	}

	mustMove("AddLink", add(a, b))
	mustStay("AddLink of an existing link", add(a, b))
	mustStay("AddLink of a self link", func() { _ = g.AddLink(Link{From: a, To: a, Creator: "i1"}) })
	mustMove("AddLink", add(b, c))
	mustMove("AddLink", add(c, d))
	mustMove("RemoveLink", func() { g.RemoveLink(a, b) })
	mustStay("RemoveLink of a missing link", func() { g.RemoveLink(a, b) })
	mustMove("RemoveObject", func() { g.RemoveObject(d) })
	mustStay("RemoveObject of an uncoupled object", func() { g.RemoveObject(d) })
	mustMove("RemoveInstance", func() { g.RemoveInstance("i3") })
	mustStay("RemoveInstance of an uncoupled instance", func() { g.RemoveInstance("i3") })

	add(a, b)()
	mustStay("the readers", func() {
		g.CO(a)
		g.Group(a)
		g.Coupled(a)
		g.Links()
		g.LinksOf(a)
		g.InstanceLinks("i1")
		g.Groups()
		g.Len()
		g.Generation()
	})
}

// checkIndex holds the incidence index to a linear scan of the link set:
// every link is listed exactly once under each endpoint and nowhere else, no
// list is empty, and LinksOf, Coupled, GroupLinks and Owns — the readers that
// go through the index — answer what the scan answers.
func checkIndex(t *testing.T, g *Graph, objs []ObjectRef, when string) {
	t.Helper()
	all := g.Links()
	listed := 0
	for o, at := range g.inc {
		if len(at) == 0 {
			t.Fatalf("%s: %v has an empty incidence list", when, o)
		}
		for i, l := range at {
			if _, ok := g.links[l]; !ok || (l.From != o && l.To != o) {
				t.Fatalf("%s: %v lists %v, which is not a link touching it", when, o, l)
			}
			for _, other := range at[:i] {
				if other == l {
					t.Fatalf("%s: %v lists %v twice", when, o, l)
				}
			}
		}
		listed += len(at)
	}
	if listed != 2*len(all) {
		t.Fatalf("%s: %d index entries for %d links, want two each", when, listed, len(all))
	}
	for _, o := range objs {
		var scan []Link
		for _, l := range all {
			if l.From == o || l.To == o {
				scan = append(scan, l)
			}
		}
		if got := g.LinksOf(o); !reflect.DeepEqual(got, scan) && len(got)+len(scan) > 0 {
			t.Fatalf("%s: LinksOf(%v) = %v, a scan finds %v", when, o, got, scan)
		}
		if g.Coupled(o) != (len(scan) > 0) {
			t.Fatalf("%s: Coupled(%v) = %v with %d links", when, o, g.Coupled(o), len(scan))
		}
		members, links := g.GroupLinks(o)
		if want := g.Group(o); !reflect.DeepEqual(members, want) {
			t.Fatalf("%s: GroupLinks(%v) members = %v, Group says %v", when, o, members, want)
		}
		in := make(map[ObjectRef]bool, len(members))
		owners := make(map[InstanceID]bool)
		for _, m := range members {
			in[m] = true
			owners[m.Instance] = true
		}
		for _, id := range []InstanceID{"A", "B", "C", "T"} {
			if g.Owns(o, id) != owners[id] {
				t.Fatalf("%s: Owns(%v, %v) = %v, its group is %v", when, o, id, g.Owns(o, id), members)
			}
		}
		scan = scan[:0]
		for _, l := range all {
			if in[l.From] != in[l.To] {
				t.Fatalf("%s: %v crosses the boundary of %v's group %v", when, l, o, members)
			}
			if in[l.From] {
				scan = append(scan, l)
			}
		}
		if !reflect.DeepEqual(links, scan) && len(links)+len(scan) > 0 {
			t.Fatalf("%s: GroupLinks(%v) links = %v, a scan finds %v", when, o, links, scan)
		}
	}
}

// TestIndexAgreesWithScan runs random mutator sequences — duplicate links
// from different creators and links in both directions included — and checks
// the index after every one. Over 0.5 s: it is the only test that holds every
// reader of the incidence index to a full scan after every kind of mutation.
func TestIndexAgreesWithScan(t *testing.T) {
	var objs []ObjectRef
	for _, inst := range []string{"A", "B", "C"} {
		for _, p := range []string{"/a", "/b", "/c"} {
			objs = append(objs, ref(inst, p))
		}
	}
	creators := []InstanceID{"A", "B", "C", "T"}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := NewGraph()
		pick := func() ObjectRef { return objs[r.Intn(len(objs))] }
		for step := 0; step < 60; step++ {
			var when string
			switch op := r.Intn(8); {
			case op < 4:
				l := Link{From: pick(), To: pick(), Creator: creators[r.Intn(len(creators))]}
				had := g.Has(l)
				err := g.AddLink(l)
				if (err == nil) != (l.From != l.To) || (err == nil && !g.Has(l)) || (had && err != nil) {
					t.Logf("seed %d step %d: AddLink(%v) = %v, had %v, has %v", seed, step, l, err, had, g.Has(l))
					return false
				}
				when = fmt.Sprintf("seed %d step %d: AddLink(%v)", seed, step, l)
			case op < 6:
				a, b := pick(), pick()
				g.RemoveLink(a, b)
				when = fmt.Sprintf("seed %d step %d: RemoveLink(%v, %v)", seed, step, a, b)
			case op < 7:
				o := pick()
				for _, l := range g.RemoveObject(o) {
					if l.From != o && l.To != o {
						t.Logf("seed %d step %d: RemoveObject(%v) returned %v", seed, step, o, l)
						return false
					}
				}
				when = fmt.Sprintf("seed %d step %d: RemoveObject(%v)", seed, step, o)
			default:
				id := creators[r.Intn(3)]
				g.RemoveInstance(id)
				when = fmt.Sprintf("seed %d step %d: RemoveInstance(%v)", seed, step, id)
			}
			checkIndex(t, g, objs, when)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestIndexKeepsParallelLinksApart pins the duplicate case by hand: two
// links between one pair from different creators are two index entries, both
// go with one RemoveLink, and removing one endpoint's object takes both out
// of the other endpoint's list.
func TestIndexKeepsParallelLinksApart(t *testing.T) {
	a, b, c := ref("A", "/a"), ref("B", "/b"), ref("C", "/c")
	objs := []ObjectRef{a, b, c}
	build := func() *Graph {
		g := NewGraph()
		for _, l := range []Link{
			{From: a, To: b, Creator: "A"}, {From: a, To: b, Creator: "T"},
			{From: b, To: a, Creator: "B"}, {From: b, To: c, Creator: "B"},
		} {
			if err := g.AddLink(l); err != nil {
				t.Fatal(err)
			}
		}
		checkIndex(t, g, objs, "after the build")
		return g
	}
	g := build()
	if !g.RemoveLink(a, b) || g.RemoveLink(a, b) {
		t.Fatal("RemoveLink(a, b) must remove both creators' links at once")
	}
	checkIndex(t, g, objs, "after RemoveLink(a, b)")
	if got := g.CO(a); !reflect.DeepEqual(got, []ObjectRef{b, c}) {
		t.Errorf("the reverse link b->a must keep the group together, CO(a) = %v", got)
	}
	g = build()
	if got := g.RemoveObject(a); len(got) != 3 {
		t.Errorf("RemoveObject(a) removed %v, want the three links touching a", got)
	}
	checkIndex(t, g, objs, "after RemoveObject(a)")
	if got := g.LinksOf(b); !reflect.DeepEqual(got, []Link{{From: b, To: c, Creator: "B"}}) {
		t.Errorf("LinksOf(b) = %v after a went", got)
	}
}
