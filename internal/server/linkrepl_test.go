package server_test

// What a member is told about its group (DESIGN §16): the delta a Couple
// sends, its budget in notices, the duplicate Couple, and — over random
// scripts — that every instance's mirror ends up exactly where re-sending the
// whole group on every Couple used to leave it.

import (
	"fmt"
	"math/rand"
	"net"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"cosoft/internal/client"
	"cosoft/internal/couple"
	"cosoft/internal/eventlog"
	"cosoft/internal/netsim"
	"cosoft/internal/server"
	"cosoft/internal/widget"
	"cosoft/internal/wire"
)

// mirrorModel is the oracle: the server's relation and every connected
// instance's mirror under the replication rule the server had before the
// delta — after a Couple, every instance owning a member of the merged group
// is sent every link of the group — with the mirrors applying notices as the
// client does (add; remove and prune what no local object reaches any more).
type mirrorModel struct {
	graph   *couple.Graph
	mirrors map[couple.InstanceID]*couple.Graph
	notices int
}

func newMirrorModel() *mirrorModel {
	return &mirrorModel{graph: couple.NewGraph(), mirrors: make(map[couple.InstanceID]*couple.Graph)}
}

func (m *mirrorModel) join(id couple.InstanceID) { m.mirrors[id] = couple.NewGraph() }

// each calls fn once for the mirror of every connected instance that owns a
// member of the group.
func (m *mirrorModel) each(members []couple.ObjectRef, fn func(id couple.InstanceID, mir *couple.Graph)) {
	seen := make(map[couple.InstanceID]bool)
	for _, ref := range members {
		if mir := m.mirrors[ref.Instance]; mir != nil && !seen[ref.Instance] {
			seen[ref.Instance] = true
			fn(ref.Instance, mir)
		}
	}
}

// couple is the full broadcast.
func (m *mirrorModel) couple(l couple.Link) {
	if m.graph.AddLink(l) != nil {
		return
	}
	members, links := m.graph.GroupLinks(l.From)
	m.each(members, func(_ couple.InstanceID, mir *couple.Graph) {
		for _, gl := range links {
			mir.AddLink(gl)
			m.notices++
		}
	})
}

// unlink tells the instances of a group as it was before the removal that
// links are gone.
func (m *mirrorModel) unlink(before []couple.ObjectRef, removed []couple.Link) {
	m.each(before, func(id couple.InstanceID, mir *couple.Graph) {
		for _, l := range removed {
			mir.RemoveLink(l.From, l.To)
			for _, end := range []couple.ObjectRef{l.From, l.To} {
				members, links := mir.GroupLinks(end)
				if !ownsAny(members, id) {
					for _, gl := range links {
						mir.RemoveLink(gl.From, gl.To)
					}
				}
			}
			m.notices++
		}
	})
}

func ownsAny(members []couple.ObjectRef, id couple.InstanceID) bool {
	for _, ref := range members {
		if ref.Instance == id {
			return true
		}
	}
	return false
}

func (m *mirrorModel) decouple(from, to couple.ObjectRef) {
	before := m.graph.Group(from)
	switch {
	case m.graph.RemoveLink(from, to):
		m.unlink(before, []couple.Link{{From: from, To: to}})
	case m.graph.RemoveLink(to, from):
		m.unlink(before, []couple.Link{{From: to, To: from}})
	}
}

func (m *mirrorModel) retract(ref couple.ObjectRef) {
	before := m.graph.Group(ref)
	m.unlink(before, m.graph.RemoveObject(ref))
}

// leave is a disconnect: the server drops the instance's links and tells the
// survivors. The instance's own mirror is returned for a resume to re-create
// its links from, cut down — as the client cuts it — to the links that touch
// the instance.
func (m *mirrorModel) leave(id couple.InstanceID) *couple.Graph {
	own := m.mirrors[id]
	delete(m.mirrors, id)
	for _, l := range own.Links() {
		if l.From.Instance != id && l.To.Instance != id {
			own.RemoveLink(l.From, l.To)
		}
	}
	removed := m.graph.InstanceLinks(id)
	before := make([][]couple.ObjectRef, len(removed))
	for i, l := range removed {
		before[i] = m.graph.Group(l.From)
	}
	m.graph.RemoveInstance(id)
	for i, l := range removed {
		m.unlink(before[i], []couple.Link{l})
	}
	return own
}

// resume is the client's resync after a leave that kept own as its mirror:
// every mirrored link that touches the instance is created again, now by the
// instance itself.
func (m *mirrorModel) resume(id couple.InstanceID, own *couple.Graph) {
	m.mirrors[id] = own
	for _, l := range own.Links() {
		m.couple(couple.Link{From: l.From, To: l.To, Creator: id})
	}
}

// replPeer is one real client of a replication script. Its connections are
// made here rather than by the harness so that each one can be cut from the
// server's end.
type replPeer struct {
	c     *client.Client
	paths []string // declared and not yet destroyed

	mu      sync.Mutex
	srvSide net.Conn
	hold    chan struct{} // non-nil while cut: redials wait for it to close
	resyncs atomic.Int32
}

func (p *replPeer) refs() []couple.ObjectRef {
	refs := make([]couple.ObjectRef, len(p.paths))
	for i, path := range p.paths {
		refs[i] = p.c.Ref(path)
	}
	return refs
}

func (h *harness) dialRepl(user string, batching bool, paths []string) *replPeer {
	h.t.Helper()
	p := &replPeer{paths: paths}
	connect := func() (net.Conn, error) {
		p.mu.Lock()
		hold := p.hold
		p.mu.Unlock()
		if hold != nil {
			<-hold
		}
		link := netsim.NewLink(0)
		h.wg.Add(1)
		go func() {
			defer h.wg.Done()
			h.srv.HandleConn(wire.NewConn(link.B))
		}()
		p.mu.Lock()
		p.srvSide = link.B
		p.mu.Unlock()
		return link.A, nil
	}
	reg := widget.NewRegistry()
	for _, path := range paths {
		widget.MustBuild(reg, "/", "textfield "+path[1:])
	}
	conn, _ := connect()
	c, err := client.New(conn, client.Options{
		AppType: "repl", User: user, Host: "testhost", Registry: reg,
		RPCTimeout: 5 * time.Second, Batching: batching,
		Reconnect: &client.ReconnectOptions{
			Dial: connect, MaxAttempts: 50, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond, Seed: 1,
			OnResync: func(err error) {
				if err != nil {
					h.t.Errorf("%s: resync: %v", user, err)
				}
				p.resyncs.Add(1)
			},
		},
	})
	if err != nil {
		h.t.Fatalf("dial %s: %v", user, err)
	}
	h.t.Cleanup(c.Close)
	h.onTeardown()
	p.c = c
	for _, path := range paths {
		mustOK(h.t, c.Declare(path))
	}
	return p
}

// cut kills the peer's connection at the server, runs whileGone once the
// server has dropped the instance — the peer hears nothing of what happens
// then — and lets the client back in, returning when it has resumed its
// session and finished resynchronizing.
func (p *replPeer) cut(t *testing.T, srv *server.Server, whileGone func()) {
	t.Helper()
	before, instances := p.resyncs.Load(), srv.Stats().Instances
	hold := make(chan struct{})
	p.mu.Lock()
	p.hold = hold
	p.srvSide.Close()
	p.mu.Unlock()
	waitFor(t, fmt.Sprintf("the server to drop %s", p.c.ID()), func() bool { return srv.Stats().Instances < instances })
	whileGone()
	p.mu.Lock()
	p.hold = nil
	p.mu.Unlock()
	close(hold)
	waitFor(t, fmt.Sprintf("%s to resume and resync", p.c.ID()), func() bool { return p.resyncs.Load() > before })
}

// settleMirrors is the barrier before mirrors are read: a request's OK says
// the other members' notices are queued, not that they have arrived, but a
// round trip by each of them queues behind those notices in the member's
// outbox, and the client mirrors a notice before it hands the reply that
// follows it to the caller.
func settleMirrors(t *testing.T, peers []*replPeer) {
	t.Helper()
	for _, p := range peers {
		if _, err := p.c.Instances(); err != nil {
			t.Fatalf("%s: barrier round trip: %v", p.c.ID(), err)
		}
	}
}

// checkMirrors holds every connected peer's mirror to the server — every link
// of the groups of its own objects, creator and all, and no pair of endpoints
// the server does not link in those groups — and to the oracle, link for link.
func checkMirrors(t *testing.T, srv *server.Server, model *mirrorModel, peers []*replPeer, when string) {
	t.Helper()
	settleMirrors(t, peers)
	for _, p := range peers {
		id := p.c.ID()
		mirror := p.c.Links()
		have := make(map[couple.Link]bool, len(mirror))
		for _, l := range mirror {
			have[l] = true
		}
		linked := make(map[[2]couple.ObjectRef]bool)
		for _, ref := range p.refs() {
			_, links := srv.GroupLinks(ref)
			for _, l := range links {
				linked[[2]couple.ObjectRef{l.From, l.To}] = true
				if !have[l] {
					t.Errorf("%s: %s's mirror lacks %v of %v's group", when, id, l, ref)
				}
			}
		}
		for _, l := range mirror {
			if !linked[[2]couple.ObjectRef{l.From, l.To}] {
				t.Errorf("%s: %s mirrors %v, which the server has in none of its groups", when, id, l)
			}
		}
		if want := model.mirrors[id].Links(); !reflect.DeepEqual(mirror, want) {
			t.Errorf("%s: %s's mirror is %v, the full broadcast would have left %v", when, id, mirror, want)
		}
	}
	if got, want := srv.Stats().Links, model.graph.Len(); got != want {
		t.Errorf("%s: the server holds %d links, the oracle %d", when, got, want)
	}
}

// TestPropMirrorsMatchFullBroadcast runs random scripts of couple (by an
// endpoint's owner or by a third instance, duplicates and links inside one
// group included), decouple, retract, disconnect and cut-and-resume — the cut
// peer held out while the others change its former groups — over batching and
// plain peers, and checks the mirrors whenever the script pauses and at its
// end.
func TestPropMirrorsMatchFullBroadcast(t *testing.T) {
	script := func(t *testing.T, seed int64) {
		r := rand.New(rand.NewSource(seed))
		h := newHarness(t, server.Options{})
		model := newMirrorModel()
		var peers []*replPeer
		for i := 0; i < 5; i++ {
			p := h.dialRepl(fmt.Sprintf("u%d", i), i%2 == 0, []string{"/a", "/b", "/c"})
			model.join(p.c.ID())
			peers = append(peers, p)
		}
		// objects lists what the connected peers have declared.
		objects := func(gone *replPeer) []couple.ObjectRef {
			var refs []couple.ObjectRef
			for _, p := range peers {
				if p != gone {
					refs = append(refs, p.refs()...)
				}
			}
			return refs
		}
		// link has p couple two objects, mostly one of its own to any other.
		link := func(p *replPeer, refs []couple.ObjectRef, when string) {
			from, to := refs[r.Intn(len(refs))], refs[r.Intn(len(refs))]
			if r.Intn(4) > 0 && len(p.paths) > 0 {
				from = p.c.Ref(p.paths[r.Intn(len(p.paths))])
			}
			l := couple.Link{From: from, To: to, Creator: p.c.ID()}
			if err := p.c.RemoteCouple(from, to); (err == nil) != (from != to) {
				t.Fatalf("%s: Couple(%v): %v", when, l, err)
			}
			model.couple(l)
		}
		// unlink has p remove a link of the server's, named in either direction.
		unlink := func(p *replPeer) {
			links := model.graph.Links()
			if len(links) == 0 {
				return
			}
			l := links[r.Intn(len(links))]
			if r.Intn(2) == 0 {
				l.From, l.To = l.To, l.From
			}
			mustOK(t, p.c.RemoteDecouple(l.From, l.To))
			model.decouple(l.From, l.To)
		}
		for step := 0; step < 40; step++ {
			p := peers[r.Intn(len(peers))]
			when := fmt.Sprintf("seed %d step %d", seed, step)
			switch op := r.Intn(20); {
			case op < 10:
				link(p, objects(nil), when)
			case op < 14:
				unlink(p)
			case op < 16:
				if len(p.paths) < 2 {
					continue
				}
				i := r.Intn(len(p.paths))
				path := p.paths[i]
				p.paths = append(p.paths[:i:i], p.paths[i+1:]...)
				model.retract(p.c.Ref(path))
				mustOK(t, p.c.Registry().Destroy(path))
			case op < 17:
				if len(peers) < 4 {
					continue
				}
				p.c.Close()
				model.leave(p.c.ID())
				for i := range peers {
					if peers[i] == p {
						peers = append(peers[:i:i], peers[i+1:]...)
						break
					}
				}
			case op < 19:
				// The model reads the mirror the client resyncs from, so the
				// notices still in flight have to land first.
				settleMirrors(t, peers)
				id := p.c.ID()
				var own *couple.Graph
				p.cut(t, h.srv, func() {
					own = model.leave(id)
					// Its former groups change while the peer cannot hear of it.
					for n := r.Intn(3); n > 0; n-- {
						q := peers[r.Intn(len(peers))]
						switch {
						case q == p:
						case r.Intn(3) > 0:
							link(q, objects(p), when+", "+string(id)+" cut")
						default:
							unlink(q)
						}
					}
				})
				model.resume(id, own)
			default:
				checkMirrors(t, h.srv, model, peers, when)
			}
		}
		checkMirrors(t, h.srv, model, peers, fmt.Sprintf("seed %d at the end", seed))
	}
	f := func(seed int64) bool {
		return t.Run(fmt.Sprint(seed), func(t *testing.T) { script(t, seed) })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// star couples hub to every spoke in turn and keeps the oracle in step.
func star(t *testing.T, model *mirrorModel, hub *client.Client, spokes []*client.Client) {
	t.Helper()
	for _, s := range spokes {
		mustOK(t, hub.Couple("/x", s.Ref("/x")))
		model.couple(couple.Link{From: hub.Ref("/x"), To: s.Ref("/x"), Creator: hub.ID()})
	}
}

// TestCoupleNoticeBudget counts the LinkAdded a build costs, against what the
// full broadcast sent for the same build: a star of k instances k(k−1) in
// all — one per instance and link, which is what its mirrors must hold —
// where it was k(k−1) per Couple.
func TestCoupleNoticeBudget(t *testing.T) {
	h := newHarness(t, server.Options{})
	model := newMirrorModel()
	dial := func(n int) []*client.Client {
		cs := make([]*client.Client, n)
		for i := range cs {
			user := fmt.Sprintf("u%d", len(model.mirrors))
			if i%4 == 3 {
				cs[i] = h.dialPlain("app", user, `textfield x`, client.Options{})
			} else {
				cs[i] = h.dial("app", user, `textfield x`, client.Options{})
			}
			mustOK(t, cs[i].Declare("/x"))
			model.join(cs[i].ID())
		}
		return cs
	}
	// spent returns the notices the server and the oracle sent since the
	// last call.
	var sent uint64
	var modelled int
	spent := func() (uint64, int) {
		now := h.srv.Stats().LinkNotices
		got, was := now-sent, model.notices-modelled
		sent, modelled = now, model.notices
		return got, was
	}

	cs := dial(32)
	star(t, model, cs[0], cs[1:])
	if got, was := spent(); got != 992 || was != 10912 {
		t.Errorf("a 32-member star cost %d LinkAdded (full broadcast %d), want 992 (10912)", got, was)
	}

	cs = dial(3)
	star(t, model, cs[0], cs[1:])
	if got, was := spent(); got != 6 || was != 8 {
		t.Errorf("a group of three cost %d LinkAdded (full broadcast %d), want 6 (8)", got, was)
	}

	left, right := dial(16), dial(16)
	star(t, model, left[0], left[1:])
	star(t, model, right[0], right[1:])
	spent()
	mustOK(t, left[3].Couple("/x", right[5].Ref("/x")))
	model.couple(couple.Link{From: left[3].Ref("/x"), To: right[5].Ref("/x"), Creator: left[3].ID()})
	if got, was := spent(); got != 512 || was != 992 {
		t.Errorf("bridging two 16-member stars cost %d LinkAdded (full broadcast %d), want 512 (992): "+
			"the 15 links of the far star and the bridge to each of 32 instances", got, was)
	}
}

// drain returns the link notices rc has already received, without waiting.
func drain(rc *rawClient) (added, removed []couple.Link) {
	for {
		select {
		case env := <-rc.events:
			switch m := env.Msg.(type) {
			case wire.LinkAdded:
				added = append(added, m.Link)
			case wire.LinkRemoved:
				removed = append(removed, m.Link)
			}
		default:
			return added, removed
		}
	}
}

// TestCoupleDeltaCases walks one merge through every case of the delta rule
// on raw connections, where each notice can be counted: an instance on one
// side is sent the other side and the link, an instance on both sides only
// the link, a link inside one group goes to the group once, a duplicate
// changes nothing, tells nobody else and re-sends the caller its group, and so
// does a member's second link between two endpoints. On the caller's
// connection the notices precede the OK.
func TestCoupleDeltaCases(t *testing.T) {
	h := newHarness(t, server.Options{})
	x, y, z := newRawClient(t, h, "app", "x"), newRawClient(t, h, "app", "y"), newRawClient(t, h, "app", "z")
	teacher := newRawClient(t, h, "app", "teacher")
	for rc, paths := range map[*rawClient][]string{x: {"/a", "/b"}, y: {"/c"}, z: {"/d"}} {
		for _, p := range paths {
			rc.mustOK(wire.Declare{Path: p, Class: "textfield"})
		}
	}
	a, b, c, d := ref(x, "/a"), ref(x, "/b"), ref(y, "/c"), ref(z, "/d")
	ac := couple.Link{From: a, To: c, Creator: x.id}
	bd := couple.Link{From: b, To: d, Creator: teacher.id}
	cd := couple.Link{From: c, To: d, Creator: y.id}
	// told checks what each connection received: the caller's notices must be
	// in hand when its OK is, the others' after a round trip of their own.
	told := func(step string, caller *rawClient, want map[*rawClient][]couple.Link) {
		t.Helper()
		for _, rc := range []*rawClient{x, y, z, teacher} {
			if rc != caller {
				rc.call(wire.Ping{Nonce: 1})
			}
			added, removed := drain(rc)
			if !reflect.DeepEqual(added, want[rc]) || removed != nil {
				t.Errorf("%s: %s was sent LinkAdded %v and LinkRemoved %v, want LinkAdded %v", step, rc.id, added, removed, want[rc])
			}
		}
	}

	x.mustOK(wire.Couple{From: a, To: c})
	told("x couples a–c", x, map[*rawClient][]couple.Link{x: {ac}, y: {ac}})

	// A third instance couples two objects that are not its own: it is told
	// nothing, and x, already mirroring a–c, is not sent it again.
	teacher.mustOK(wire.Couple{From: b, To: d})
	told("the teacher couples b–d", teacher, map[*rawClient][]couple.Link{x: {bd}, z: {bd}})

	// The merge: y is on the from side, z on the to side, x on both.
	y.mustOK(wire.Couple{From: c, To: d})
	told("y couples c–d", y, map[*rawClient][]couple.Link{y: {bd, cd}, z: {ac, cd}, x: {cd}})

	links, logged := h.srv.Stats().Links, h.srv.Stats().LinkNotices
	y.mustOK(wire.Couple{From: c, To: d})
	told("y couples c–d again", y, map[*rawClient][]couple.Link{y: {ac, bd, cd}})
	if st := h.srv.Stats(); st.Links != links || st.LinkNotices != logged+3 {
		t.Errorf("a duplicate Couple left %d links and %d notices, want %d and %d", st.Links, st.LinkNotices, links, logged+3)
	}
	teacher.mustOK(wire.Couple{From: b, To: d})
	told("the teacher couples b–d again", teacher, nil)

	// Same endpoints, another creator — what a member that did not create the
	// link sends when it resynchronizes: a new link that joins nothing, which
	// the group hears once, and the caller is re-sent the group as well.
	cdz := couple.Link{From: c, To: d, Creator: z.id}
	z.mustOK(wire.Couple{From: c, To: d})
	told("z couples c–d as well", z, map[*rawClient][]couple.Link{x: {cdz}, y: {cdz}, z: {cdz, ac, bd, cd}})
	// Either direction names the pair.
	dcy := couple.Link{From: d, To: c, Creator: y.id}
	y.mustOK(wire.Couple{From: d, To: c})
	told("y couples d–c", y, map[*rawClient][]couple.Link{x: {dcy}, z: {dcy}, y: {dcy, ac, bd, cd, cdz}})
	// A link that closes a cycle joins nothing either, but no link joined its
	// endpoints before: nobody is resynchronizing, the group hears it once.
	ab := couple.Link{From: a, To: b, Creator: x.id}
	x.mustOK(wire.Couple{From: a, To: b})
	told("x couples a–b", x, map[*rawClient][]couple.Link{x: {ab}, y: {ab}, z: {ab}})
}

// TestDuplicateCoupleLogsOnce restarts a durable server under two coupled
// clients three times. Each resync re-sends every link its client mirrors;
// the first adds the member's own copy of the link (same endpoints, it as the
// creator), every later one is a duplicate and must leave the log alone.
func TestDuplicateCoupleLogsOnce(t *testing.T) {
	d := newDurableServer(t, server.Options{})
	a := d.dial("editor", "alice", `textfield note value=""`, true)
	b := d.dial("editor", "bob", `textfield note value=""`, false)
	mustOK(t, a.Declare("/note"))
	mustOK(t, b.Declare("/note"))
	mustOK(t, a.Couple("/note", b.Ref("/note")))
	mustOK(t, a.Couple("/note", b.Ref("/note")))
	want := []couple.Link{
		{From: a.Ref("/note"), To: b.Ref("/note"), Creator: a.ID()},
		{From: a.Ref("/note"), To: b.Ref("/note"), Creator: b.ID()},
	}
	for i := 0; i < 3; i++ {
		d.restart()
		for _, c := range []*client.Client{a, b} {
			c := c
			waitFor(t, "both creators' links mirrored after the restart", func() bool {
				return reflect.DeepEqual(c.Links(), want)
			})
		}
	}
	couples := 0 // the log syncs every append, so the live directory is complete
	err := eventlog.ReplayDir(d.dir, func(rec eventlog.Record) error {
		if rec.Kind == eventlog.KindCouple {
			couples++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if couples != len(want) {
		t.Errorf("the log holds %d Couple records for %d links", couples, len(want))
	}
}

// TestRestartRefreshesNonCreatorMirror restarts a durable server under a
// chain b – a – c whose links a and c made. b comes back with only the link
// that touches it and re-creates it as itself: a second link between two
// endpoints, which joins nothing, and it is the refresh that brings b the
// rest of the group — c's link above all, which nobody creates again.
func TestRestartRefreshesNonCreatorMirror(t *testing.T) {
	d := newDurableServer(t, server.Options{})
	a := d.dial("editor", "alice", `textfield note value=""`, true)
	b := d.dial("editor", "bob", `textfield note value=""`, false)
	c := d.dial("editor", "carol", `textfield note value=""`, true)
	for _, cl := range []*client.Client{a, b, c} {
		mustOK(t, cl.Declare("/note"))
	}
	mustOK(t, a.Couple("/note", b.Ref("/note")))
	mustOK(t, c.Couple("/note", a.Ref("/note")))
	waitFor(t, "the chain mirrored", func() bool { return len(b.CO("/note")) == 2 })

	d.restart()
	for _, cl := range []*client.Client{a, b, c} {
		cl := cl
		waitFor(t, "every mirror level with the server after the restart", func() bool {
			_, links := d.current().GroupLinks(cl.Ref("/note"))
			return len(links) == 4 && reflect.DeepEqual(cl.Links(), links)
		})
	}
}
