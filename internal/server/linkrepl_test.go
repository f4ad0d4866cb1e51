package server_test

// What a member is told about its group (DESIGN §16): the delta a Couple
// sends, its budget in notices, the duplicate Couple, and — over random
// scripts — that every instance's mirror ends up exactly where re-sending the
// whole group on every Couple used to leave it.

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"cosoft/internal/client"
	"cosoft/internal/couple"
	"cosoft/internal/eventlog"
	"cosoft/internal/server"
	"cosoft/internal/testbed"
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

// replPeer is one real client of a replication script, with the objects it
// has declared and not yet destroyed.
type replPeer struct {
	c     *client.Client
	paths []string
}

func (p *replPeer) refs() []couple.ObjectRef {
	refs := make([]couple.ObjectRef, len(p.paths))
	for i, path := range p.paths {
		refs[i] = p.c.Ref(path)
	}
	return refs
}

// dialRepl connects a reconnecting peer, so that it can be cut from the
// server's end, declaring a textfield at each of paths.
func dialRepl(t *testing.T, bed *testbed.Bed, user string, paths []string) *replPeer {
	t.Helper()
	var spec strings.Builder
	for _, path := range paths {
		fmt.Fprintf(&spec, "textfield %s\n", path[1:])
	}
	c := bed.Dial(testbed.Member{AppType: "repl", User: user, Spec: spec.String(),
		Reconnect: &client.ReconnectOptions{
			OnResync: func(err error) {
				if err != nil {
					t.Errorf("%s: resync: %v", user, err)
				}
			},
		}})
	for _, path := range paths {
		mustOK(t, c.Declare(path))
	}
	return &replPeer{c: c, paths: paths}
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
// peer held out while the others change its former groups — and checks the
// mirrors whenever the script pauses and at its end. A pinned seed's subtest
// is named by its seed; the fresh draws are fresh/0 … fresh/24, so a new draw
// renames nothing, and a failing one reports its seed.
func TestPropMirrorsMatchFullBroadcast(t *testing.T) {
	script := func(t *testing.T, seed int64) {
		r := rand.New(rand.NewSource(seed))
		srv, bed := newBed(t, server.Options{})
		model := newMirrorModel()
		var peers []*replPeer
		for i := 0; i < 5; i++ {
			p := dialRepl(t, bed, fmt.Sprintf("u%d", i), []string{"/a", "/b", "/c"})
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
				// The peer is cut at the server and held out while its former
				// groups change; it hears nothing of that until it resumes.
				instances := srv.Stats().Instances
				bed.Cut(p.c, func() {
					testbed.Wait(t, fmt.Sprintf("the server to drop %s", id), func() bool { return srv.Stats().Instances < instances })
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
				checkMirrors(t, srv, model, peers, when)
			}
		}
		checkMirrors(t, srv, model, peers, fmt.Sprintf("seed %d at the end", seed))
	}
	run := func(t *testing.T, name string, seed int64) bool {
		return t.Run(name, func(t *testing.T) {
			// Registered before the bed's teardown, so it runs after it and
			// sees the failures teardown finds too.
			t.Cleanup(func() {
				if t.Failed() {
					t.Logf("failed with seed %d; pin it in mirrorSeeds to rerun it", seed)
				}
			})
			script(t, seed)
		})
	}
	// The pinned seeds rerun on every run; quick.Check adds 25 new ones.
	for _, seed := range mirrorSeeds {
		run(t, fmt.Sprint(seed), seed)
	}
	t.Run("fresh", func(t *testing.T) {
		draw := 0
		f := func(seed int64) bool {
			draw++
			return run(t, fmt.Sprint(draw-1), seed)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
			t.Error(err)
		}
	})
}

// mirrorSeeds are 150 seeds once drawn by quick.Check, in six draws of 25,
// kept as a regression set beside the fresh ones.
var mirrorSeeds = []int64{
	-1259670455702671925, -212541134892010761, -2992354744898627188,
	-3216077752627738076, -3282967959127538410, -360445061237689495,
	-3851626800939089632, -4792904869613998306, -5949412667249212136,
	-655182557903792453, -7287634232911930876, -8628415572200321276,
	-9022957536165412615, -9049468901838988058, 109516756408858575,
	114038724562584643, 2251655342271178081, 2275918443827011896,
	2710723903545412452, 5238338569023368557, 592652628890208037,
	5945429715955425895, 6048992839965620078, 8109172900034158145,
	8337179743106366534,

	-1047943191893325637, -2395459449690902845, -2722202158427319232,
	-2762457617710205598, -3437796475471892733, -449550445301326720,
	-4712432233931001619, -5549663745572722302, -7778743382577087820,
	-7822461056819112924, 1084148494771279652, 1487941694774237300,
	1796160791486954199, 3205210826363598505, 3418028423528576441,
	4425121576449160653, 4567114434255278014, 4850222383763446555,
	5039856206104202318, 5292098608950294331, 6088242074794210126,
	6220391455507564616, 7061055639457985421, 8929173882321306564,
	9042505499938432067,

	-1024209282330026722, -1179843486470950645, -1954062555188677453,
	-2093776886830322167, -2433879592195899856, -2715248601064234343,
	-3095559879466524791, -3216553786126496038, -3485825840370059679,
	-4596907372623448647, -5532968576532741471, -5748150340588144624,
	-6106984914179293704, 1045573944623045575, 1938317299033842557,
	2421330786212632344, 2777593184774240572, 4959291770532066541,
	5150103943966636195, 5359472762377503848, 5693359390726492189,
	6602305138809614357, 7269430529955898114, 7885865012698226950,
	8374127867276862423,

	-1707566492888646408, -1848795333968475916, -2230936123066778842,
	-2722893054325785488, -2799181676624445050, -2825503105693808563,
	-3218625641856873007, -6122004213854657446, -6820577717372395709,
	-7434500677157146508, -7753372670825863018, 1098596089473840260,
	1198997285016988941, 1208485205466198421, 1940629241961092674,
	2657166260478615450, 3506792111857382252, 4206955937519869870,
	4234126567753870931, 5205247211340489811, 5276856033666605666,
	5918153937482904544, 6090351656867434383, 9024532786536012874,
	9116704827407217621,

	-2725552722441517026, -2820908855147186594, -3734193842746273435,
	-3948764739101754185, -4297688897191890028, -4626724297740751063,
	-68780112727210501, -7008700464064130055, -7758221451544239574,
	-7838294285901624455, 103675564230996026, 1058805633253466915,
	110588141537552864, 1197042136328980971, 1751084643239986918,
	2185829393690109169, 3447134104239082564, 3476737011569204363,
	4057324867327682691, 4069768339557456069, 4929188699761339430,
	6127769067167781624, 656227224301876320, 6813552217433126940,
	7318090048050209101,

	-21073000619949415, -2322859318676452798, -2637016625193312234,
	-3130966988078335979, -3458265101616194935, -370174330146306658,
	-4561953980104669388, -4832106247133947880, -5158918487083070266,
	-725664160253835969, -7822173902899884586, -8824242345378068366,
	2091401855749926201, 2446883622109027167, 372726562371599601,
	3884783199789473652, 4539298393592054606, 509633625543246575,
	5985378965873647051, 652586272144651160, 6659399213929208729,
	7308441812148439215, 7554512694055968451, 7625411534829087208,
	8352171734824885358,
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
	srv, bed := newBed(t, server.Options{})
	model := newMirrorModel()
	dial := func(n int) []*client.Client {
		cs := make([]*client.Client, n)
		for i := range cs {
			user := fmt.Sprintf("u%d", len(model.mirrors))
			cs[i] = bed.Dial(testbed.Member{AppType: "app", User: user, Spec: `textfield x`})
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
		now := srv.Stats().LinkNotices
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
func drain(rc *testbed.Peer) (added, removed []couple.Link) {
	for {
		select {
		case env := <-rc.Events:
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
// the link, a link inside one group goes to the group once, and a duplicate
// changes nothing and tells nobody, the caller included. On the caller's
// connection the notices precede the OK.
func TestCoupleDeltaCases(t *testing.T) {
	srv, bed := newBed(t, server.Options{})
	x, y, z := bed.Raw(wire.Register{AppType: "app", User: "x"}), bed.Raw(wire.Register{AppType: "app", User: "y"}), bed.Raw(wire.Register{AppType: "app", User: "z"})
	teacher := bed.Raw(wire.Register{AppType: "app", User: "teacher"})
	for rc, paths := range map[*testbed.Peer][]string{x: {"/a", "/b"}, y: {"/c"}, z: {"/d"}} {
		for _, p := range paths {
			rc.MustOK(wire.Declare{Path: p, Class: "textfield"})
		}
	}
	a, b, c, d := ref(x, "/a"), ref(x, "/b"), ref(y, "/c"), ref(z, "/d")
	ac := couple.Link{From: a, To: c, Creator: x.ID}
	bd := couple.Link{From: b, To: d, Creator: teacher.ID}
	cd := couple.Link{From: c, To: d, Creator: y.ID}
	// told checks what each connection received: the caller's notices must be
	// in hand when its OK is, the others' after a round trip of their own.
	told := func(step string, caller *testbed.Peer, want map[*testbed.Peer][]couple.Link) {
		t.Helper()
		for _, rc := range []*testbed.Peer{x, y, z, teacher} {
			if rc != caller {
				rc.Call(wire.Ping{Nonce: 1})
			}
			added, removed := drain(rc)
			if !reflect.DeepEqual(added, want[rc]) || removed != nil {
				t.Errorf("%s: %s was sent LinkAdded %v and LinkRemoved %v, want LinkAdded %v", step, rc.ID, added, removed, want[rc])
			}
		}
	}

	x.MustOK(wire.Couple{From: a, To: c})
	told("x couples a–c", x, map[*testbed.Peer][]couple.Link{x: {ac}, y: {ac}})

	// A third instance couples two objects that are not its own: it is told
	// nothing, and x, already mirroring a–c, is not sent it again.
	teacher.MustOK(wire.Couple{From: b, To: d})
	told("the teacher couples b–d", teacher, map[*testbed.Peer][]couple.Link{x: {bd}, z: {bd}})

	// The merge: y is on the from side, z on the to side, x on both.
	y.MustOK(wire.Couple{From: c, To: d})
	told("y couples c–d", y, map[*testbed.Peer][]couple.Link{y: {bd, cd}, z: {ac, cd}, x: {cd}})

	links, logged := srv.Stats().Links, srv.Stats().LinkNotices
	y.MustOK(wire.Couple{From: c, To: d})
	told("y couples c–d again", y, nil)
	if st := srv.Stats(); st.Links != links || st.LinkNotices != logged {
		t.Errorf("a duplicate Couple left %d links and %d notices, want %d and %d", st.Links, st.LinkNotices, links, logged)
	}
	teacher.MustOK(wire.Couple{From: b, To: d})
	told("the teacher couples b–d again", teacher, nil)

	// Same endpoints, another creator: a new link that joins nothing, which
	// the group hears once.
	cdz := couple.Link{From: c, To: d, Creator: z.ID}
	z.MustOK(wire.Couple{From: c, To: d})
	told("z couples c–d as well", z, map[*testbed.Peer][]couple.Link{x: {cdz}, y: {cdz}, z: {cdz}})
	// The reverse direction is one more such link.
	dcy := couple.Link{From: d, To: c, Creator: y.ID}
	y.MustOK(wire.Couple{From: d, To: c})
	told("y couples d–c", y, map[*testbed.Peer][]couple.Link{x: {dcy}, y: {dcy}, z: {dcy}})
	// So does a link that closes a cycle.
	ab := couple.Link{From: a, To: b, Creator: x.ID}
	x.MustOK(wire.Couple{From: a, To: b})
	told("x couples a–b", x, map[*testbed.Peer][]couple.Link{x: {ab}, y: {ab}, z: {ab}})
}

// TestDuplicateCoupleLogsOnce restarts a durable server under two coupled
// clients three times, after a duplicate Couple. Neither the duplicate nor
// the restarts touch the relation or the log: the server kept both clients,
// so neither re-creates the link, and b never adds a copy of its own.
func TestDuplicateCoupleLogsOnce(t *testing.T) {
	d := newDurable(t, server.Options{})
	a := d.dial("editor", "alice", `textfield note value=""`)
	b := d.dial("editor", "bob", `textfield note value=""`)
	mustOK(t, a.Declare("/note"))
	mustOK(t, b.Declare("/note"))
	mustOK(t, a.Couple("/note", b.Ref("/note")))
	mustOK(t, a.Couple("/note", b.Ref("/note")))
	want := []couple.Link{{From: a.Ref("/note"), To: b.Ref("/note"), Creator: a.ID()}}
	for i := 0; i < 3; i++ {
		d.restart()
		for _, c := range []*client.Client{a, b} {
			c := c
			testbed.Wait(t, "the link mirrored after the restart", func() bool {
				_, links := d.srv.GroupLinks(c.Ref("/note"))
				return reflect.DeepEqual(c.Links(), want) && reflect.DeepEqual(links, want)
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

// TestRestartLevelsNonCreatorMirror restarts a durable server under a chain
// b – a – c whose links a and c made. b kept only the link that touches it
// across the cut, and no client re-creates a link: each is sent its group's
// links ahead of its resume reply, which brings b c's link, and the server
// still holds the two links the chain was built with.
func TestRestartLevelsNonCreatorMirror(t *testing.T) {
	d := newDurable(t, server.Options{})
	a := d.dial("editor", "alice", `textfield note value=""`)
	b := d.dial("editor", "bob", `textfield note value=""`)
	c := d.dial("editor", "carol", `textfield note value=""`)
	for _, cl := range []*client.Client{a, b, c} {
		mustOK(t, cl.Declare("/note"))
	}
	mustOK(t, a.Couple("/note", b.Ref("/note")))
	mustOK(t, c.Couple("/note", a.Ref("/note")))
	testbed.Wait(t, "the chain mirrored", func() bool { return len(b.CO("/note")) == 2 })

	d.restart()
	for _, cl := range []*client.Client{a, b, c} {
		cl := cl
		testbed.Wait(t, "every mirror level with the server after the restart", func() bool {
			_, links := d.srv.GroupLinks(cl.Ref("/note"))
			return len(links) == 2 && reflect.DeepEqual(cl.Links(), links)
		})
	}
}
