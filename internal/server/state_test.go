package server

// Tests of the replayable state on its own: the digest every recovery test
// compares, the pinned version-2 payload, a directory written by the commit
// before state existed, the decoder under fuzz, and the rule that every record
// kind mutates in exactly one place.

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"cosoft/internal/attr"
	"cosoft/internal/couple"
	"cosoft/internal/eventlog"
	"cosoft/internal/hist"
	"cosoft/internal/netsim"
	"cosoft/internal/widget"
	"cosoft/internal/wire"
)

// digest renders everything the state holds — the registry ID sequence,
// registration records with declared objects, couple links, permission rules,
// resumable sessions, route overrides, per-shard event sequences and history
// stacks — into a canonical string. A history snapshot's At is left out: it
// is wall-clock provenance that only pre-state snapshots still carry. The
// caller must own the state quiescently; liveDigest reads a running server's.
func (st *state) digest() string {
	var b strings.Builder
	st.digestGlobal(&b)
	for i, sh := range st.shards {
		sh.digest(&b, i)
	}
	return b.String()
}

func (st *state) digestGlobal(b *strings.Builder) {
	fmt.Fprintf(b, "regseq %d\n", st.reg.Seq())
	for _, id := range st.reg.Instances() {
		rec, err := st.reg.Lookup(id)
		if err != nil {
			continue
		}
		paths := make([]string, 0, len(rec.Objects))
		for p := range rec.Objects {
			paths = append(paths, p)
		}
		sort.Strings(paths)
		fmt.Fprintf(b, "inst %s type=%s host=%s user=%s objs=[", rec.ID, rec.AppType, rec.Host, rec.User)
		for _, p := range paths {
			fmt.Fprintf(b, " %s:%s", p, rec.Objects[p])
		}
		fmt.Fprint(b, " ]\n")
	}
	for _, l := range st.graph.Links() {
		fmt.Fprintf(b, "link %s by %s\n", l, l.Creator)
	}
	for _, rule := range st.perms.Rules() {
		fmt.Fprintf(b, "perm %s\n", rule)
	}
	toks := make([]string, 0, len(st.sessions))
	for tok := range st.sessions {
		toks = append(toks, tok)
	}
	sort.Strings(toks)
	for _, tok := range toks {
		rec := st.sessions[tok]
		fmt.Fprintf(b, "session %s id=%s type=%s host=%s user=%s\n",
			tok, rec.id, rec.appType, rec.host, rec.user)
	}
	for _, ref := range st.routes.overrides() {
		fmt.Fprintf(b, "route %s -> %d\n", ref, st.routes.shard(ref))
	}
}

func (sh *shardState) digest(b *strings.Builder, i int) {
	fmt.Fprintf(b, "shard %d seq=%d\n", i, sh.seq)
	stack := func(list []hist.Snapshot) string {
		var sb strings.Builder
		for _, sn := range list {
			fmt.Fprintf(&sb, "{%s|%v|%s}", sn.Ref, sn.State, sn.Origin)
		}
		return sb.String()
	}
	for _, ref := range sh.history.Refs() {
		undo, redo := sh.history.Stacks(ref)
		fmt.Fprintf(b, "hist %s undo=%s redo=%s\n", ref, stack(undo), stack(redo))
	}
}

// liveDigest is digest for a running server: each part is read on the loop
// that owns it. It returns "" once the server is closed.
func liveDigest(s *Server) string {
	var b strings.Builder
	on := func(post func(func()) bool, render func()) bool {
		done := make(chan struct{})
		if !post(func() { defer close(done); render() }) {
			return false
		}
		<-done
		return true
	}
	if !on(s.post, func() { s.st.digestGlobal(&b) }) {
		return ""
	}
	for i, sh := range s.shards {
		i, sh := i, sh
		if !on(func(fn func()) bool { return s.postShard(sh, fn) }, func() { sh.digest(&b, i) }) {
			return ""
		}
	}
	return b.String()
}

// goldenRecords is the script behind testdata/state-v2.*: it leaves something
// in every section of the payload, including a redo stack, route overrides, a
// consumed token (tok-b), a dropped one (tok-c) and the session of an instance
// that disconnected (tok-d).
func goldenRecords() []eventlog.Record {
	var recs []eventlog.Record
	rec := func(kind eventlog.Kind, origin string, msg wire.Message) {
		recs = append(recs, eventlog.Record{Kind: kind, Origin: origin, Env: wire.Envelope{Msg: msg}})
	}
	ref := func(inst, path string) couple.ObjectRef {
		return couple.ObjectRef{Instance: couple.InstanceID(inst), Path: path}
	}
	st := func(v string) widget.TreeState {
		return widget.TreeState{Class: "textfield", Name: "x", Attrs: attr.Set{widget.AttrValue: attr.String(v)}}
	}
	for i, u := range []string{"u1", "u2", "u3", "u4"} {
		rec(eventlog.KindRegister, fmt.Sprintf("app-%d", i+1), wire.Register{AppType: "app", Host: "golden", User: u})
	}
	for _, r := range []couple.ObjectRef{ref("app-1", "/x"), ref("app-1", "/y"), ref("app-2", "/x"), ref("app-3", "/x"), ref("app-3", "/z"), ref("app-4", "/x")} {
		rec(eventlog.KindDeclare, string(r.Instance), wire.Declare{Path: r.Path, Class: "textfield"})
	}
	rec(eventlog.KindCouple, "app-1", wire.Couple{From: ref("app-1", "/x"), To: ref("app-2", "/x")})
	rec(eventlog.KindCouple, "app-3", wire.Couple{From: ref("app-3", "/x"), To: ref("app-1", "/x")})
	rec(eventlog.KindCouple, "app-3", wire.Couple{From: ref("app-3", "/z"), To: ref("app-1", "/y")})
	rec(eventlog.KindCouple, "app-4", wire.Couple{From: ref("app-4", "/x"), To: ref("app-2", "/x")})
	for _, id := range []uint64{1, 2, 3, 5, 7, 10} {
		rec(eventlog.KindEvent, "app-1", wire.Exec{EventID: id, TargetPath: "/x", Name: "changed",
			Args: []attr.Value{attr.String("e")}, Origin: ref("app-1", "/x")})
	}
	rec(eventlog.KindHist, "app-1", wire.CopyTo{To: ref("app-2", "/x"), State: st("one")})
	rec(eventlog.KindHist, "app-3", wire.CopyTo{To: ref("app-2", "/x"), State: st("two")})
	rec(eventlog.KindHist, "app-1", wire.CopyTo{To: ref("app-3", "/z"), State: st("zed")})
	rec(eventlog.KindUndo, "app-2", wire.CopyTo{To: ref("app-2", "/x"), State: st("three")})
	rec(eventlog.KindUndo, "app-2", wire.CopyTo{To: ref("app-2", "/x"), State: st("four")})
	rec(eventlog.KindRedo, "app-2", wire.CopyTo{To: ref("app-2", "/x"), State: st("five")})
	rec(eventlog.KindPerm, "app-1", wire.GrantPerm{User: "u2", State: "*", Right: 3})
	rec(eventlog.KindPerm, "app-1", wire.GrantPerm{User: "u3", State: "app-1:/x", Right: 1})
	rec(eventlog.KindPerm, "app-1", wire.GrantPerm{User: "u4", State: "*", Right: 2})
	rec(eventlog.KindPerm, "app-1", wire.RevokePerm{User: "u4", State: "*", Right: 2})
	rec(eventlog.KindToken, "app-1", wire.SessionToken{Token: "tok-a"})
	rec(eventlog.KindToken, "app-2", wire.SessionToken{Token: "tok-b"})
	rec(eventlog.KindToken, "app-3", wire.SessionToken{Token: "tok-c"})
	rec(eventlog.KindToken, "app-4", wire.SessionToken{Token: "tok-d"})
	rec(eventlog.KindResume, "", wire.Resume{Token: "tok-b"})
	rec(eventlog.KindTokenDrop, "app-3", wire.Deregister{})
	rec(eventlog.KindDecouple, "app-2", wire.Decouple{From: ref("app-2", "/x"), To: ref("app-4", "/x")})
	rec(eventlog.KindDisconnect, "app-4", wire.Err{Text: "connection closed"})
	rec(eventlog.KindRetract, "app-1", wire.Retract{Path: "/y"})
	return recs
}

// goldenPayload reads the version-2 payload the commit before state.go
// encoded for goldenRecords, and the digest its own replica rendered.
func goldenPayload(t testing.TB) (payload []byte, digest string) {
	t.Helper()
	hx, err := os.ReadFile(filepath.Join("testdata", "state-v2.hex"))
	if err != nil {
		t.Fatal(err)
	}
	payload, err = hex.DecodeString(strings.Join(strings.Fields(string(hx)), ""))
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "state-v2.digest"))
	if err != nil {
		t.Fatal(err)
	}
	return payload, string(want)
}

// The durable format must not move: the parent's payload decodes, digests as
// scripted and re-encodes byte-identically, and the script folded from
// nothing encodes to the very same bytes.
func TestGoldenStatePayload(t *testing.T) {
	payload, want := goldenPayload(t)
	st, err := decodeState(payload, HarnessShards, 0)
	if err != nil {
		t.Fatalf("golden payload refused: %v", err)
	}
	if got := st.digest(); got != want {
		t.Fatalf("golden payload decodes to\n%s\nwant\n%s", got, want)
	}
	if got := st.encode(); !bytes.Equal(got, payload) {
		t.Fatalf("re-encoded payload differs:\n%x\nwant\n%x", got, payload)
	}
	folded := newState(HarnessShards, 0, nil)
	for _, rec := range goldenRecords() {
		if err := folded.apply(rec); err != nil {
			t.Fatalf("golden record of kind %d refused: %v", rec.Kind, err)
		}
	}
	if got := folded.encode(); !bytes.Equal(got, payload) {
		t.Fatalf("folding the script encodes\n%x\nwant\n%x\ndigest:\n%s", got, payload, folded.digest())
	}
}

// testdata/parent-log is a directory the parent commit's server wrote —
// a snapshot, a compacted prefix and a tail behind the snapshot — and
// parent-log.digest what the parent itself restored from it.
func TestRestoreParentDirectory(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "parent-log.digest"))
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join("testdata", "parent-log")
	rep, err := eventlog.Fsck(dir)
	if err != nil || rep.Corrupt || rep.TornTail {
		t.Fatalf("fsck: %+v, %v", rep, err)
	}
	st := newState(HarnessShards, 0, nil)
	off, n, err := st.restore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if off <= rep.SnapshotOffset || n == 0 {
		t.Fatalf("restored to offset %d over %d records; the snapshot is at %d with a tail behind it", off, n, rep.SnapshotOffset)
	}
	if got := st.digest(); got != string(want) {
		t.Fatalf("restored\n%s\nthe parent restored\n%s", got, want)
	}
}

// FuzzDecodeState: whatever the bytes, decode returns a state or an error —
// no panic, nothing sized by a length the payload cannot back — and what it
// accepts is a fixed point: it re-encodes to a payload that decodes to the
// same digest.
func FuzzDecodeState(f *testing.F) {
	payload, _ := goldenPayload(f)
	for n := 0; n <= len(payload); n += 7 {
		f.Add(payload[:n])
	}
	f.Add(payload)
	f.Add([]byte{stateVersion, 0xff, 0xff, 0xff, 0xff, 0x0f})                // a shard count the payload cannot hold
	f.Add([]byte{stateVersion, 1, 0, 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}) // an instance count likewise
	f.Fuzz(func(t *testing.T, p []byte) {
		st, err := decodeState(p, HarnessShards, 0)
		if err != nil {
			return
		}
		held := st.reg.Len() + st.graph.Len() + st.perms.Len() + len(st.sessions) + len(st.routes.overrides())
		for _, sh := range st.shards {
			held += sh.history.Len()
		}
		if held > len(p) {
			t.Fatalf("%d-byte payload decoded into %d entries", len(p), held)
		}
		again, err := decodeState(st.encode(), HarnessShards, 0)
		if err != nil {
			t.Fatalf("re-encoded payload refused: %v", err)
		}
		if got, want := again.digest(), st.digest(); got != want {
			t.Fatalf("decode(encode(s)) differs:\n%s\nwas\n%s", got, want)
		}
	})
}

// rawPeer speaks the wire protocol directly, so the test knows every payload
// the server saw.
type rawPeer struct {
	t    *testing.T
	conn *wire.Conn
	seq  uint64
	in   chan wire.Envelope
}

func dialRaw(t *testing.T, srv *Server, wg *sync.WaitGroup) *rawPeer {
	t.Helper()
	link := netsim.NewLink(0)
	wg.Add(1)
	go func() {
		defer wg.Done()
		srv.HandleConn(wire.NewConn(link.B))
	}()
	// Buffered past anything one step leaves unread, so the reader never
	// stalls the server's writer.
	p := &rawPeer{t: t, conn: wire.NewConn(link.A), in: make(chan wire.Envelope, 256)}
	go func() {
		defer close(p.in)
		for {
			env, err := p.conn.Read()
			if err != nil {
				return
			}
			p.in <- env
		}
	}()
	return p
}

func (p *rawPeer) send(msg wire.Message) uint64 {
	p.t.Helper()
	p.seq++
	if err := p.conn.Write(wire.Envelope{Seq: p.seq, Msg: msg}); err != nil {
		p.t.Fatalf("write %s: %v", msg.MsgType(), err)
	}
	return p.seq
}

// next returns the first incoming envelope match accepts, dropping the
// notices before it.
func (p *rawPeer) next(what string, match func(wire.Envelope) bool) wire.Envelope {
	p.t.Helper()
	deadline := time.After(5 * time.Second)
	for {
		select {
		case env, ok := <-p.in:
			if !ok {
				p.t.Fatalf("connection closed waiting for %s", what)
			}
			if match(env) {
				return env
			}
		case <-deadline:
			p.t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// reply waits for the answer to request seq and requires it not be an Err.
func (p *rawPeer) reply(seq uint64) wire.Message {
	p.t.Helper()
	env := p.next(fmt.Sprintf("the reply to request %d", seq), func(env wire.Envelope) bool { return env.RefSeq == seq })
	if e, ok := env.Msg.(wire.Err); ok {
		p.t.Fatalf("request %d refused: %s", seq, e.Text)
	}
	return env.Msg
}

func (p *rawPeer) call(msg wire.Message) wire.Message {
	p.t.Helper()
	return p.reply(p.send(msg))
}

// serveState answers the server's next StateRequest with state.
func (p *rawPeer) serveState(state widget.TreeState) {
	p.t.Helper()
	env := p.next("a state request", func(env wire.Envelope) bool {
		_, ok := env.Msg.(wire.StateRequest)
		return ok
	})
	id := env.Msg.(wire.StateRequest).RequestID
	if err := p.conn.Write(wire.Envelope{Msg: wire.StateReply{RequestID: id, OK: true, State: state}}); err != nil {
		p.t.Fatal(err)
	}
}

// Every eventlog.Kind has exactly one mutation site. Each step below drives a
// live server through the wire into logging one or two kinds, and hands the
// record the step stands for — written out here, not read back from any log —
// to a fresh state's apply. The two must agree after every step, and between
// them the steps cover every kind there is.
func TestEveryKindHasOneMutationSite(t *testing.T) {
	srv := New(Options{Shards: HarnessShards})
	var wg sync.WaitGroup
	var dialed []*rawPeer
	dial := func() *rawPeer {
		p := dialRaw(t, srv, &wg)
		dialed = append(dialed, p)
		return p
	}
	defer func() {
		srv.Close()
		// A deregistered instance is no client of the server's any more, so
		// Close does not reach its connection.
		for _, p := range dialed {
			p.conn.Close()
		}
		wg.Wait()
	}()
	fresh := newState(HarnessShards, 0, nil)
	seen := make(map[eventlog.Kind]bool)
	step := func(what string, recs ...eventlog.Record) {
		t.Helper()
		for _, rec := range recs {
			seen[rec.Kind] = true
			if err := fresh.apply(rec); err != nil {
				t.Fatalf("%s: apply refused kind %d: %v", what, rec.Kind, err)
			}
		}
		// A disconnect's per-shard half is queued, not done, when the global
		// half is; give the loops a moment before calling it a difference.
		want := fresh.digest()
		var got string
		for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(time.Millisecond) {
			if got = liveDigest(srv); got == want || time.Now().After(deadline) {
				break
			}
		}
		if got != want {
			t.Fatalf("after %s the live server holds\n%s\napply built\n%s", what, got, want)
		}
	}
	rec := func(kind eventlog.Kind, origin couple.InstanceID, msg wire.Message) eventlog.Record {
		return eventlog.Record{Kind: kind, Origin: string(origin), Env: wire.Envelope{Msg: msg}}
	}
	text := func(v string) widget.TreeState {
		return widget.TreeState{Class: "textfield", Name: "x", Attrs: attr.Set{widget.AttrValue: attr.String(v)}}
	}

	// Register, Declare.
	peers := make(map[couple.InstanceID]*rawPeer)
	join := func(user string) couple.InstanceID {
		p := dial()
		reg := wire.Register{AppType: "app", Host: "raw", User: user}
		id := p.call(reg).(wire.Registered).ID
		peers[id] = p
		step("register "+user, rec(eventlog.KindRegister, id, reg))
		decl := wire.Declare{Path: "/x", Class: "textfield"}
		p.call(decl)
		step("declare by "+user, rec(eventlog.KindDeclare, id, decl))
		return id
	}
	a, b, c := join("u1"), join("u2"), join("u3")
	x := func(id couple.InstanceID) couple.ObjectRef { return couple.ObjectRef{Instance: id, Path: "/x"} }

	// Couple: twice, so a group of one joins a group of two — across shards,
	// for at least one of the pairs, with four of them.
	for _, m := range []wire.Couple{{From: x(a), To: x(b)}, {From: x(c), To: x(a)}} {
		creator := m.From.Instance
		peers[creator].call(m)
		step("couple", rec(eventlog.KindCouple, creator, m))
	}

	// Event: a dispatches, b and c re-execute and acknowledge.
	seq := peers[a].send(wire.Event{Path: "/x", Name: widget.EventChanged, Args: []attr.Value{attr.String("v")}})
	var exec wire.Exec
	for _, id := range []couple.InstanceID{b, c} {
		env := peers[id].next("an Exec", func(env wire.Envelope) bool { _, ok := env.Msg.(wire.Exec); return ok })
		exec = env.Msg.(wire.Exec)
		peers[id].send(wire.ExecAck{EventID: exec.EventID})
	}
	if res := peers[a].reply(seq).(wire.EventResult); !res.OK {
		t.Fatalf("event denied: %s", res.Reason)
	}
	step("event", rec(eventlog.KindEvent, a, exec))

	// Hist: a pushes its state onto b's object, whose old state is backed up.
	seq = peers[a].send(wire.CopyTo{FromPath: "/x", To: x(b), State: text("pushed")})
	peers[b].serveState(text("overwritten"))
	peers[a].reply(seq)
	step("copy", rec(eventlog.KindHist, a, wire.CopyTo{To: x(b), State: text("overwritten")}))

	// Undo, Redo: b walks its history; each walk carries b's current state.
	seq = peers[b].send(wire.Undo{Path: "/x"})
	peers[b].serveState(text("pushed"))
	peers[b].reply(seq)
	step("undo", rec(eventlog.KindUndo, b, wire.CopyTo{To: x(b), State: text("pushed")}))
	seq = peers[b].send(wire.Redo{Path: "/x"})
	peers[b].serveState(text("overwritten"))
	peers[b].reply(seq)
	step("redo", rec(eventlog.KindRedo, b, wire.CopyTo{To: x(b), State: text("overwritten")}))

	// Decouple, named against the link's stored direction.
	dec := wire.Decouple{From: x(a), To: x(c)}
	peers[a].call(dec)
	step("decouple", rec(eventlog.KindDecouple, a, dec))

	// Token, Disconnect, Resume: b mints a token, drops off, and comes back
	// as itself on a new connection.
	tok := peers[b].call(wire.SessionToken{}).(wire.SessionToken)
	step("token", rec(eventlog.KindToken, b, tok))
	peers[b].conn.Close()
	step("disconnect", rec(eventlog.KindDisconnect, b, wire.Err{Text: "connection closed"}))
	peers[b] = dial()
	if id := peers[b].call(wire.Resume{Token: tok.Token}).(wire.Registered).ID; id != b {
		t.Fatalf("resumed as %s, want %s", id, b)
	}
	step("resume", rec(eventlog.KindResume, b, wire.Resume{Token: tok.Token}))

	// TokenDrop: a deregistration revokes the token minted since and takes
	// the instance with it.
	tok = peers[b].call(wire.SessionToken{}).(wire.SessionToken)
	step("second token", rec(eventlog.KindToken, b, tok))
	peers[b].call(wire.Deregister{})
	step("deregister",
		rec(eventlog.KindTokenDrop, b, wire.Deregister{}),
		rec(eventlog.KindDisconnect, b, wire.Err{Text: "deregistered"}))

	// Perm (last: the first rule closes the open table), Retract.
	grant := wire.GrantPerm{User: "u3", State: "*", Right: 2}
	peers[a].call(grant)
	step("grant", rec(eventlog.KindPerm, a, grant))
	revoke := wire.RevokePerm{User: "u3", State: "*", Right: 2}
	peers[a].call(revoke)
	step("revoke", rec(eventlog.KindPerm, a, revoke))
	peers[a].call(wire.Retract{Path: "/x"})
	step("retract", rec(eventlog.KindRetract, a, wire.Retract{Path: "/x"}))

	for k := eventlog.KindRegister; k <= eventlog.KindPerm; k++ {
		if !seen[k] {
			t.Errorf("no step covers record kind %d", k)
		}
	}
	if got := fresh.apply(eventlog.Record{Kind: eventlog.KindPerm + 1}); got == nil {
		t.Error("apply accepted a kind past the last one: the walk above misses a new kind")
	}
}
