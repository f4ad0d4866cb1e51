package server

// Tests of the replayable state on its own: the digest every recovery test
// compares, the pinned version-2 and version-3 payloads, a directory written
// by the commit before state existed, the decoder under fuzz, the rule that
// every record kind mutates in exactly one place, and the rule that event
// records commute with every other record.

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"cosoft/internal/attr"
	"cosoft/internal/couple"
	"cosoft/internal/eventlog"
	"cosoft/internal/hist"
	"cosoft/internal/testbed"
	"cosoft/internal/widget"
	"cosoft/internal/wire"
)

// digest renders everything the state holds — the registry ID sequence, the
// event-ID floor, registration records with declared objects, couple links,
// permission rules, resumable sessions and history stacks — into a canonical
// string. A history snapshot's At is left out: it is wall-clock provenance
// that only pre-state snapshots still carry. The caller must own the state
// quiescently; liveDigest reads a running server's.
func (st *state) digest() string { return st.digestWith(st.floor) }

// digestWith is digest with the floor given: a running server's is not
// st.floor alone (see liveDigest).
func (st *state) digestWith(floor uint64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "regseq %d\n", st.reg.Seq())
	fmt.Fprintf(&b, "floor %d\n", floor)
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
		fmt.Fprintf(&b, "inst %s type=%s host=%s user=%s objs=[", rec.ID, rec.AppType, rec.Host, rec.User)
		for _, p := range paths {
			fmt.Fprintf(&b, " %s:%s", p, rec.Objects[p])
		}
		fmt.Fprint(&b, " ]\n")
	}
	for _, l := range st.graph.Links() {
		fmt.Fprintf(&b, "link %s by %s\n", l, l.Creator)
	}
	for _, rule := range st.perms.Rules() {
		fmt.Fprintf(&b, "perm %s\n", rule)
	}
	toks := make([]string, 0, len(st.sessions))
	for tok := range st.sessions {
		toks = append(toks, tok)
	}
	sort.Strings(toks)
	for _, tok := range toks {
		rec := st.sessions[tok]
		fmt.Fprintf(&b, "session %s id=%s type=%s host=%s user=%s\n",
			tok, rec.id, rec.appType, rec.host, rec.user)
	}
	stack := func(list []hist.Snapshot) string {
		var sb strings.Builder
		for _, sn := range list {
			fmt.Fprintf(&sb, "{%s|%v|%s}", sn.Ref, sn.State, sn.Origin)
		}
		return sb.String()
	}
	for _, ref := range st.history.Refs() {
		undo, redo := st.history.Stacks(ref)
		fmt.Fprintf(&b, "hist %s undo=%s redo=%s\n", ref, stack(undo), stack(redo))
	}
	return b.String()
}

// liveDigest is digest for a running server, read under gmu and, for the
// lease, the event lock. Its floor is the one the log restored, raised to the
// ceiling of the lease taken since, as the fold raises it: every ID the
// server grants lies below its ceiling. It returns "" once the server is
// closed.
func liveDigest(s *Server) string {
	var out string
	s.withGlobal(func() {
		floor := s.st.floor
		s.withEvents(func() { floor = max(floor, s.ev.ceiling) })
		out = s.st.digestWith(floor)
	})
	return out
}

// goldenRecords is the script behind testdata/state-v*: it leaves something
// in every section of the payload, including a redo stack, a consumed token
// (tok-b), a dropped one (tok-c) and the session of an instance that
// disconnected (tok-d).
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

// golden reads a pinned payload: state-v2.hex is what the commit before
// state.go encoded for goldenRecords, state-v3.hex what it encodes to now.
func golden(t testing.TB, name string) []byte {
	t.Helper()
	hx, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	payload, err := hex.DecodeString(strings.Join(strings.Fields(string(hx)), ""))
	if err != nil {
		t.Fatal(err)
	}
	return payload
}

// The durable format moves only by its version: the parent's version-2
// payload and the version-3 one both decode and digest as scripted, and both
// encode to the version-3 bytes, as does the script folded from nothing.
func TestGoldenStatePayload(t *testing.T) {
	v3 := golden(t, "state-v3.hex")
	want, err := os.ReadFile(filepath.Join("testdata", "state-v2.digest"))
	if err != nil {
		t.Fatal(err)
	}
	for _, payload := range [][]byte{golden(t, "state-v2.hex"), v3} {
		st, err := decodeState(payload, 0)
		if err != nil {
			t.Fatalf("golden version-%d payload refused: %v", payload[0], err)
		}
		if got := st.digest(); got != string(want) {
			t.Fatalf("golden version-%d payload decodes to\n%s\nwant\n%s", payload[0], got, want)
		}
		if got := st.encode(); !bytes.Equal(got, v3) {
			t.Fatalf("version-%d payload re-encodes to\n%x\nwant\n%x", payload[0], got, v3)
		}
	}
	folded := newState(0, nil)
	for _, rec := range goldenRecords() {
		if err := folded.apply(rec); err != nil {
			t.Fatalf("golden record of kind %d refused: %v", rec.Kind, err)
		}
	}
	if got := folded.encode(); !bytes.Equal(got, v3) {
		t.Fatalf("folding the script encodes\n%x\nwant\n%x\ndigest:\n%s", got, v3, folded.digest())
	}
}

// testdata/parent-log is a directory the parent commit's server wrote —
// a snapshot, a compacted prefix and a tail behind the snapshot — and
// parent-log.digest what the parent itself restored from it, with its route
// overrides left out and its shard sequences folded into the floor.
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
	st := newState(0, nil)
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
	for _, payload := range [][]byte{golden(f, "state-v2.hex"), golden(f, "state-v3.hex")} {
		for n := 0; n <= len(payload); n += 7 {
			f.Add(payload[:n])
		}
		f.Add(payload)
		if payload[0] == 2 {
			f.Add([]byte{2, 0xff, 0xff, 0xff, 0xff, 0x0f})                // a shard count the payload cannot hold
			f.Add([]byte{2, 1, 0, 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}) // an instance count likewise
		}
	}
	f.Fuzz(func(t *testing.T, p []byte) {
		st, err := decodeState(p, 0)
		if err != nil {
			return
		}
		held := st.reg.Len() + st.graph.Len() + st.perms.Len() + len(st.sessions) + st.history.Len()
		if held > len(p) {
			t.Fatalf("%d-byte payload decoded into %d entries", len(p), held)
		}
		again, err := decodeState(st.encode(), 0)
		if err != nil {
			t.Fatalf("re-encoded payload refused: %v", err)
		}
		if got, want := again.digest(), st.digest(); got != want {
			t.Fatalf("decode(encode(s)) differs:\n%s\nwas\n%s", got, want)
		}
	})
}

// Every eventlog.Kind has exactly one mutation site. Each step below drives a
// live server through the wire into logging one or two kinds, and hands the
// record the step stands for — written out here, not read back from any log —
// to a fresh state's apply. The two must agree after every step, and between
// them the steps cover every kind there is. The server logs, so that it
// leases event IDs.
func TestEveryKindHasOneMutationSite(t *testing.T) {
	elog, err := eventlog.Open(eventlog.Options{Dir: t.TempDir(), Sync: eventlog.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	// Registered before the bed, so the server closes before its log does.
	t.Cleanup(func() { elog.Close() })
	srv := New(Options{EventLog: elog})
	bed := testbed.New(t, srv, testbed.Options{})
	fresh := newState(0, nil)
	seen := make(map[eventlog.Kind]bool)
	step := func(what string, recs ...eventlog.Record) {
		t.Helper()
		for _, rec := range recs {
			seen[rec.Kind] = true
			if err := fresh.apply(rec); err != nil {
				t.Fatalf("%s: apply refused kind %d: %v", what, rec.Kind, err)
			}
		}
		// A peer's close reaches the server's read loop, and its drop takes
		// the global lock, after the step returns; give them a moment before
		// calling it a difference.
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
	peers := make(map[couple.InstanceID]*testbed.Peer)
	join := func(user string) couple.InstanceID {
		reg := wire.Register{AppType: "app", Host: "raw", User: user}
		p := bed.Raw(reg)
		id := p.ID
		peers[id] = p
		step("register "+user, rec(eventlog.KindRegister, id, reg))
		decl := wire.Declare{Path: "/x", Class: "textfield"}
		p.MustOK(decl)
		step("declare by "+user, rec(eventlog.KindDeclare, id, decl))
		return id
	}
	a, b, c := join("u1"), join("u2"), join("u3")
	x := func(id couple.InstanceID) couple.ObjectRef { return couple.ObjectRef{Instance: id, Path: "/x"} }

	// Couple: twice, so a group of one joins a group of two.
	for _, m := range []wire.Couple{{From: x(a), To: x(b)}, {From: x(c), To: x(a)}} {
		creator := m.From.Instance
		peers[creator].MustOK(m)
		step("couple", rec(eventlog.KindCouple, creator, m))
	}

	// Event: a dispatches, b and c re-execute and acknowledge.
	peers[a].Send(wire.Event{Path: "/x", Name: widget.EventChanged, Args: []attr.Value{attr.String("v")}})
	var exec wire.Exec
	for _, id := range []couple.InstanceID{b, c} {
		exec = testbed.Next[wire.Exec](peers[id])
		peers[id].Send(wire.ExecAck{EventID: exec.EventID})
	}
	if res := testbed.Next[wire.EventResult](peers[a]); !res.OK {
		t.Fatalf("event denied: %s", res.Reason)
	}
	// The copy below needs the group's floor, which the event holds until
	// both acks are in.
	testbed.Wait(t, "event resolved", func() bool { return srv.Stats().PendingEvents == 0 })
	// The first event takes its lease first.
	lease := wire.Exec{EventID: exec.EventID + leaseBlock}
	step("event", rec(eventlog.KindLease, "", lease), rec(eventlog.KindEvent, a, exec))

	// Hist: a pushes its state onto b's object, whose old state is backed up.
	peers[a].Send(wire.CopyTo{FromPath: "/x", To: x(b), State: text("pushed")})
	peers[b].ServeState(text("overwritten"))
	peers[b].ApplyState()
	testbed.Next[wire.OK](peers[a])
	step("copy", rec(eventlog.KindHist, a, wire.CopyTo{To: x(b), State: text("overwritten")}))

	// Undo, Redo: b walks its history; each walk carries b's current state.
	peers[b].Send(wire.Undo{Path: "/x"})
	peers[b].ServeState(text("pushed"))
	peers[b].ApplyState()
	testbed.Next[wire.OK](peers[b])
	step("undo", rec(eventlog.KindUndo, b, wire.CopyTo{To: x(b), State: text("pushed")}))
	peers[b].Send(wire.Redo{Path: "/x"})
	peers[b].ServeState(text("overwritten"))
	peers[b].ApplyState()
	testbed.Next[wire.OK](peers[b])
	step("redo", rec(eventlog.KindRedo, b, wire.CopyTo{To: x(b), State: text("overwritten")}))

	// Decouple, named against the link's stored direction.
	dec := wire.Decouple{From: x(a), To: x(c)}
	peers[a].MustOK(dec)
	step("decouple", rec(eventlog.KindDecouple, a, dec))

	// Token, Disconnect, Resume: b mints a token, drops off, and comes back
	// as itself on a new connection, whose reply carries the next token.
	tok := peers[b].Call(wire.SessionToken{}).Msg.(wire.SessionToken)
	step("token", rec(eventlog.KindToken, b, tok))
	peers[b].Close()
	step("disconnect", rec(eventlog.KindDisconnect, b, wire.Err{Text: "connection closed"}))
	peers[b] = bed.Raw(wire.Resume{Token: tok.Token})
	if id := peers[b].ID; id != b {
		t.Fatalf("resumed as %s, want %s", id, b)
	}
	next := peers[b].Hello.Msg.(wire.Registered).Token
	step("resume", rec(eventlog.KindResume, b, wire.Resume{Token: tok.Token}),
		rec(eventlog.KindToken, b, wire.SessionToken{Token: next}))

	// TokenDrop: a deregistration revokes the token minted since and takes
	// the instance with it.
	tok = peers[b].Call(wire.SessionToken{}).Msg.(wire.SessionToken)
	step("second token", rec(eventlog.KindToken, b, tok))
	peers[b].MustOK(wire.Deregister{})
	step("deregister",
		rec(eventlog.KindTokenDrop, b, wire.Deregister{}),
		rec(eventlog.KindDisconnect, b, wire.Err{Text: "deregistered"}))

	// Perm (last: the first rule closes the open table), Retract.
	grant := wire.GrantPerm{User: "u3", State: "*", Right: 2}
	peers[a].MustOK(grant)
	step("grant", rec(eventlog.KindPerm, a, grant))
	revoke := wire.RevokePerm{User: "u3", State: "*", Right: 2}
	peers[a].MustOK(revoke)
	step("revoke", rec(eventlog.KindPerm, a, revoke))
	peers[a].MustOK(wire.Retract{Path: "/x"})
	step("retract", rec(eventlog.KindRetract, a, wire.Retract{Path: "/x"}))

	for k := eventlog.KindRegister; k <= eventlog.KindLease; k++ {
		if !seen[k] {
			t.Errorf("no step covers record kind %d", k)
		}
	}
	if got := fresh.apply(eventlog.Record{Kind: eventlog.KindLease + 1}); got == nil {
		t.Error("apply accepted a kind past the last one: the walk above misses a new kind")
	}
}

// Event and lease records commute with every record in the fold: apply of
// either only raises the floor to the max, so a log whose event and lease
// records are moved to any positions — which is all an event record that
// lands late among the other goroutines' records amounts to — folds to the
// same state. The records of one object and of one instance are the rest of
// the ordering rule: a history record (Hist, Undo, Redo), a Declare, a Couple
// or a Decouple commutes with every record that names none of its objects and
// is not a Register, Resume or Disconnect of an instance owning one of them.
// So each of those moves anywhere between the nearest such barriers around
// it: the Couples, Decouples and Declares of different groups move freely
// past each other (see barrier for the one exception). The logs are the
// golden script, the golden script with an object that has history
// retracted, the golden script with an instance that leaves, resumes and
// declares again, and one recorded from the crash-recovery script's session.
// The check can tell records that do not commute apart: moving a record past
// a barrier of each kind changes the fold.
func TestEventRecordsCommute(t *testing.T) {
	// The golden scripts predate leases; each gets one, with a ceiling below
	// their last event IDs, so the floor still depends on the event records.
	lease := eventlog.Record{Kind: eventlog.KindLease, Env: wire.Envelope{Msg: wire.Exec{EventID: 4}}}
	instance := func(kind eventlog.Kind) func(m, r eventlog.Record, owners map[string]couple.InstanceID) bool {
		return func(m, r eventlog.Record, owners map[string]couple.InstanceID) bool {
			return r.Kind == kind && (barrier(m, r, owners) || barrier(r, m, owners))
		}
	}
	// The crossings each log must tell from its own order: a record of kind
	// moved just past the first later barrier it has of the other kind.
	type crossing struct {
		kind    eventlog.Kind
		barrier func(m, r eventlog.Record, owners map[string]couple.InstanceID) bool
	}
	sameLink := func(m, r eventlog.Record, _ map[string]couple.InstanceID) bool {
		a, b := objectsOf(m), objectsOf(r)
		return r.Kind == eventlog.KindDecouple && len(a) == 2 && len(b) == 2 &&
			(a[0] == b[0] && a[1] == b[1] || a[0] == b[1] && a[1] == b[0])
	}
	for _, tc := range []struct {
		name      string
		recs      []eventlog.Record
		crossings []crossing
	}{
		{"golden", append(goldenRecords(), lease), []crossing{
			{eventlog.KindRegister, instance(eventlog.KindDeclare)},
			{eventlog.KindCouple, instance(eventlog.KindDisconnect)},
			{eventlog.KindDeclare, instance(eventlog.KindRetract)},
		}},
		{"golden retracted", append(goldenRetracted(), lease), []crossing{
			{eventlog.KindHist, instance(eventlog.KindRetract)},
		}},
		{"golden resumed", append(goldenResumed(), lease), []crossing{
			{eventlog.KindResume, instance(eventlog.KindDeclare)},
		}},
		{"crash script", recordedCrashScript(t), []crossing{
			{eventlog.KindCouple, sameLink},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			events, leases, movers := 0, 0, map[eventlog.Kind]int{}
			for _, rec := range tc.recs {
				switch rec.Kind {
				case eventlog.KindEvent:
					events++
				case eventlog.KindLease:
					leases++
				}
				if _, ok := movable(rec); ok {
					movers[rec.Kind]++
				}
			}
			if events == 0 || leases == 0 || len(movers) < 3 {
				t.Fatalf("the log holds %d event and %d lease records and movers of kinds %v", events, leases, movers)
			}
			want := foldDigest(tc.recs)
			moved := func(seed uint64) bool {
				if got := foldDigest(moveRecords(tc.recs, seed)); got != want {
					t.Logf("seed %d folds to\n%s\nwant\n%s", seed, got, want)
					return false
				}
				return true
			}
			if err := quick.Check(moved, &quick.Config{MaxCount: 200}); err != nil {
				t.Fatal(err)
			}
			for _, c := range tc.crossings {
				if foldDigest(movePast(t, tc.recs, c.kind, c.barrier)) == want {
					t.Errorf("moving a record of kind %d past its barrier folds to the same state: the digest cannot tell an order that matters", c.kind)
				}
			}
		})
	}
}

// goldenRetracted is the golden script with a copy onto app-1's /x and then
// its retraction, which forgets the history the copy backed up; a permission
// rule and an event follow, so there is somewhere past the Retract to go.
func goldenRetracted() []eventlog.Record {
	x := couple.ObjectRef{Instance: "app-1", Path: "/x"}
	backup := widget.TreeState{Class: "textfield", Name: "x", Attrs: attr.Set{widget.AttrValue: attr.String("gone")}}
	return append(goldenRecords(),
		eventlog.Record{Kind: eventlog.KindHist, Origin: "app-3", Env: wire.Envelope{Msg: wire.CopyTo{To: x, State: backup}}},
		eventlog.Record{Kind: eventlog.KindRetract, Origin: "app-1", Env: wire.Envelope{Msg: wire.Retract{Path: "/x"}}},
		eventlog.Record{Kind: eventlog.KindPerm, Origin: "app-1", Env: wire.Envelope{Msg: wire.GrantPerm{User: "u1", State: "*", Right: 1}}},
		eventlog.Record{Kind: eventlog.KindEvent, Origin: "app-3", Env: wire.Envelope{Msg: wire.Exec{EventID: 11, TargetPath: "/x", Name: "changed"}}},
	)
}

// goldenResumed is the golden script with app-1 leaving, resuming with its
// token — as a fresh registration, since it left — declaring an object and
// coupling it into app-3's group; a permission rule follows, so there is
// somewhere past the Couple to go.
func goldenResumed() []eventlog.Record {
	w := couple.ObjectRef{Instance: "app-1", Path: "/w"}
	rec := func(kind eventlog.Kind, origin string, msg wire.Message) eventlog.Record {
		return eventlog.Record{Kind: kind, Origin: origin, Env: wire.Envelope{Msg: msg}}
	}
	return append(goldenRecords(),
		rec(eventlog.KindDisconnect, "app-1", wire.Err{Text: "connection closed"}),
		rec(eventlog.KindResume, "", wire.Resume{Token: "tok-a"}),
		rec(eventlog.KindDeclare, "app-1", wire.Declare{Path: "/w", Class: "textfield"}),
		rec(eventlog.KindCouple, "app-1", wire.Couple{From: w, To: couple.ObjectRef{Instance: "app-3", Path: "/x"}}),
		rec(eventlog.KindPerm, "app-3", wire.GrantPerm{User: "u1", State: "*", Right: 1}),
	)
}

// foldDigest folds recs into a fresh state, skipping what apply refuses as
// restore does.
func foldDigest(recs []eventlog.Record) string {
	st := newState(0, nil)
	for _, rec := range recs {
		_ = st.apply(rec)
	}
	return st.digest()
}

// moveRecords returns recs with every movable record reinserted between the
// nearest records around it that are its barriers, and then every KindEvent
// and KindLease record reinserted anywhere, at positions drawn from seed.
// The other records keep their order.
func moveRecords(recs []eventlog.Record, seed uint64) []eventlog.Record {
	rng := rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
	owners := tokenOwners(recs)
	out := slices.Clone(recs)
	// Walk the movable records in their original order: each is found by its
	// original index, since earlier moves may have shifted it.
	at := make([]int, len(out)) // at[i] is the original index of out[i]
	for i := range at {
		at[i] = i
	}
	for orig, rec := range recs {
		if _, ok := movable(rec); !ok {
			continue
		}
		p := slices.Index(at, orig)
		out, at = slices.Delete(out, p, p+1), slices.Delete(at, p, p+1)
		lo, hi := p, p
		for lo > 0 && !barrier(rec, out[lo-1], owners) {
			lo--
		}
		for hi < len(out) && !barrier(rec, out[hi], owners) {
			hi++
		}
		q := lo + rng.IntN(hi-lo+1)
		out, at = slices.Insert(out, q, rec), slices.Insert(at, q, orig)
	}
	var rest, events []eventlog.Record
	for _, rec := range out {
		if rec.Kind == eventlog.KindEvent || rec.Kind == eventlog.KindLease {
			events = append(events, rec)
		} else {
			rest = append(rest, rec)
		}
	}
	for _, ev := range events {
		rest = slices.Insert(rest, rng.IntN(len(rest)+1), ev)
	}
	return rest
}

// movable returns the objects of a record moveRecords moves: a history
// record's object, a Declare's, or a Couple's or Decouple's two endpoints.
func movable(rec eventlog.Record) ([]couple.ObjectRef, bool) {
	switch rec.Kind {
	case eventlog.KindHist, eventlog.KindUndo, eventlog.KindRedo,
		eventlog.KindDeclare, eventlog.KindCouple, eventlog.KindDecouple:
		return objectsOf(rec), true
	}
	return nil, false
}

// objectsOf returns the objects rec names: a movable record's, or a
// Retract's.
func objectsOf(rec eventlog.Record) []couple.ObjectRef {
	inst := couple.InstanceID(rec.Origin)
	switch m := rec.Env.Msg.(type) {
	case wire.CopyTo:
		return []couple.ObjectRef{m.To}
	case wire.Declare:
		return []couple.ObjectRef{{Instance: inst, Path: m.Path}}
	case wire.Retract:
		return []couple.ObjectRef{{Instance: inst, Path: m.Path}}
	case wire.Couple:
		return []couple.ObjectRef{m.From, m.To}
	case wire.Decouple:
		return []couple.ObjectRef{m.From, m.To}
	}
	return nil
}

// barrier reports whether the movable record rec may not move past other:
// other is a Register, Resume or Disconnect of an instance owning one of
// rec's objects, or other names one of rec's objects — the records of one
// object, and of one group as far as a Couple or Decouple can tell. The
// exception is a history record and a Couple or Decouple, which commute
// whatever they name: one is kept in the historical-states database, the
// other in the couple graph. owners maps a session token to the instance
// that minted it, for the Resume records logged without an origin.
func barrier(rec, other eventlog.Record, owners map[string]couple.InstanceID) bool {
	refs, _ := movable(rec)
	switch other.Kind {
	case eventlog.KindRegister, eventlog.KindResume, eventlog.KindDisconnect:
		inst := couple.InstanceID(other.Origin)
		if m, ok := other.Env.Msg.(wire.Resume); ok && inst == "" {
			inst = owners[m.Token]
		}
		return slices.ContainsFunc(refs, func(ref couple.ObjectRef) bool { return ref.Instance == inst })
	}
	if isHistory(rec.Kind) && isLink(other.Kind) || isLink(rec.Kind) && isHistory(other.Kind) {
		return false
	}
	return slices.ContainsFunc(objectsOf(other), func(ref couple.ObjectRef) bool { return slices.Contains(refs, ref) })
}

func isHistory(k eventlog.Kind) bool {
	return k == eventlog.KindHist || k == eventlog.KindUndo || k == eventlog.KindRedo
}

func isLink(k eventlog.Kind) bool { return k == eventlog.KindCouple || k == eventlog.KindDecouple }

// tokenOwners maps every session token recs mint to the instance minting it.
func tokenOwners(recs []eventlog.Record) map[string]couple.InstanceID {
	owners := make(map[string]couple.InstanceID)
	for _, rec := range recs {
		if rec.Kind == eventlog.KindToken {
			owners[rec.Env.Msg.(wire.SessionToken).Token] = couple.InstanceID(rec.Origin)
		}
	}
	return owners
}

// movePast returns recs with the first record of kind that has a later
// record is(m, r) picks moved to just past the first such record.
func movePast(t *testing.T, recs []eventlog.Record, kind eventlog.Kind,
	is func(m, r eventlog.Record, owners map[string]couple.InstanceID) bool) []eventlog.Record {
	t.Helper()
	owners := tokenOwners(recs)
	for m, rec := range recs {
		if rec.Kind != kind {
			continue
		}
		for r := m + 1; r < len(recs); r++ {
			if is(rec, recs[r], owners) {
				out := slices.Delete(slices.Clone(recs), m, m+1)
				return slices.Insert(out, r, rec) // r is now just past the barrier
			}
		}
	}
	t.Fatalf("the log holds no record of kind %d with a later barrier", kind)
	return nil
}

// recordedCrashScript runs the crash-recovery script against a logged server
// and returns the records its log holds.
func recordedCrashScript(t *testing.T) []eventlog.Record {
	t.Helper()
	dir := t.TempDir()
	elog, err := eventlog.Open(eventlog.Options{Dir: dir, Sync: eventlog.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	rig := newCrashScript(t, Options{EventLog: elog})
	rig.run(crashOps())
	rig.shutdown()
	if err := elog.Close(); err != nil {
		t.Fatal(err)
	}
	var recs []eventlog.Record
	if err := eventlog.ReplayDir(dir, func(rec eventlog.Record) error {
		recs = append(recs, rec)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return recs
}
