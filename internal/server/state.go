// The replayable state. The paper's server is its databases — "registration
// records, access permissions, historical UI states and the lock table"
// (§2.1) — and state holds the ones the durable log rebuilds: the registry,
// the couple graph, the permission table, the resumable sessions, the route
// overrides and, per shard, the event-ID sequence and the historical-states
// database. It is the fold of the log, written once: the live server, its
// start-up, the snapshotter's offline replica and the tests all go through
// the same four entry points —
//
//	apply     one logged transition; the only place a replayed kind mutates
//	encode    the version-2 snapshot payload of the state as it stands
//	decodeState  that payload back into a fresh state, or an error
//	restore   newest decodable snapshot, then the log's tail
//
// — so a snapshot at offset N is fold(records[0:N)) by construction, and
// snapshot-then-tail equals full replay. A live handler whose transition is
// exactly the logged one calls Server.commit (apply, then append); one that
// needs the mutation's result or the state before it for its notices calls
// the method apply itself calls (retract, decouple, dropInstance, colocate,
// backup, walk) and appends the record afterwards.
//
// Deliberately outside: the lock table and the pending-event wait sets. A
// logged event was committed (its group lock granted and broadcast begun) and
// its waiters died with the crashed process — holding its lock after recovery
// would wedge the group waiting for acknowledgements no one will send. Locks
// are transient floor control; the log persists the decisions, not the floor.
// Connections, outboxes, the transient forwarding of migrated events and
// the metrics stay with the Server around it: nothing here starts a
// goroutine, touches a socket or registers a metric.
//
// Ownership is the caller's: on a live server the global parts are touched
// only on the global loop and a shard's part only on that shard's loop; at
// start-up and in the snapshotter's replica nothing else runs.
package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"log/slog"
	"sort"
	"sync"
	"time"

	"cosoft/internal/couple"
	"cosoft/internal/eventlog"
	"cosoft/internal/hist"
	"cosoft/internal/obs"
	"cosoft/internal/perm"
	"cosoft/internal/registry"
	"cosoft/internal/widget"
	"cosoft/internal/wire"
)

type state struct {
	// log is the server's logger; here it receives what restore passes over:
	// undecodable snapshots and records apply refused.
	log       *slog.Logger
	histDepth int

	reg   *registry.Store
	graph *couple.Graph
	perms *perm.Table
	// sessions holds the resumable sessions by token; sessionTok maps an
	// instance to its one outstanding token, so re-minting replaces (and
	// Deregister drops) the previous token instead of accreting entries
	// without bound.
	sessions   map[string]sessionRec
	sessionTok map[couple.InstanceID]string
	routes     *routes
	shards     []*shardState
}

// sessionRec is the durable half of a registration: enough to re-register
// a reconnecting client under its original instance ID.
type sessionRec struct {
	id      couple.InstanceID
	appType string
	host    string
	user    string
}

// shardState is one shard's replayable part.
type shardState struct {
	// seq counts events born on the shard; the wire-visible event ID is
	// (seq-1)*nshards + idx + 1, so IDs are unique across shards and reduce
	// to the plain counter 1,2,3,… with one shard.
	seq     uint64
	history *hist.DB
}

// routes places refs on shards. It is read from connection read loops, so it
// carries its own lock.
type routes struct {
	mu sync.RWMutex
	n  int
	// obj holds explicit overrides created by migrations. Refs without one
	// route by hash, so the map stays small: only groups that ever crossed a
	// shard boundary are listed. Overrides persist past decouple and are not
	// derivable from the graph.
	obj map[couple.ObjectRef]int
}

func newState(nshards, histDepth int, log *slog.Logger) *state {
	st := &state{
		log:        obs.LoggerOr(log),
		histDepth:  histDepth,
		reg:        registry.NewStore(),
		graph:      couple.NewGraph(),
		perms:      perm.NewTable(),
		sessions:   make(map[string]sessionRec),
		sessionTok: make(map[couple.InstanceID]string),
		routes:     &routes{n: nshards, obj: make(map[couple.ObjectRef]int)},
	}
	for i := 0; i < nshards; i++ {
		st.shards = append(st.shards, &shardState{history: hist.NewDB(histDepth)})
	}
	return st
}

// hashRef is the default ref→shard placement (FNV-1a over the global object
// name). All members of a group must agree on a shard; migrations record
// overrides when coupling breaks the hash placement.
func hashRef(ref couple.ObjectRef) uint32 {
	h := fnv.New32a()
	h.Write([]byte(ref.Instance))
	h.Write([]byte{0})
	h.Write([]byte(ref.Path))
	return h.Sum32()
}

func (r *routes) shard(ref couple.ObjectRef) int {
	r.mu.RLock()
	i, ok := r.obj[ref]
	r.mu.RUnlock()
	if ok {
		return i
	}
	return int(hashRef(ref) % uint32(r.n))
}

func (r *routes) set(refs []couple.ObjectRef, idx int) {
	r.mu.Lock()
	for _, ref := range refs {
		if int(hashRef(ref)%uint32(r.n)) == idx {
			delete(r.obj, ref) // override would restate the hash
		} else {
			r.obj[ref] = idx
		}
	}
	r.mu.Unlock()
}

func (r *routes) dropRef(ref couple.ObjectRef) {
	r.mu.Lock()
	delete(r.obj, ref)
	r.mu.Unlock()
}

func (r *routes) dropInstance(id couple.InstanceID) {
	r.mu.Lock()
	for ref := range r.obj {
		if ref.Instance == id {
			delete(r.obj, ref)
		}
	}
	r.mu.Unlock()
}

// overrides lists the explicit routes, sorted by ref.
func (r *routes) overrides() []couple.ObjectRef {
	r.mu.RLock()
	refs := make([]couple.ObjectRef, 0, len(r.obj))
	for ref := range r.obj {
		refs = append(refs, ref)
	}
	r.mu.RUnlock()
	sort.Slice(refs, func(i, j int) bool { return refs[i].Less(refs[j]) })
	return refs
}

// shardFor returns the part of the shard owning ref's coupling group.
func (st *state) shardFor(ref couple.ObjectRef) *shardState {
	return st.shards[st.routes.shard(ref)]
}

// payload asserts the message type a record kind is logged with.
func payload[M wire.Message](rec eventlog.Record) (M, error) {
	m, ok := rec.Env.Msg.(M)
	if !ok {
		return m, fmt.Errorf("server: record of kind %d carries %T, not %T", rec.Kind, rec.Env.Msg, m)
	}
	return m, nil
}

// apply performs one logged transition. It is everything a transition does
// to the databases and nothing connection-shaped: no notifications,
// broadcasts or replies. An error means the record was refused: restore
// skips such a record, a live commit answers the client with it.
func (st *state) apply(rec eventlog.Record) error {
	origin := couple.InstanceID(rec.Origin)
	switch rec.Kind {
	case eventlog.KindRegister:
		m, err := payload[wire.Register](rec)
		if err != nil {
			return err
		}
		// Advance the ID allocator past every recovered ID so post-restart
		// registrations can never collide with pre-crash instances.
		st.reg.RestoreSeq(origin)
		return st.reg.Register(registry.Record{ID: origin, AppType: m.AppType, Host: m.Host, User: m.User})
	case eventlog.KindDisconnect:
		st.dropInstance(origin)
		for _, sh := range st.shards {
			sh.history.ForgetInstance(origin)
		}
	case eventlog.KindToken:
		m, err := payload[wire.SessionToken](rec)
		if err != nil {
			return err
		}
		r, err := st.reg.Lookup(origin)
		if err != nil {
			return err
		}
		// One outstanding token per instance: re-minting replaces the
		// previous token, so sessions is bounded by the number of registered
		// instances and a superseded token can never resume the session.
		if old, ok := st.sessionTok[origin]; ok {
			delete(st.sessions, old)
		}
		st.sessionTok[origin] = m.Token
		st.sessions[m.Token] = sessionRec{id: r.ID, appType: r.AppType, host: r.Host, user: r.User}
	case eventlog.KindTokenDrop:
		if tok, ok := st.sessionTok[origin]; ok {
			delete(st.sessions, tok)
			delete(st.sessionTok, origin)
		}
	case eventlog.KindResume:
		m, err := payload[wire.Resume](rec)
		if err != nil {
			return err
		}
		sess, ok := st.sessions[m.Token]
		if !ok {
			return errors.New("server: unknown session token")
		}
		// Tokens are single-use: consumed here, a stale copy cannot later
		// hijack the resumed session. The client re-mints after resuming.
		delete(st.sessions, m.Token)
		if st.sessionTok[sess.id] == m.Token {
			delete(st.sessionTok, sess.id)
		}
		// The registry may still hold the instance's record: after a server
		// crash and restore, the pre-crash incarnation was never seen
		// disconnecting, so its record — declared objects and couple links
		// included — survives as the session's ghost. Resume adopts it rather
		// than re-registering, which is exactly what makes a kill -9 restart
		// invisible to the reconnecting client.
		if _, err := st.reg.Lookup(sess.id); err != nil {
			return st.reg.Register(registry.Record{ID: sess.id, AppType: sess.appType, Host: sess.host, User: sess.user})
		}
	case eventlog.KindDeclare:
		m, err := payload[wire.Declare](rec)
		if err != nil {
			return err
		}
		return st.reg.DeclareObject(origin, m.Path, m.Class)
	case eventlog.KindRetract:
		m, err := payload[wire.Retract](rec)
		if err != nil {
			return err
		}
		ref := couple.ObjectRef{Instance: origin, Path: m.Path}
		sh := st.shardFor(ref) // before retract drops the route
		st.retract(ref)
		sh.history.Forget(ref)
	case eventlog.KindCouple:
		m, err := payload[wire.Couple](rec)
		if err != nil {
			return err
		}
		// Nothing else runs during a fold, so the group state moves
		// synchronously where a live server hands it from loop to loop
		// (migrateGroup); locks and pending events do not exist here.
		if from, to, refs := st.colocate(st.graph.Group(m.From), st.graph.Group(m.To)); refs != nil {
			st.routes.set(refs, to)
			refset := make(map[couple.ObjectRef]bool, len(refs))
			for _, ref := range refs {
				refset[ref] = true
			}
			st.shards[to].history.Install(st.shards[from].history.Extract(refset))
		}
		return st.graph.AddLink(couple.Link{From: m.From, To: m.To, Creator: origin})
	case eventlog.KindDecouple:
		m, err := payload[wire.Decouple](rec)
		if err != nil {
			return err
		}
		_, err = st.decouple(m.From, m.To)
		return err
	case eventlog.KindEvent:
		m, err := payload[wire.Exec](rec)
		if err != nil {
			return err
		}
		// Restore the birth shard's sequence so later events get IDs strictly
		// greater than every logged one. The event itself was fully resolved
		// or died with its waiters — only the ID allocation survives it.
		n := uint64(len(st.shards))
		sh := st.shards[(m.EventID-1)%n]
		if q := (m.EventID-1)/n + 1; q > sh.seq {
			sh.seq = q
		}
	case eventlog.KindHist:
		// The logged CopyTo carries the overwritten state: the backup itself.
		m, err := payload[wire.CopyTo](rec)
		if err != nil {
			return err
		}
		st.shardFor(m.To).backup(m.To, m.State, origin)
	case eventlog.KindUndo, eventlog.KindRedo:
		// The logged CopyTo carries the pre-walk current state — the value the
		// walk pushes on the opposite stack — so replaying the walk reproduces
		// both stacks.
		m, err := payload[wire.CopyTo](rec)
		if err != nil {
			return err
		}
		_, err = st.shardFor(m.To).walk(rec.Kind == eventlog.KindUndo, m.To, m.State)
		return err
	case eventlog.KindPerm:
		switch m := rec.Env.Msg.(type) {
		case wire.GrantPerm:
			st.perms.Grant(perm.Rule{User: m.User, State: m.State, Right: perm.Right(m.Right)})
		case wire.RevokePerm:
			st.perms.Revoke(perm.Rule{User: m.User, State: m.State, Right: perm.Right(m.Right)})
		default:
			return fmt.Errorf("server: record of kind %d carries %T, not GrantPerm or RevokePerm", rec.Kind, m)
		}
	default:
		return fmt.Errorf("server: unknown record kind %d", rec.Kind)
	}
	return nil
}

// dropInstance is the global half of a disconnect: the instance's couple
// links (the automatic decoupling of §3.2), route overrides and registration
// record go. Each shard's half is its history's ForgetInstance. Session
// tokens deliberately survive: a disconnected instance may still resume.
func (st *state) dropInstance(id couple.InstanceID) {
	st.graph.RemoveInstance(id)
	st.routes.dropInstance(id)
	st.reg.Deregister(id)
}

// retract is the global half of a retraction, returning the links that went
// with the object. The shard's half is its history's Forget, on the shard
// that owned ref before this dropped the route.
func (st *state) retract(ref couple.ObjectRef) []couple.Link {
	removed := st.graph.RemoveObject(ref)
	st.reg.RetractObject(ref.Instance, ref.Path)
	st.routes.dropRef(ref)
	return removed
}

// decouple removes the link between from and to, whichever way it is stored,
// and returns it in its stored direction: a notice or a log record naming
// the other one would leave the members' replicated coupling info — or a
// replay — with a stale entry.
func (st *state) decouple(from, to couple.ObjectRef) (couple.Link, error) {
	switch {
	case st.graph.RemoveLink(from, to):
		return couple.Link{From: from, To: to}, nil
	case st.graph.RemoveLink(to, from):
		return couple.Link{From: to, To: from}, nil
	}
	return couple.Link{}, fmt.Errorf("server: no link between %s and %s", stateID(from), stateID(to))
}

// colocate decides what a new couple link between the groups gFrom and gTo
// must move first: every member of one coupling group lives on one shard, so
// when the two sit on different shards the smaller group moves to the larger
// one's (ties keep the from side in place). refs is nil when nothing moves.
func (st *state) colocate(gFrom, gTo []couple.ObjectRef) (from, to int, refs []couple.ObjectRef) {
	shFrom, shTo := st.routes.shard(gFrom[0]), st.routes.shard(gTo[0])
	switch {
	case shFrom == shTo:
		return shFrom, shTo, nil
	case len(gTo) > len(gFrom):
		return shFrom, shTo, gFrom
	}
	return shTo, shFrom, gTo
}

// backup records the state a copy is about to overwrite at ref. A live
// server calls it (and walk) on the shard it queued the request on, not
// through apply: a group migration may have flipped ref's route since, and
// everything queued ahead of the migration's extraction belongs to the shard
// the group is leaving.
func (sh *shardState) backup(ref couple.ObjectRef, old widget.TreeState, origin couple.InstanceID) {
	sh.history.Record(hist.Snapshot{Ref: ref, State: old, Origin: origin})
}

// walk moves ref one step down (undo) or back up its history, pushing
// current on the opposite stack, and returns the state to restore.
func (sh *shardState) walk(undo bool, ref couple.ObjectRef, current widget.TreeState) (hist.Snapshot, error) {
	if undo {
		return sh.history.Undo(ref, current)
	}
	return sh.history.Redo(ref, current)
}

// restore rebuilds the state from a log directory: the newest snapshot that
// decodes (falling back to older ones, finally to offset zero), then every
// record behind it. It is the one place that knows how persisted state comes
// back, and it only reads. A record apply refuses is skipped with a warning;
// the first torn or damaged record ends the tail (see
// eventlog.ReplayDirFrom). It returns the offset the state now stands at and
// the records it replayed, each counted in replayed; err reports a directory
// that could not be read or a record that could not be decoded, and leaves
// the state at off.
func (st *state) restore(dir string, replayed *obs.Counter) (off int64, n int, err error) {
	snaps, err := eventlog.Snapshots(dir)
	if err != nil {
		return 0, 0, err
	}
	for _, ref := range snaps {
		dec, derr := decodeState(ref.Payload, len(st.shards), st.histDepth)
		if derr != nil {
			st.log.Warn("snapshot undecodable; falling back", "offset", ref.Offset, "err", derr)
			continue
		}
		dec.log = st.log
		*st = *dec
		off = ref.Offset
		break
	}
	off, err = eventlog.ReplayDirFrom(dir, off, func(rec eventlog.Record) error {
		if err := st.apply(rec); err != nil {
			st.log.Warn("event log record skipped", "kind", int(rec.Kind), "inst", rec.Origin, "why", err)
		}
		replayed.Inc()
		n++
		return nil
	})
	return off, n, err
}

// stateVersion versions the snapshot payload layout.
const stateVersion = 2

// encode serializes the state into a snapshot payload (opaque bytes to the
// eventlog). In order: the format version, the shard count, the registry
// ID-allocator sequence, the per-shard event-ID sequences, the registration
// records with their declared objects, the couple links, the permission rules
// (insertion order — rule order is semantic), the resumable sessions, the
// route overrides, and the per-object undo/redo history stacks; every
// unordered collection goes out sorted, so equal states encode to equal
// bytes. The caller must own the state quiescently — it is only ever called
// on the snapshotter's replica, never the live server's.
func (st *state) encode() []byte {
	buf := []byte{stateVersion}
	buf = binary.AppendUvarint(buf, uint64(len(st.shards)))
	buf = binary.AppendUvarint(buf, st.reg.Seq())
	for _, sh := range st.shards {
		buf = binary.AppendUvarint(buf, sh.seq)
	}

	ids := st.reg.Instances() // sorted
	buf = binary.AppendUvarint(buf, uint64(len(ids)))
	for _, id := range ids {
		r, _ := st.reg.Lookup(id)
		buf = appendSnapStr(buf, string(r.ID))
		buf = appendSnapStr(buf, r.AppType)
		buf = appendSnapStr(buf, r.Host)
		buf = appendSnapStr(buf, r.User)
		paths := make([]string, 0, len(r.Objects))
		for p := range r.Objects {
			paths = append(paths, p)
		}
		sort.Strings(paths)
		buf = binary.AppendUvarint(buf, uint64(len(paths)))
		for _, p := range paths {
			buf = appendSnapStr(buf, p)
			buf = appendSnapStr(buf, r.Objects[p])
		}
	}

	links := st.graph.Links() // sorted
	buf = binary.AppendUvarint(buf, uint64(len(links)))
	for _, l := range links {
		buf = appendSnapRef(buf, l.From)
		buf = appendSnapRef(buf, l.To)
		buf = appendSnapStr(buf, string(l.Creator))
	}

	rules := st.perms.Rules()
	buf = binary.AppendUvarint(buf, uint64(len(rules)))
	for _, r := range rules {
		buf = appendSnapStr(buf, r.User)
		buf = appendSnapStr(buf, r.State)
		buf = binary.AppendUvarint(buf, uint64(r.Right))
	}

	toks := make([]string, 0, len(st.sessions))
	for tok := range st.sessions {
		toks = append(toks, tok)
	}
	sort.Strings(toks)
	buf = binary.AppendUvarint(buf, uint64(len(toks)))
	for _, tok := range toks {
		rec := st.sessions[tok]
		buf = appendSnapStr(buf, tok)
		buf = appendSnapStr(buf, string(rec.id))
		buf = appendSnapStr(buf, rec.appType)
		buf = appendSnapStr(buf, rec.host)
		buf = appendSnapStr(buf, rec.user)
	}

	routed := st.routes.overrides()
	buf = binary.AppendUvarint(buf, uint64(len(routed)))
	for _, ref := range routed {
		buf = appendSnapRef(buf, ref)
		buf = binary.AppendUvarint(buf, uint64(st.routes.shard(ref)))
	}

	var hrefs []couple.ObjectRef
	for _, sh := range st.shards {
		hrefs = append(hrefs, sh.history.Refs()...)
	}
	sort.Slice(hrefs, func(i, j int) bool { return hrefs[i].Less(hrefs[j]) })
	buf = binary.AppendUvarint(buf, uint64(len(hrefs)))
	for _, ref := range hrefs {
		undo, redo := st.shardFor(ref).history.Stacks(ref)
		buf = appendSnapRef(buf, ref)
		buf = appendSnapStack(buf, undo)
		buf = appendSnapStack(buf, redo)
	}
	return buf
}

func appendSnapStr(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendSnapRef(b []byte, ref couple.ObjectRef) []byte {
	b = appendSnapStr(b, string(ref.Instance))
	return appendSnapStr(b, ref.Path)
}

func appendSnapStack(b []byte, snaps []hist.Snapshot) []byte {
	b = binary.AppendUvarint(b, uint64(len(snaps)))
	for _, sn := range snaps {
		b = appendSnapStr(b, string(sn.Origin))
		at := int64(0)
		if !sn.At.IsZero() {
			at = sn.At.UnixNano()
		}
		b = binary.AppendVarint(b, at)
		ts := widget.AppendTreeState(nil, sn.State)
		b = binary.AppendUvarint(b, uint64(len(ts)))
		b = append(b, ts...)
	}
	return b
}

// stateReader decodes a snapshot payload with sticky error handling.
type stateReader struct {
	b   []byte
	err error
}

func (r *stateReader) fail(why string) {
	if r.err == nil {
		r.err = errors.New("server: snapshot: " + why)
	}
}

func (r *stateReader) uv() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail("bad uvarint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *stateReader) vi() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b)
	if n <= 0 {
		r.fail("bad varint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

// bytes reads one length-prefixed field, aliasing the payload.
func (r *stateReader) bytes() []byte {
	n := r.uv()
	if r.err != nil {
		return nil
	}
	if uint64(len(r.b)) < n {
		r.fail("field overruns payload")
		return nil
	}
	p := r.b[:n]
	r.b = r.b[n:]
	return p
}

func (r *stateReader) str() string { return string(r.bytes()) }

func (r *stateReader) ref() couple.ObjectRef {
	inst := r.str()
	path := r.str()
	return couple.ObjectRef{Instance: couple.InstanceID(inst), Path: path}
}

// count bounds a length prefix by the bytes actually remaining — every
// element takes at least one — so a corrupt length can't make decode
// allocate past the payload's own size.
func (r *stateReader) count() int {
	n := r.uv()
	if r.err == nil && n > uint64(len(r.b)) {
		r.fail("count overruns payload")
		return 0
	}
	return int(n)
}

// refuse fails the decode when a database rejects what the payload holds.
func (r *stateReader) refuse(what string, err error) {
	if err != nil {
		r.fail(what + ": " + err.Error())
	}
}

func (r *stateReader) stack(ref couple.ObjectRef) []hist.Snapshot {
	n := r.count()
	if r.err != nil || n == 0 {
		return nil
	}
	snaps := make([]hist.Snapshot, 0, n)
	for i := 0; i < n && r.err == nil; i++ {
		origin := r.str()
		at := r.vi()
		st, rest, err := widget.DecodeTreeState(r.bytes())
		if err != nil {
			r.fail("tree state: " + err.Error())
			return nil
		}
		if len(rest) != 0 {
			r.fail("tree state has trailing bytes")
			return nil
		}
		sn := hist.Snapshot{Ref: ref, State: st, Origin: couple.InstanceID(origin)}
		if at != 0 {
			sn.At = time.Unix(0, at)
		}
		snaps = append(snaps, sn)
	}
	return snaps
}

// decodeState parses a snapshot payload straight into a fresh state of
// nshards shards. It is all-or-nothing: a malformed payload, an unknown
// version (version 1 carried one more section, per-object late-join event
// tails) or anything a database refuses rejects the whole payload, and the
// caller falls back to an older snapshot or to full replay. When the payload
// was written under a different shard count, per-shard sequences are re-based
// conservatively past the largest possible allocated event ID and every
// multi-member group is re-colocated, so event IDs stay unique and groups
// stay single-shard under any -shards change across a restart.
func decodeState(payload []byte, nshards, histDepth int) (*state, error) {
	if len(payload) < 1 {
		return nil, errors.New("server: snapshot: empty payload")
	}
	if payload[0] != stateVersion {
		return nil, fmt.Errorf("server: snapshot: unknown state version %d", payload[0])
	}
	r := &stateReader{b: payload[1:]}
	st := newState(nshards, histDepth, nil)
	stored := r.count()
	if r.err == nil && stored < 1 {
		r.fail("implausible shard count")
	}
	st.reg.SetSeq(r.uv())
	if r.err != nil {
		return nil, r.err
	}
	seqs := make([]uint64, stored)
	for i := range seqs {
		seqs[i] = r.uv()
	}
	for i, n := 0, r.count(); i < n && r.err == nil; i++ {
		in := registry.Record{ID: couple.InstanceID(r.str()), AppType: r.str(), Host: r.str(), User: r.str()}
		if r.err == nil {
			r.refuse("registration", st.reg.Register(in))
			st.reg.RestoreSeq(in.ID)
		}
		for j, m := 0, r.count(); j < m && r.err == nil; j++ {
			path, class := r.str(), r.str()
			if r.err == nil {
				r.refuse("declaration", st.reg.DeclareObject(in.ID, path, class))
			}
		}
	}
	for i, n := 0, r.count(); i < n && r.err == nil; i++ {
		l := couple.Link{From: r.ref(), To: r.ref(), Creator: couple.InstanceID(r.str())}
		if r.err == nil {
			r.refuse("couple link", st.graph.AddLink(l))
		}
	}
	for i, n := 0, r.count(); i < n && r.err == nil; i++ {
		rule := perm.Rule{User: r.str(), State: r.str(), Right: perm.Right(r.uv())}
		if r.err == nil {
			st.perms.Grant(rule)
		}
	}
	for i, n := 0, r.count(); i < n && r.err == nil; i++ {
		tok := r.str()
		rec := sessionRec{id: couple.InstanceID(r.str()), appType: r.str(), host: r.str(), user: r.str()}
		if r.err != nil {
			break
		}
		if old, ok := st.sessionTok[rec.id]; ok {
			delete(st.sessions, old)
		}
		st.sessions[tok] = rec
		st.sessionTok[rec.id] = tok
	}
	for i, n := 0, r.count(); i < n && r.err == nil; i++ {
		ref, idx := r.ref(), r.uv()
		switch {
		case r.err != nil:
		case idx >= uint64(stored):
			r.fail("route shard out of range")
		case stored == nshards:
			st.routes.set([]couple.ObjectRef{ref}, int(idx))
		}
	}
	if stored == nshards {
		for i, sh := range st.shards {
			sh.seq = seqs[i]
		}
	} else {
		// Shard-count change across restart: stored sequences and routes are
		// meaningless here. Re-base every shard's sequence past the largest
		// event ID the stored sequences could have allocated, and re-colocate
		// each coupling group on its first member's hash shard.
		var maxID uint64
		for i, q := range seqs {
			if q == 0 {
				continue
			}
			if id := (q-1)*uint64(stored) + uint64(i) + 1; id > maxID {
				maxID = id
			}
		}
		base := (maxID + uint64(nshards) - 1) / uint64(nshards)
		for _, sh := range st.shards {
			sh.seq = base
		}
		for _, group := range st.graph.Groups() {
			refs := append([]couple.ObjectRef(nil), group...)
			sort.Slice(refs, func(i, j int) bool { return refs[i].Less(refs[j]) })
			st.routes.set(refs, int(hashRef(refs[0])%uint32(nshards)))
		}
	}
	// Histories place by shardFor, which consults the routes installed
	// above — so they land exactly where replay would put them.
	for i, n := 0, r.count(); i < n && r.err == nil; i++ {
		ref := r.ref()
		undo, redo := r.stack(ref), r.stack(ref)
		if r.err == nil {
			st.shardFor(ref).history.Restore(ref, undo, redo)
		}
	}
	if r.err != nil {
		return nil, r.err
	}
	if len(r.b) != 0 {
		return nil, errors.New("server: snapshot: trailing bytes")
	}
	return st, nil
}
