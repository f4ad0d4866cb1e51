// The replayable state. The paper's server is its databases — "registration
// records, access permissions, historical UI states and the lock table"
// (§2.1) — and state holds the ones the durable log rebuilds: the registry,
// the couple graph, the permission table, the resumable sessions, the
// historical-states database and the event-ID floor. It is the fold of the
// log, written once: the live server, its start-up, the snapshotter's offline
// replica and the tests all go through the same four entry points —
//
//	apply     one logged transition; the only place a replayed kind mutates
//	encode    the version-3 snapshot payload of the state as it stands
//	decodeState  that payload (or a version-2 one) back into a fresh state
//	restore   newest decodable snapshot, then the log's tail
//
// — so a snapshot at offset N is fold(records[0:N)) by construction, and
// snapshot-then-tail equals full replay. The live server reaches apply only
// through Server.commit, once the record is in the log; what a handler's
// notices need it reads from the state before that.
//
// Deliberately outside: the lock table and the pending-event wait sets. A
// logged event was committed (its group lock granted and broadcast begun) and
// its waiters died with the crashed process — holding its lock after recovery
// would wedge the group waiting for acknowledgements no one will send. Locks
// are transient floor control; the log persists the decisions, not the floor.
// The event-ID sequence is outside too: it belongs to the Server, which
// starts it at the floor. Connections,
// outboxes and the metrics stay with the Server around it: nothing here starts a goroutine, touches a socket or registers a metric.
//
// Ownership is the caller's: on a live server the state is mutated only
// under gmu; at start-up and in the snapshotter's replica nothing else
// runs.
package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"sort"
	"time"

	"cosoft/internal/attr"
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
	history    *hist.DB
	// floor is the largest event ID or lease ceiling the log holds. Only the
	// fold advances it: a live server allocates its IDs past the floor it
	// restored.
	floor uint64
}

// sessionRec is the durable half of a registration: enough to re-register
// a reconnecting client under its original instance ID.
type sessionRec struct {
	id      couple.InstanceID
	appType string
	host    string
	user    string
}

func newState(histDepth int, log *slog.Logger) *state {
	return &state{
		log:        obs.LoggerOr(log),
		histDepth:  histDepth,
		reg:        registry.NewStore(),
		graph:      couple.NewGraph(),
		perms:      perm.NewTable(),
		sessions:   make(map[string]sessionRec),
		sessionTok: make(map[couple.InstanceID]string),
		history:    hist.NewDB(histDepth),
	}
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
		// The instance's couple links (the automatic decoupling of §3.2),
		// registration record and history go. Its session token deliberately
		// survives: a disconnected instance may still resume.
		st.graph.RemoveInstance(origin)
		st.reg.Deregister(origin)
		st.history.ForgetInstance(origin)
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
		// hijack the resumed session. The next one is the reply's.
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
		st.graph.RemoveObject(ref)
		st.reg.RetractObject(origin, m.Path)
		st.history.Forget(ref)
	case eventlog.KindCouple:
		m, err := payload[wire.Couple](rec)
		if err != nil {
			return err
		}
		return st.graph.AddLink(couple.Link{From: m.From, To: m.To, Creator: origin})
	case eventlog.KindDecouple:
		m, err := payload[wire.Decouple](rec)
		if err != nil {
			return err
		}
		// The record names the link in its stored direction; either
		// direction goes, as the live handler found it.
		if !st.graph.RemoveLink(m.From, m.To) && !st.graph.RemoveLink(m.To, m.From) {
			return fmt.Errorf("server: no link between %s and %s", stateID(m.From), stateID(m.To))
		}
	case eventlog.KindEvent, eventlog.KindLease:
		m, err := payload[wire.Exec](rec)
		if err != nil {
			return err
		}
		// Raise the floor so later events get IDs strictly greater than every
		// logged or leased one. An event itself was fully resolved or died
		// with its waiters — only its ID survives it.
		st.floor = max(st.floor, m.EventID)
	case eventlog.KindHist:
		// The logged CopyTo carries the overwritten state: the backup itself.
		m, err := payload[wire.CopyTo](rec)
		if err != nil {
			return err
		}
		st.history.Record(hist.Snapshot{Ref: m.To, State: m.State, Origin: origin})
	case eventlog.KindUndo, eventlog.KindRedo:
		// The logged CopyTo carries the pre-walk current state — the value the
		// walk pushes on the opposite stack — so replaying the walk reproduces
		// both stacks.
		m, err := payload[wire.CopyTo](rec)
		if err != nil {
			return err
		}
		if rec.Kind == eventlog.KindUndo {
			_, err = st.history.Undo(m.To, m.State)
		} else {
			_, err = st.history.Redo(m.To, m.State)
		}
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

// restore rebuilds the state from a log directory: the newest snapshot that
// decodes (falling back to older ones, finally to offset zero), then every
// record behind it. It is the one place that knows how persisted state comes
// back, and it only reads. A record apply refuses is skipped with a warning;
// a torn record at the end of the log ends the tail (see
// eventlog.ReplayDirFrom). It returns the offset the state now stands at and
// the records it replayed, each counted in replayed; err reports a directory
// that could not be read, damage before its last segment, or a record that
// could not be decoded, and leaves the state at off.
func (st *state) restore(dir string, replayed *obs.Counter) (off int64, n int, err error) {
	snaps, err := eventlog.Snapshots(dir)
	if err != nil {
		return 0, 0, err
	}
	for _, ref := range snaps {
		dec, derr := decodeState(ref.Payload, st.histDepth)
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

// stateVersion versions the snapshot payload layout. decodeState also reads
// version 2, which carried the shard count, per-shard event sequences and
// route overrides.
const stateVersion = 3

// encode serializes the state into a snapshot payload (opaque bytes to the
// eventlog). In order: the format version, the registry ID-allocator
// sequence, the event-ID floor, the registration records with their declared
// objects, the couple links, the permission rules (insertion order — rule
// order is semantic), the resumable sessions, and the per-object undo/redo
// history stacks; every unordered collection goes out sorted, so equal states
// encode to equal bytes. The caller must own the state quiescently — it is
// only ever called on the snapshotter's replica, never the live server's.
func (st *state) encode() []byte {
	buf := []byte{stateVersion}
	buf = binary.AppendUvarint(buf, st.reg.Seq())
	buf = binary.AppendUvarint(buf, st.floor)

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

	hrefs := st.history.Refs() // sorted
	buf = binary.AppendUvarint(buf, uint64(len(hrefs)))
	for _, ref := range hrefs {
		undo, redo := st.history.Stacks(ref)
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

// stateReader decodes a snapshot payload through an attr.Reader.
type stateReader struct{ attr.Reader }

// maxSection bounds no section of a snapshot by a number of its own: each is
// bounded only by the bytes left.
const maxSection = math.MaxInt

func (r *stateReader) ref() couple.ObjectRef {
	inst := r.String()
	path := r.String()
	return couple.ObjectRef{Instance: couple.InstanceID(inst), Path: path}
}

// refuse fails the decode when a database rejects what the payload holds.
func (r *stateReader) refuse(what string, err error) {
	if err != nil {
		r.Fail(what + ": " + err.Error())
	}
}

func (r *stateReader) stack(ref couple.ObjectRef) []hist.Snapshot {
	n := r.Count(maxSection, 1)
	if n == 0 {
		return nil
	}
	snaps := make([]hist.Snapshot, 0, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		origin := r.String()
		at := r.Varint()
		tr := attr.NewReader(r.Bytes())
		st := widget.ReadTreeState(&tr)
		if err := tr.Done(); err != nil {
			r.Fail("tree state: " + err.Error())
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

// decodeState parses a snapshot payload straight into a fresh state. It is
// all-or-nothing: a malformed payload, an unknown version (version 1 carried
// one more section, per-object late-join event tails) or anything a database
// refuses rejects the whole payload, and the caller falls back to an older
// snapshot or to full replay. A version-2 payload still decodes, since
// deployed directories hold one on top of a compacted prefix: its shard
// count and per-shard sequences fold into the floor, and its route overrides
// are read and dropped.
func decodeState(payload []byte, histDepth int) (*state, error) {
	if len(payload) < 1 {
		return nil, errors.New("server: snapshot: empty payload")
	}
	version := payload[0]
	if version != 2 && version != stateVersion {
		return nil, fmt.Errorf("server: snapshot: unknown state version %d", version)
	}
	r := &stateReader{attr.NewReader(payload[1:])}
	st := newState(histDepth, nil)
	if version == 2 {
		// Shard i of n allocated the IDs i+1, i+1+n, …: its sequence q says
		// the largest it logged was (q-1)·n + i + 1.
		n := r.Count(maxSection, 1)
		if n < 1 {
			r.Fail("implausible shard count")
		}
		st.reg.SetSeq(r.Uvarint())
		for i := 0; i < n && r.Err() == nil; i++ {
			if q := r.Uvarint(); q > 0 {
				st.floor = max(st.floor, (q-1)*uint64(n)+uint64(i)+1)
			}
		}
	} else {
		st.reg.SetSeq(r.Uvarint())
		st.floor = r.Uvarint()
	}
	for i, n := 0, r.Count(maxSection, 1); i < n && r.Err() == nil; i++ {
		in := registry.Record{ID: couple.InstanceID(r.String()), AppType: r.String(), Host: r.String(), User: r.String()}
		if r.Err() == nil {
			r.refuse("registration", st.reg.Register(in))
			st.reg.RestoreSeq(in.ID)
		}
		for j, m := 0, r.Count(maxSection, 1); j < m && r.Err() == nil; j++ {
			path, class := r.String(), r.String()
			if r.Err() == nil {
				r.refuse("declaration", st.reg.DeclareObject(in.ID, path, class))
			}
		}
	}
	for i, n := 0, r.Count(maxSection, 1); i < n && r.Err() == nil; i++ {
		l := couple.Link{From: r.ref(), To: r.ref(), Creator: couple.InstanceID(r.String())}
		if r.Err() == nil {
			r.refuse("couple link", st.graph.AddLink(l))
		}
	}
	for i, n := 0, r.Count(maxSection, 1); i < n && r.Err() == nil; i++ {
		rule := perm.Rule{User: r.String(), State: r.String(), Right: perm.Right(r.Uvarint())}
		if r.Err() == nil {
			st.perms.Grant(rule)
		}
	}
	for i, n := 0, r.Count(maxSection, 1); i < n && r.Err() == nil; i++ {
		tok := r.String()
		rec := sessionRec{id: couple.InstanceID(r.String()), appType: r.String(), host: r.String(), user: r.String()}
		if r.Err() != nil {
			break
		}
		if old, ok := st.sessionTok[rec.id]; ok {
			delete(st.sessions, old)
		}
		st.sessions[tok] = rec
		st.sessionTok[rec.id] = tok
	}
	if version == 2 {
		for i, n := 0, r.Count(maxSection, 1); i < n && r.Err() == nil; i++ {
			r.ref()
			r.Uvarint()
		}
	}
	for i, n := 0, r.Count(maxSection, 1); i < n && r.Err() == nil; i++ {
		ref := r.ref()
		undo, redo := r.stack(ref), r.stack(ref)
		if r.Err() == nil {
			st.history.Restore(ref, undo, redo)
		}
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("server: snapshot: %w", err)
	}
	return st, nil
}
