// State snapshots: periodic durable captures of the full replayable server
// state, so restart replay begins at the snapshot's log offset instead of
// zero and the eventlog compactor can delete everything older.
//
// Consistency without stalls: instead of freezing the live loops to copy
// their state, the snapshot goroutine maintains an offline *fold replica* —
// a second Server built by the same constructor, never started, advanced
// only by replaying the durable log's records through the very replayRecord
// used at startup. A snapshot at offset N is therefore *defined* as
// fold(records[0:N)) — exactly what a restarting server computes — so
// snapshot-then-tail-replay equals full replay by construction, and the live
// shard loops never block on snapshot work.
//
// The snapshot payload (opaque bytes to the eventlog) carries, in order: the
// format version, the shard count, the registry ID-allocator sequence, the
// per-shard event-ID sequences, the registration records with their declared
// objects, the couple links, the permission rules (insertion order — rule
// order is semantic), the resumable sessions, the router's explicit route
// overrides (they persist past decouple and are not derivable from the
// graph), and the per-object undo/redo history stacks. Version 1 payloads
// carried one more section (per-object late-join event tails) and are refused
// like any unknown version: recovery falls back to an older snapshot or to
// full replay.
package server

import (
	"encoding/binary"
	"errors"
	"fmt"
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
)

// stateVersion versions the snapshot payload layout.
const stateVersion = 2

// newFoldServer builds the offline replica the snapshotter folds log records
// into: same databases, same shard count, no goroutines, no measurement.
func newFoldServer(opts Options) *Server {
	opts.EventLog = nil
	opts.Metrics = obs.Disabled
	opts.Tracer = nil
	opts.Flight = nil
	if opts.Logger != nil {
		opts.Logger = opts.Logger.With("replica", "fold")
	}
	opts.Logf = nil
	opts.foldReplica = true
	return newServer(opts)
}

// snapshotter owns the fold replica and the snapshot/compaction cycle. All
// methods serialize on mu, so the periodic loop and a forced Snapshot never
// interleave.
type snapshotter struct {
	s    *Server
	mu   sync.Mutex
	fold *Server
	// off is the log byte offset the fold replica has consumed.
	off int64
	// lastSnapOff is the offset of the newest snapshot written (or seeded
	// from at construction); the SnapshotBytes trigger measures against it.
	lastSnapOff int64
}

// newSnapshotter builds the fold replica, seeding it from the newest
// decodable snapshot exactly as replayLog seeds the live server.
func newSnapshotter(s *Server) *snapshotter {
	sn := &snapshotter{s: s, fold: newFoldServer(s.opts)}
	if snaps, err := s.elog.Snapshots(); err == nil {
		for _, ref := range snaps {
			st, derr := decodeState(ref.Payload)
			if derr != nil {
				continue
			}
			sn.fold.installState(st)
			sn.off = ref.Offset
			sn.lastSnapOff = ref.Offset
			break
		}
	}
	return sn
}

// once runs one snapshot cycle: fold the log's new durable records into the
// replica, write a snapshot at the folded offset if the cadence (or force)
// says so, then compact. Reading stops cleanly at a torn or in-flight
// record — the next cycle resumes there.
func (sn *snapshotter) once(force bool) error {
	sn.mu.Lock()
	defer sn.mu.Unlock()
	end, err := eventlog.ReplayDirFrom(sn.s.elog.Dir(), sn.off, func(rec eventlog.Record) error {
		sn.fold.replayRecord(rec)
		return nil
	})
	if err != nil {
		return err
	}
	sn.off = end
	if !force {
		if end <= sn.lastSnapOff {
			return nil
		}
		iv, bytes := sn.s.opts.SnapshotInterval, sn.s.opts.SnapshotBytes
		// The loop ticks at SnapshotInterval when one is set, so reaching
		// here with new bytes is itself the time trigger; with only a byte
		// cadence, wait for the volume threshold.
		if iv <= 0 && (bytes <= 0 || end-sn.lastSnapOff < bytes) {
			return nil
		}
	}
	if err := sn.s.elog.WriteSnapshot(end, sn.fold.encodeState()); err != nil {
		return err
	}
	sn.lastSnapOff = end
	_, err = sn.s.elog.Compact()
	return err
}

// snapshotLoop drives the periodic snapshot/compaction cycle.
func (s *Server) snapshotLoop() {
	defer s.wg.Done()
	period := s.opts.SnapshotInterval
	if period <= 0 {
		// Byte-cadence only: poll the log size briefly.
		period = 100 * time.Millisecond
	}
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			err := s.snap.once(false)
			if err != nil && !errors.Is(err, eventlog.ErrClosed) {
				s.slog.Warn("snapshot cycle failed", "err", err)
			}
		case <-s.quit:
			return
		}
	}
}

// Snapshot forces one synchronous snapshot+compaction cycle at the log's
// current durable offset. Errors if the server has no event log.
func (s *Server) Snapshot() error {
	if s.snap == nil {
		return errors.New("server: no event log configured")
	}
	return s.snap.once(true)
}

// snapState is the decoded form of a snapshot payload.
type snapState struct {
	nshards   int
	regSeq    uint64
	shardSeqs []uint64
	insts     []snapInst
	links     []couple.Link
	rules     []perm.Rule
	sessions  []snapSession
	routes    []snapRoute
	hists     []snapHist
}

type snapInst struct {
	id                  couple.InstanceID
	appType, host, user string
	objs                [][2]string // path, class
}

type snapSession struct {
	token string
	rec   sessionRec
}

type snapRoute struct {
	ref   couple.ObjectRef
	shard int
}

type snapHist struct {
	ref        couple.ObjectRef
	undo, redo []hist.Snapshot
}

// encodeState serializes the server's replayable state. It reads the
// databases directly, so the caller must own them quiescently — it is only
// ever called on the snapshotter's fold replica (never the live server).
func (s *Server) encodeState() []byte {
	buf := []byte{stateVersion}
	buf = binary.AppendUvarint(buf, uint64(len(s.shards)))
	buf = binary.AppendUvarint(buf, s.reg.Seq())
	for _, sh := range s.shards {
		buf = binary.AppendUvarint(buf, sh.seq)
	}

	ids := s.reg.Instances() // sorted
	buf = binary.AppendUvarint(buf, uint64(len(ids)))
	for _, id := range ids {
		r, _ := s.reg.Lookup(id)
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

	links := s.graph.Links() // sorted
	buf = binary.AppendUvarint(buf, uint64(len(links)))
	for _, l := range links {
		buf = appendSnapRef(buf, l.From)
		buf = appendSnapRef(buf, l.To)
		buf = appendSnapStr(buf, string(l.Creator))
	}

	rules := s.perms.Rules() // insertion order — order is semantic, keep it
	buf = binary.AppendUvarint(buf, uint64(len(rules)))
	for _, r := range rules {
		buf = appendSnapStr(buf, r.User)
		buf = appendSnapStr(buf, r.State)
		buf = binary.AppendUvarint(buf, uint64(r.Right))
	}

	toks := make([]string, 0, len(s.sessions))
	for tok := range s.sessions {
		toks = append(toks, tok)
	}
	sort.Strings(toks)
	buf = binary.AppendUvarint(buf, uint64(len(toks)))
	for _, tok := range toks {
		rec := s.sessions[tok]
		buf = appendSnapStr(buf, tok)
		buf = appendSnapStr(buf, string(rec.id))
		buf = appendSnapStr(buf, rec.appType)
		buf = appendSnapStr(buf, rec.host)
		buf = appendSnapStr(buf, rec.user)
	}

	var routes []snapRoute
	s.router.mu.RLock()
	for ref, idx := range s.router.obj {
		routes = append(routes, snapRoute{ref: ref, shard: idx})
	}
	s.router.mu.RUnlock()
	sort.Slice(routes, func(i, j int) bool { return routes[i].ref.Less(routes[j].ref) })
	buf = binary.AppendUvarint(buf, uint64(len(routes)))
	for _, rt := range routes {
		buf = appendSnapRef(buf, rt.ref)
		buf = binary.AppendUvarint(buf, uint64(rt.shard))
	}

	var hrefs []couple.ObjectRef
	for _, sh := range s.shards {
		hrefs = append(hrefs, sh.history.Refs()...)
	}
	sort.Slice(hrefs, func(i, j int) bool { return hrefs[i].Less(hrefs[j]) })
	buf = binary.AppendUvarint(buf, uint64(len(hrefs)))
	for _, ref := range hrefs {
		undo, redo := s.shardForRef(ref).history.Stacks(ref)
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

func appendSnapBytes(b, p []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(p)))
	return append(b, p...)
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
		b = appendSnapBytes(b, widget.AppendTreeState(nil, sn.State))
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

func (r *stateReader) str() string {
	n := r.uv()
	if r.err != nil {
		return ""
	}
	if uint64(len(r.b)) < n {
		r.fail("string overruns payload")
		return ""
	}
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s
}

func (r *stateReader) bytes() []byte {
	n := r.uv()
	if r.err != nil {
		return nil
	}
	if uint64(len(r.b)) < n {
		r.fail("bytes overrun payload")
		return nil
	}
	p := r.b[:n]
	r.b = r.b[n:]
	return p
}

func (r *stateReader) ref() couple.ObjectRef {
	inst := r.str()
	path := r.str()
	return couple.ObjectRef{Instance: couple.InstanceID(inst), Path: path}
}

// count bounds a length prefix by the bytes actually remaining, so a
// corrupt length can't make decode allocate unboundedly.
func (r *stateReader) count() int {
	n := r.uv()
	if r.err == nil && n > uint64(len(r.b)) {
		r.fail("count overruns payload")
		return 0
	}
	return int(n)
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
		stateBytes := r.bytes()
		st, rest, err := widget.DecodeTreeState(stateBytes)
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

// decodeState parses a snapshot payload. It is all-or-nothing: any error
// rejects the whole payload so installState never applies a partial state.
func decodeState(payload []byte) (*snapState, error) {
	if len(payload) < 1 {
		return nil, errors.New("server: snapshot: empty payload")
	}
	if payload[0] != stateVersion {
		return nil, fmt.Errorf("server: snapshot: unknown state version %d", payload[0])
	}
	r := &stateReader{b: payload[1:]}
	st := &snapState{}
	st.nshards = int(r.uv())
	if r.err == nil && (st.nshards < 1 || st.nshards > 1<<16) {
		r.fail("implausible shard count")
	}
	st.regSeq = r.uv()
	if r.err != nil {
		return nil, r.err
	}
	st.shardSeqs = make([]uint64, st.nshards)
	for i := range st.shardSeqs {
		st.shardSeqs[i] = r.uv()
	}
	for i, n := 0, r.count(); i < n && r.err == nil; i++ {
		in := snapInst{
			id:      couple.InstanceID(r.str()),
			appType: r.str(),
			host:    r.str(),
			user:    r.str(),
		}
		for j, m := 0, r.count(); j < m && r.err == nil; j++ {
			in.objs = append(in.objs, [2]string{r.str(), r.str()})
		}
		st.insts = append(st.insts, in)
	}
	for i, n := 0, r.count(); i < n && r.err == nil; i++ {
		st.links = append(st.links, couple.Link{
			From:    r.ref(),
			To:      r.ref(),
			Creator: couple.InstanceID(r.str()),
		})
	}
	for i, n := 0, r.count(); i < n && r.err == nil; i++ {
		st.rules = append(st.rules, perm.Rule{
			User:  r.str(),
			State: r.str(),
			Right: perm.Right(r.uv()),
		})
	}
	for i, n := 0, r.count(); i < n && r.err == nil; i++ {
		ss := snapSession{token: r.str()}
		ss.rec = sessionRec{
			id:      couple.InstanceID(r.str()),
			appType: r.str(),
			host:    r.str(),
			user:    r.str(),
		}
		st.sessions = append(st.sessions, ss)
	}
	for i, n := 0, r.count(); i < n && r.err == nil; i++ {
		rt := snapRoute{ref: r.ref(), shard: int(r.uv())}
		if r.err == nil && (rt.shard < 0 || rt.shard >= st.nshards) {
			r.fail("route shard out of range")
		}
		st.routes = append(st.routes, rt)
	}
	for i, n := 0, r.count(); i < n && r.err == nil; i++ {
		h := snapHist{ref: r.ref()}
		h.undo = r.stack(h.ref)
		h.redo = r.stack(h.ref)
		st.hists = append(st.hists, h)
	}
	if r.err != nil {
		return nil, r.err
	}
	if len(r.b) != 0 {
		return nil, errors.New("server: snapshot: trailing bytes")
	}
	return st, nil
}

// installState applies a decoded snapshot to a freshly built server (live at
// startup before any loop runs, or the fold replica at seeding). Mutations
// mirror replayRecord's: same databases, same placement rules. When the
// snapshot's shard count differs from this server's, per-shard sequences are
// re-based conservatively past the largest possible allocated event ID and
// every multi-member group is re-colocated, so event IDs stay unique and
// groups stay single-shard under any -shards change across a restart.
func (s *Server) installState(st *snapState) {
	warn := func(what string, err error) {
		s.slog.Warn("snapshot install skipped "+what, "err", err)
	}
	s.reg.SetSeq(st.regSeq)
	for _, in := range st.insts {
		r := registry.Record{ID: in.id, AppType: in.appType, Host: in.host, User: in.user}
		if err := s.reg.Register(r); err != nil {
			warn("registration", err)
			continue
		}
		s.reg.RestoreSeq(in.id)
		for _, obj := range in.objs {
			if err := s.reg.DeclareObject(in.id, obj[0], obj[1]); err != nil {
				warn("declaration", err)
			}
		}
	}
	for _, l := range st.links {
		if err := s.graph.AddLink(l); err != nil {
			warn("couple link", err)
		}
	}
	for _, r := range st.rules {
		s.perms.Grant(r)
	}
	for _, ss := range st.sessions {
		if old, ok := s.sessionTok[ss.rec.id]; ok {
			delete(s.sessions, old)
		}
		s.sessions[ss.token] = ss.rec
		s.sessionTok[ss.rec.id] = ss.token
	}
	if st.nshards == len(s.shards) {
		for i, sh := range s.shards {
			sh.seq = st.shardSeqs[i]
		}
		for _, rt := range st.routes {
			s.router.setRoutes([]couple.ObjectRef{rt.ref}, rt.shard)
		}
	} else {
		// Shard-count change across restart: stored sequences and routes are
		// meaningless here. Re-base every shard's sequence past the largest
		// event ID the stored sequences could have allocated, and re-colocate
		// each coupling group on its first member's hash shard.
		var maxID uint64
		for i, q := range st.shardSeqs {
			if q == 0 {
				continue
			}
			if id := (q-1)*uint64(st.nshards) + uint64(i) + 1; id > maxID {
				maxID = id
			}
		}
		n := uint64(len(s.shards))
		base := (maxID + n - 1) / n
		for _, sh := range s.shards {
			sh.seq = base
		}
		for _, group := range s.graph.Groups() {
			refs := append([]couple.ObjectRef(nil), group...)
			sort.Slice(refs, func(i, j int) bool { return refs[i].Less(refs[j]) })
			target := int(hashRef(refs[0]) % uint32(len(s.shards)))
			s.router.setRoutes(refs, target)
		}
	}
	// Histories place by shardForRef, which consults the routes installed
	// above — so they land exactly where replay would put them.
	for _, h := range st.hists {
		s.shardForRef(h.ref).history.Restore(h.ref, h.undo, h.redo)
	}
}
