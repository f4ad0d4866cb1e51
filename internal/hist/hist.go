// Package hist implements the server's historical UI states database
// (§2.1): it backs up UI states that were overwritten when synchronizing by
// state, and provides undo/redo over them.
package hist

import (
	"errors"
	"sort"
	"sync"
	"time"

	"cosoft/internal/couple"
	"cosoft/internal/obs"
	"cosoft/internal/widget"
)

// ErrEmpty is returned by Undo/Redo when no state is available in that
// direction.
var ErrEmpty = errors.New("hist: no state available")

// Snapshot is one recorded UI state of an object: the captured tree state
// plus provenance.
type Snapshot struct {
	// Ref identifies the object whose state was overwritten.
	Ref couple.ObjectRef
	// State is the captured subtree state at the time of overwrite.
	State widget.TreeState
	// Origin is the instance whose copy operation caused the overwrite.
	Origin couple.InstanceID
	// At is the time of the overwrite where the recorder knows one. The
	// server leaves it zero: a backup replayed from the event log could not
	// reproduce it, and live state is the fold of the log.
	At time.Time
}

// entry keeps the undo and redo stacks of one object.
type entry struct {
	undo []Snapshot
	redo []Snapshot
}

// DB is the historical-states store. It bounds the per-object depth so a
// long session cannot exhaust server memory. The zero value is not usable;
// call NewDB.
type DB struct {
	mu        sync.Mutex
	maxDepth  int
	objects   map[couple.ObjectRef]*entry
	evictions *obs.Counter
}

// DefaultDepth is the per-object history depth used when NewDB receives a
// non-positive depth.
const DefaultDepth = 32

// NewDB returns a store keeping up to depth snapshots per object.
func NewDB(depth int) *DB {
	if depth <= 0 {
		depth = DefaultDepth
	}
	return &DB{maxDepth: depth, objects: make(map[couple.ObjectRef]*entry)}
}

// Record stores the state that is about to be overwritten. It clears the
// object's redo stack: a new overwrite invalidates states that were undone.
func (d *DB) Record(s Snapshot) {
	d.mu.Lock()
	defer d.mu.Unlock()
	e := d.objects[s.Ref]
	if e == nil {
		e = &entry{}
		d.objects[s.Ref] = e
	}
	e.undo = append(e.undo, s)
	if len(e.undo) > d.maxDepth {
		copy(e.undo, e.undo[1:])
		e.undo = e.undo[:d.maxDepth]
		d.evictions.Inc()
	}
	e.redo = nil
}

// Restore installs ref's undo and redo stacks verbatim (oldest first) when
// rebuilding the database from a snapshot. Unlike Record it neither clears
// the redo stack nor evicts — the stacks were bounded when captured.
func (d *DB) Restore(ref couple.ObjectRef, undo, redo []Snapshot) {
	if len(undo) == 0 && len(redo) == 0 {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	e := d.objects[ref]
	if e == nil {
		e = &entry{}
		d.objects[ref] = e
	}
	e.undo = append([]Snapshot(nil), undo...)
	e.redo = append([]Snapshot(nil), redo...)
}

// Instrument counts depth-bound evictions — the oldest undo snapshot
// silently dropped when an object's history exceeds the depth bound — in c.
func (d *DB) Instrument(c *obs.Counter) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.evictions = c
}

// Refs returns every object with recorded history, sorted, and Stacks dumps
// one object's undo/redo stacks bottom-first — together a deterministic
// dump of the database, used by recovery tests to compare a replayed server
// against a shadow one.
func (d *DB) Refs() []couple.ObjectRef {
	d.mu.Lock()
	defer d.mu.Unlock()
	refs := make([]couple.ObjectRef, 0, len(d.objects))
	for ref := range d.objects {
		refs = append(refs, ref)
	}
	sort.Slice(refs, func(i, j int) bool {
		if refs[i].Instance != refs[j].Instance {
			return refs[i].Instance < refs[j].Instance
		}
		return refs[i].Path < refs[j].Path
	})
	return refs
}

// Stacks returns copies of ref's undo and redo stacks, oldest first.
func (d *DB) Stacks(ref couple.ObjectRef) (undo, redo []Snapshot) {
	d.mu.Lock()
	defer d.mu.Unlock()
	e := d.objects[ref]
	if e == nil {
		return nil, nil
	}
	return append([]Snapshot(nil), e.undo...), append([]Snapshot(nil), e.redo...)
}

// Undo pops the most recent overwritten state of ref. The caller supplies
// the object's current state, which is pushed on the redo stack.
func (d *DB) Undo(ref couple.ObjectRef, current widget.TreeState) (Snapshot, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	e := d.objects[ref]
	if e == nil || len(e.undo) == 0 {
		return Snapshot{}, ErrEmpty
	}
	s := e.undo[len(e.undo)-1]
	e.undo = e.undo[:len(e.undo)-1]
	e.redo = append(e.redo, Snapshot{Ref: ref, State: current, Origin: s.Origin, At: s.At})
	return s, nil
}

// Redo pops the most recently undone state of ref. The caller supplies the
// object's current state, which is pushed back on the undo stack.
func (d *DB) Redo(ref couple.ObjectRef, current widget.TreeState) (Snapshot, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	e := d.objects[ref]
	if e == nil || len(e.redo) == 0 {
		return Snapshot{}, ErrEmpty
	}
	s := e.redo[len(e.redo)-1]
	e.redo = e.redo[:len(e.redo)-1]
	e.undo = append(e.undo, Snapshot{Ref: ref, State: current, Origin: s.Origin, At: s.At})
	return s, nil
}

// Depth returns the undo and redo depths recorded for ref.
func (d *DB) Depth(ref couple.ObjectRef) (undo, redo int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	e := d.objects[ref]
	if e == nil {
		return 0, 0
	}
	return len(e.undo), len(e.redo)
}

// Forget drops all history for ref (object destroyed).
func (d *DB) Forget(ref couple.ObjectRef) {
	d.mu.Lock()
	defer d.mu.Unlock()
	delete(d.objects, ref)
}

// ForgetInstance drops all history for every object of the instance.
func (d *DB) ForgetInstance(id couple.InstanceID) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for ref := range d.objects {
		if ref.Instance == id {
			delete(d.objects, ref)
		}
	}
}

// Extracted is an opaque bundle of per-object histories removed from one DB,
// to be Installed into another (cross-shard group migration).
type Extracted struct {
	objects map[couple.ObjectRef]*entry
}

// Len returns the number of objects in the bundle.
func (x Extracted) Len() int { return len(x.objects) }

// Extract removes and returns the histories of every object in refs.
func (d *DB) Extract(refs map[couple.ObjectRef]bool) Extracted {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make(map[couple.ObjectRef]*entry)
	for ref, e := range d.objects {
		if refs[ref] {
			delete(d.objects, ref)
			out[ref] = e
		}
	}
	return Extracted{objects: out}
}

// Install adds extracted histories to the store. An object present in both
// keeps the installed history (the migration protocol guarantees the
// receiving store has recorded nothing for the migrating refs).
func (d *DB) Install(x Extracted) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for ref, e := range x.objects {
		d.objects[ref] = e
	}
}

// Len returns the number of objects with recorded history.
func (d *DB) Len() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.objects)
}
