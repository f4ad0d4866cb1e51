// Package lock implements the server's lock table (§2.1, §3.2): the floor
// control that guarantees actions occur serially within each group of
// coupled objects.
//
// Locking is non-blocking by design — "Actions on locked objects are
// disabled" rather than queued — so the API is try/fail, never wait.
package lock

import (
	"sort"
	"strconv"
	"sync"

	"cosoft/internal/couple"
	"cosoft/internal/obs"
)

// Owner identifies the holder of a lock: the instance processing an event
// and a sequence number distinguishing its events.
type Owner struct {
	Instance couple.InstanceID
	Seq      uint64
}

// Table is the lock table. The zero value is not usable; call NewTable.
type Table struct {
	mu   sync.Mutex
	held map[couple.ObjectRef]Owner
	// undo is TryLockGroup's list of the refs it acquired, kept empty between
	// calls so a group acquisition allocates nothing; guarded by mu.
	undo []couple.ObjectRef

	// Metric handles (nil-safe; see Instrument).
	mAttempts *obs.Counter
	mFailures *obs.Counter
	mUndone   *obs.Counter

	// tracer records one "lock.acquire" span per traced group acquisition
	// (nil disables; see TraceWith).
	tracer *obs.Tracer
}

// NewTable returns an empty lock table.
func NewTable() *Table {
	return &Table{held: make(map[couple.ObjectRef]Owner)}
}

// Instrument attaches metric handles for group-locking behaviour: attempts
// counts TryLockGroup calls, failures counts group acquisitions lost to
// contention, and undone counts locks rolled back by the paper's
// undo-locking ("on the first failure all locks acquired so far are
// undone"). Nil handles (the obs.Disabled sink) keep the table metric-free.
// Call before the table is shared between goroutines.
func (t *Table) Instrument(attempts, failures, undone *obs.Counter) {
	t.mAttempts = attempts
	t.mFailures = failures
	t.mUndone = undone
}

// TraceWith attaches a causal tracer: each TryLockGroupCtx call with a valid
// parent context records a "lock.acquire" span covering the table mutex wait
// plus the probe, with the outcome in the note. Call before the table is
// shared between goroutines.
func (t *Table) TraceWith(tr *obs.Tracer) { t.tracer = tr }

// TryLockGroupCtx is TryLockGroup with causal tracing: the acquisition is
// recorded as a child span of parent. Without a tracer or trace context it
// is exactly TryLockGroup. On a conflict it returns the owner of the lock
// that refused it.
func (t *Table) TryLockGroupCtx(parent obs.TraceContext, refs []couple.ObjectRef, owner Owner) (bool, Owner) {
	sp := t.tracer.StartSpan(parent, "lock.acquire", string(owner.Instance))
	ok, attempted, holder := t.tryLockGroup(refs, owner)
	t.endAcquireSpan(sp, ok, attempted, len(refs))
	return ok, holder
}

// TryLockGroupOrderedCtx is TryLockGroupOrdered with causal tracing, and
// returns the refusing owner like TryLockGroupCtx.
func (t *Table) TryLockGroupOrderedCtx(parent obs.TraceContext, refs []couple.ObjectRef, owner Owner) (bool, Owner) {
	sp := t.tracer.StartSpan(parent, "lock.acquire", string(owner.Instance))
	ok, attempted, holder := t.tryLockGroup(sortedRefs(refs), owner)
	t.endAcquireSpan(sp, ok, attempted, len(refs))
	return ok, holder
}

func (t *Table) endAcquireSpan(sp obs.SpanHandle, ok bool, attempted, group int) {
	if !sp.Active() {
		return
	}
	outcome := "granted n="
	if !ok {
		outcome = "denied after="
	}
	sp.EndNote(outcome + strconv.Itoa(attempted) + "/" + strconv.Itoa(group))
}

// TryLockGroup locks all refs for owner, or none. This is the paper's
// published algorithm (§3.2): objects are attempted *in the given order*;
// on the first failure all locks acquired so far are undone ("undo locking")
// and the call reports failure together with how many objects were locked
// before the conflict (useful for instrumentation). A ref the owner already
// holds stays held and is not counted (re-entrant within one event).
func (t *Table) TryLockGroup(refs []couple.ObjectRef, owner Owner) (ok bool, attempted int) {
	ok, attempted, _ = t.tryLockGroup(refs, owner)
	return ok, attempted
}

// tryLockGroup is TryLockGroup, which on a conflict also returns the owner
// of the lock that refused it.
func (t *Table) tryLockGroup(refs []couple.ObjectRef, owner Owner) (ok bool, attempted int, holder Owner) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.mAttempts.Inc()
	acquired := t.undo[:0]
	for _, ref := range refs {
		if cur, held := t.held[ref]; held && cur != owner {
			for _, a := range acquired {
				delete(t.held, a)
			}
			t.mFailures.Inc()
			t.mUndone.Add(uint64(len(acquired)))
			t.keepUndo(acquired)
			return false, len(acquired), cur
		}
		if _, held := t.held[ref]; !held {
			t.held[ref] = owner
			acquired = append(acquired, ref)
		}
	}
	t.keepUndo(acquired)
	return true, len(acquired), Owner{}
}

// maxIdleUndo caps the capacity (in refs) of the undo list a table keeps
// between acquisitions, so one huge group does not pin its list.
const maxIdleUndo = 1024

// keepUndo empties acquired and keeps its array for the next acquisition,
// unless a huge group grew it past maxIdleUndo. Callers hold mu.
func (t *Table) keepUndo(acquired []couple.ObjectRef) {
	clear(acquired)
	if cap(acquired) > maxIdleUndo {
		acquired = nil
	}
	t.undo = acquired[:0]
}

// TryLockGroupOrdered is the ablation variant: it sorts the refs into the
// global total order before attempting, so two competing groups always probe
// their shared prefix in the same order. Both variants are atomic, since a
// group acquisition holds the table's mutex from its first probe to its
// last; the ordered variant exists to quantify the ordering cost and to stay
// safe if locking were ever performed incrementally.
func (t *Table) TryLockGroupOrdered(refs []couple.ObjectRef, owner Owner) (ok bool, attempted int) {
	return t.TryLockGroup(sortedRefs(refs), owner)
}

// sortedRefs is a copy of refs in the global total order.
func sortedRefs(refs []couple.ObjectRef) []couple.ObjectRef {
	sorted := make([]couple.ObjectRef, len(refs))
	copy(sorted, refs)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Less(sorted[j]) })
	return sorted
}

// UnlockGroup releases every ref held by owner in refs, returning the count
// released.
func (t *Table) UnlockGroup(refs []couple.ObjectRef, owner Owner) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, ref := range refs {
		if cur, ok := t.held[ref]; ok && cur == owner {
			delete(t.held, ref)
			n++
		}
	}
	return n
}

// HeldBy returns the current owner of ref, if locked.
func (t *Table) HeldBy(ref couple.ObjectRef) (Owner, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	o, ok := t.held[ref]
	return o, ok
}

// Each calls fn on every held entry, with the table locked: fn must not call
// back into it.
func (t *Table) Each(fn func(couple.ObjectRef, Owner)) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for ref, owner := range t.held {
		fn(ref, owner)
	}
}

// Len returns the number of currently held locks.
func (t *Table) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.held)
}
