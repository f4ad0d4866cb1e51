package lock

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"cosoft/internal/couple"
	"cosoft/internal/obs"
	"cosoft/internal/race"
)

func ref(inst, path string) couple.ObjectRef {
	return couple.ObjectRef{Instance: couple.InstanceID(inst), Path: path}
}

// lockOne and unlockOne lock and release a group of one ref.
func lockOne(tbl *Table, r couple.ObjectRef, o Owner) bool {
	ok, _ := tbl.TryLockGroup([]couple.ObjectRef{r}, o)
	return ok
}

func unlockOne(tbl *Table, r couple.ObjectRef, o Owner) bool {
	return tbl.UnlockGroup([]couple.ObjectRef{r}, o) == 1
}

func TestTryLockUnlock(t *testing.T) {
	tbl := NewTable()
	a := ref("i1", "/a")
	o1 := Owner{Instance: "i1", Seq: 1}
	o2 := Owner{Instance: "i2", Seq: 1}
	if !lockOne(tbl, a, o1) {
		t.Fatal("first lock must succeed")
	}
	if !lockOne(tbl, a, o1) {
		t.Fatal("re-entrant lock by same owner must succeed")
	}
	if lockOne(tbl, a, o2) {
		t.Fatal("conflicting lock must fail")
	}
	if got, ok := tbl.HeldBy(a); !ok || got != o1 {
		t.Errorf("HeldBy = %v, %v", got, ok)
	}
	if unlockOne(tbl, a, o2) {
		t.Error("unlock by non-owner must fail")
	}
	if !unlockOne(tbl, a, o1) {
		t.Error("unlock by owner must succeed")
	}
	if unlockOne(tbl, a, o1) {
		t.Error("double unlock must fail")
	}
	if !lockOne(tbl, a, o2) {
		t.Error("lock after release must succeed")
	}
}

func TestTryLockGroupAllOrNothing(t *testing.T) {
	tbl := NewTable()
	refs := []couple.ObjectRef{ref("i1", "/a"), ref("i2", "/b"), ref("i3", "/c")}
	o1 := Owner{Instance: "i1", Seq: 1}
	o2 := Owner{Instance: "i2", Seq: 5}
	// o2 pre-holds the middle object.
	if !lockOne(tbl, refs[1], o2) {
		t.Fatal("setup lock failed")
	}
	ok, attempted := tbl.TryLockGroup(refs, o1)
	if ok {
		t.Fatal("group lock must fail with a held member")
	}
	if attempted != 1 {
		t.Errorf("attempted = %d, want 1 (locked /a before hitting /b)", attempted)
	}
	// The undo must have released /a.
	if _, held := tbl.HeldBy(refs[0]); held {
		t.Error("failed group lock leaked a lock")
	}
	unlockOne(tbl, refs[1], o2)
	ok, attempted = tbl.TryLockGroup(refs, o1)
	if !ok || attempted != 3 {
		t.Fatalf("group lock = %v, %d", ok, attempted)
	}
	if tbl.Len() != 3 {
		t.Errorf("Len = %d", tbl.Len())
	}
	if n := tbl.UnlockGroup(refs, o1); n != 3 {
		t.Errorf("UnlockGroup = %d", n)
	}
	if tbl.Len() != 0 {
		t.Errorf("Len = %d after unlock", tbl.Len())
	}
}

func TestTryLockGroupReentrant(t *testing.T) {
	tbl := NewTable()
	a, b := ref("i1", "/a"), ref("i1", "/b")
	o := Owner{Instance: "i1", Seq: 1}
	if !lockOne(tbl, a, o) {
		t.Fatal("setup failed")
	}
	ok, attempted := tbl.TryLockGroup([]couple.ObjectRef{a, b}, o)
	if !ok {
		t.Fatal("re-entrant group lock must succeed")
	}
	if attempted != 1 {
		t.Errorf("attempted = %d, want 1 (a already held)", attempted)
	}
}

func TestTryLockGroupOrdered(t *testing.T) {
	tbl := NewTable()
	refs := []couple.ObjectRef{ref("i3", "/c"), ref("i1", "/a"), ref("i2", "/b")}
	o := Owner{Instance: "i1", Seq: 1}
	ok, attempted := tbl.TryLockGroupOrdered(refs, o)
	if !ok || attempted != 3 {
		t.Fatalf("ordered lock = %v, %d", ok, attempted)
	}
	// Input slice must not be reordered.
	if refs[0] != ref("i3", "/c") {
		t.Error("caller slice was mutated")
	}
}

// Property: a group lock never leaves partial state — after any sequence of
// competing group attempts, every held lock belongs to an owner whose whole
// group succeeded.
func TestPropGroupLockAtomicity(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tbl := NewTable()
		objs := make([]couple.ObjectRef, 6)
		for i := range objs {
			objs[i] = ref("x", string(rune('a'+i)))
		}
		type attempt struct {
			owner Owner
			refs  []couple.ObjectRef
			ok    bool
		}
		var attempts []attempt
		for i := 0; i < 8; i++ {
			o := Owner{Instance: couple.InstanceID(rune('A' + i)), Seq: uint64(i)}
			n := r.Intn(len(objs)) + 1
			perm := r.Perm(len(objs))[:n]
			refs := make([]couple.ObjectRef, n)
			for j, p := range perm {
				refs[j] = objs[p]
			}
			ok, _ := tbl.TryLockGroup(refs, o)
			attempts = append(attempts, attempt{o, refs, ok})
		}
		// Every successful attempt must still hold all its refs; every
		// failed attempt must hold none.
		for _, a := range attempts {
			for _, rf := range a.refs {
				holder, held := tbl.HeldBy(rf)
				if a.ok && (!held || holder != a.owner) {
					return false
				}
				if !a.ok && held && holder == a.owner {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: concurrent group attempts on overlapping sets never double-grant.
func TestConcurrentGroupLocks(t *testing.T) {
	tbl := NewTable()
	objs := []couple.ObjectRef{ref("x", "/a"), ref("x", "/b"), ref("x", "/c")}
	var wg sync.WaitGroup
	var mu sync.Mutex
	holders := 0
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			o := Owner{Instance: couple.InstanceID(rune('A' + i)), Seq: uint64(i)}
			if ok, _ := tbl.TryLockGroup(objs, o); ok {
				mu.Lock()
				holders++
				mu.Unlock()
				tbl.UnlockGroup(objs, o)
			}
		}(i)
	}
	wg.Wait()
	if holders == 0 {
		t.Error("at least one attempt should have succeeded")
	}
	if tbl.Len() != 0 {
		t.Errorf("Len = %d after all released", tbl.Len())
	}
}

func BenchmarkTryLockGroup(b *testing.B) {
	tbl := NewTable()
	refs := make([]couple.ObjectRef, 16)
	for i := range refs {
		refs[i] = ref("x", string(rune('a'+i)))
	}
	o := Owner{Instance: "i", Seq: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if ok, _ := tbl.TryLockGroup(refs, o); !ok {
			b.Fatal("lock failed")
		}
		tbl.UnlockGroup(refs, o)
	}
}

// TestLockGroupAllocBudget gates the floor lock of one event in steady state:
// locking and unlocking a 31-member group — g4x32's — reuses the table's undo
// list and allocates nothing.
func TestLockGroupAllocBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts include the race detector's own; `make allocs` runs this without -race")
	}
	tbl := NewTable()
	refs := make([]couple.ObjectRef, 31)
	for i := range refs {
		refs[i] = ref(fmt.Sprintf("m%d", i), "/hub")
	}
	o := Owner{Instance: "m0", Seq: 1}
	if got := testing.AllocsPerRun(200, func() {
		if ok, _ := tbl.TryLockGroup(refs, o); !ok {
			t.Fatal("lock failed")
		}
		tbl.UnlockGroup(refs, o)
	}); got != 0 {
		t.Errorf("locking and unlocking a group of %d allocates %.2f times, want 0", len(refs), got)
	}
}

func TestInstrumentCountsContentionAndUndo(t *testing.T) {
	reg := obs.NewRegistry()
	attempts := reg.Counter("lock.group_attempts")
	failures := reg.Counter("lock.group_failures")
	undone := reg.Counter("lock.undo_locked")
	tbl := NewTable()
	tbl.Instrument(attempts, failures, undone)

	refs := []couple.ObjectRef{ref("i1", "/a"), ref("i1", "/b"), ref("i1", "/c")}
	o1 := Owner{Instance: "i1", Seq: 1}
	o2 := Owner{Instance: "i2", Seq: 1}
	if ok, _ := tbl.TryLockGroup(refs, o1); !ok {
		t.Fatal("first group lock must succeed")
	}
	// o2 probes /x, /y (free, acquired), then /a (held): two undo-locks.
	if ok, _ := tbl.TryLockGroup([]couple.ObjectRef{ref("i2", "/x"), ref("i2", "/y"), refs[0]}, o2); ok {
		t.Fatal("contended group lock must fail")
	}
	// The ordered variant shares the counters.
	if ok, _ := tbl.TryLockGroupOrdered(refs, o2); ok {
		t.Fatal("ordered contended lock must fail")
	}
	if got := attempts.Value(); got != 3 {
		t.Errorf("attempts = %d, want 3", got)
	}
	if got := failures.Value(); got != 2 {
		t.Errorf("failures = %d, want 2", got)
	}
	if got := undone.Value(); got != 2 {
		t.Errorf("undone = %d, want 2", got)
	}
}

func TestUninstrumentedTableWorks(t *testing.T) {
	tbl := NewTable() // no Instrument call: nil handles must be no-ops
	o := Owner{Instance: "i1", Seq: 1}
	if ok, _ := tbl.TryLockGroup([]couple.ObjectRef{ref("i1", "/a")}, o); !ok {
		t.Fatal("lock must succeed")
	}
	if ok, _ := tbl.TryLockGroup([]couple.ObjectRef{ref("i1", "/a")}, Owner{Instance: "i2"}); ok {
		t.Fatal("contended lock must fail")
	}
}
