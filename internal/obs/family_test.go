package obs

import (
	"math"
	"strconv"
	"sync"
	"testing"
)

func memberSchema() FamilySchema {
	return FamilySchema{
		Counters: []string{"acks", "last_acks", "timeouts"},
		Hist:     "ack_ns",
		EWMA:     "ack_ewma_ns",
		Label:    "member",
	}
}

func TestFamilyNilSafety(t *testing.T) {
	var f *Family
	if f.Get("k") != nil || f.Peek("k") != nil {
		t.Fatal("nil family must hand out nil entries")
	}
	if f.Len() != 0 || f.Name() != "" {
		t.Error("nil family accessors")
	}
	if s := f.Snapshot(); s.Entries != nil {
		t.Error("nil family snapshot must be empty")
	}
	var e *FamilyEntry
	e.Counter(0).Inc()
	e.Hist().Observe(1)
	e.EWMA().Observe(1)
	if e.Key() != "" || e.Counter(0).Value() != 0 {
		t.Error("nil entry must no-op")
	}
	if Disabled.Family("x", memberSchema()) != nil {
		t.Fatal("Disabled must return a nil family")
	}
}

func TestFamilyEntryLifecycle(t *testing.T) {
	r := NewRegistry()
	f := r.Family("server.member", memberSchema())
	if r.Family("server.member", FamilySchema{}) != f {
		t.Fatal("same name must return same family")
	}
	e := f.Get("inst-1")
	if e == nil || e.Key() != "inst-1" {
		t.Fatalf("entry = %+v", e)
	}
	if f.Get("inst-1") != e {
		t.Fatal("same key must return same entry")
	}
	if f.Peek("inst-1") != e || f.Peek("ghost") != nil {
		t.Fatal("Peek must find live entries only")
	}
	e.Counter(0).Add(3)
	e.Counter(2).Inc()
	e.Counter(99).Inc() // out of schema range: no-op, no panic
	e.Hist().Observe(1000)
	e.EWMA().Observe(1000)

	snap := f.Snapshot()
	if snap.Label != "member" {
		t.Errorf("label = %q", snap.Label)
	}
	es, ok := snap.Entries["inst-1"]
	if !ok {
		t.Fatalf("entries = %v", snap.Entries)
	}
	if es.Counters["acks"] != 3 || es.Counters["last_acks"] != 0 || es.Counters["timeouts"] != 1 {
		t.Errorf("counters = %v", es.Counters)
	}
	if es.EWMA != 1000 || es.Hist.Count != 1 {
		t.Errorf("entry snapshot = %+v", es)
	}
}

func TestFamilyLRUEviction(t *testing.T) {
	f := NewRegistry().Family("f", FamilySchema{Cap: 3, Counters: []string{"n"}})
	a, b, c := f.Get("a"), f.Get("b"), f.Get("c")
	f.Get("a") // refresh a: LRU order is now b < c < a
	f.Get("d") // evicts b
	if f.Len() != 3 {
		t.Fatalf("len = %d", f.Len())
	}
	if f.Peek("b") != nil {
		t.Fatal("b should have been evicted")
	}
	if f.Peek("a") != a || f.Peek("c") != c || f.Peek("d") == nil {
		t.Fatal("survivors wrong")
	}
	// An evicted entry still absorbs updates without crashing or
	// resurfacing — the bounded-cardinality bargain.
	b.Counter(0).Inc()
	if _, ok := f.Snapshot().Entries["b"]; ok {
		t.Fatal("evicted entry must not reappear in snapshots")
	}
	// Re-Get of an evicted key starts a fresh entry.
	if f.Get("b") == b {
		t.Fatal("re-created entry must be fresh")
	}
}

func TestFamilyDefaultCapAndLabel(t *testing.T) {
	f := NewRegistry().Family("f", FamilySchema{})
	if f.schema.Cap != DefaultFamilyCap || f.schema.Label != "key" {
		t.Errorf("defaults = %+v", f.schema)
	}
	for i := 0; i < DefaultFamilyCap+10; i++ {
		f.Get(strconv.Itoa(i))
	}
	if f.Len() != DefaultFamilyCap {
		t.Errorf("len = %d, want cap %d", f.Len(), DefaultFamilyCap)
	}
	if f.Peek("0") != nil || f.Peek("9") != nil {
		t.Error("coldest keys should have been evicted")
	}
	if f.Peek(strconv.Itoa(DefaultFamilyCap+9)) == nil {
		t.Error("hottest key must survive")
	}
}

func TestEWMA(t *testing.T) {
	var nilE *EWMA
	nilE.Observe(5)
	if nilE.Value() != 0 || nilE.Count() != 0 {
		t.Error("nil EWMA must no-op")
	}
	var e EWMA
	e.Observe(100)
	if e.Value() != 100 {
		t.Fatalf("first observation must seed directly, got %g", e.Value())
	}
	e.Observe(200)
	want := 100 + ewmaAlpha*(200-100)
	if math.Abs(e.Value()-want) > 1e-9 {
		t.Errorf("value = %g, want %g", e.Value(), want)
	}
	// A sustained shift converges on the new level.
	for i := 0; i < 200; i++ {
		e.Observe(1000)
	}
	if math.Abs(e.Value()-1000) > 1 {
		t.Errorf("value = %g, want ~1000", e.Value())
	}
	if e.Count() != 202 {
		t.Errorf("count = %d", e.Count())
	}
}

// TestFamilyConcurrent hammers Get/Peek/update/snapshot from many
// goroutines; run under -race it proves the entry sub-metrics stay safe to
// update through cached pointers while the LRU churns entries in and out.
func TestFamilyConcurrent(t *testing.T) {
	f := NewRegistry().Family("f", FamilySchema{
		Cap:      8,
		Counters: []string{"n"},
		Hist:     "lat",
		EWMA:     "avg",
	})
	keys := []string{"a", "b", "c", "d", "e", "f", "g", "h", "i", "j", "k", "l"}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cached := f.Get(keys[w%len(keys)])
			for j := 0; j < 2000; j++ {
				e := f.Get(keys[(w+j)%len(keys)])
				e.Counter(0).Inc()
				e.Hist().Observe(int64(j))
				e.EWMA().Observe(float64(j))
				cached.Counter(0).Inc() // may be evicted by now: must stay safe
				if j%100 == 0 {
					f.Snapshot()
					f.Peek(keys[j%len(keys)])
				}
			}
		}(w)
	}
	wg.Wait()
	if f.Len() > 8 {
		t.Errorf("len = %d exceeds cap", f.Len())
	}
}

// BenchmarkDisabledFamily gates the disabled path: resolving and updating
// entries through a nil family must not allocate.
func BenchmarkDisabledFamily(b *testing.B) {
	var f *Family
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := f.Get("inst-1")
		e.Counter(0).Inc()
		e.Hist().Observe(int64(i))
		e.EWMA().Observe(float64(i))
	}
}

func TestDisabledFamilyZeroAlloc(t *testing.T) {
	var f *Family
	d := Disabled.Family("server.member", memberSchema())
	allocs := testing.AllocsPerRun(200, func() {
		e := f.Get("inst-1")
		e.Counter(0).Inc()
		e.Counter(1).Inc()
		e.Hist().Observe(1)
		e.EWMA().Observe(1)
		f.Peek("inst-1")
		d.Get("inst-1").Counter(0).Inc()
		d.Peek("inst-1")
	})
	if allocs != 0 {
		t.Fatalf("disabled family path allocates %g/op, want 0", allocs)
	}
}
