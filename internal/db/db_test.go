package db

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
)

func bibDB(t testing.TB) *DB {
	t.Helper()
	d := New()
	if err := d.CreateTable("pubs", []Column{
		{Name: "author", Kind: KindString},
		{Name: "title", Kind: KindString},
		{Name: "year", Kind: KindInt},
	}); err != nil {
		t.Fatal(err)
	}
	rows := [][]string{
		{"knuth", "The Art of Computer Programming", "1968"},
		{"lamport", "Time, Clocks, and the Ordering of Events", "1978"},
		{"lamport", "The Part-Time Parliament", "1998"},
		{"hoare", "Communicating Sequential Processes", "1978"},
		{"zhao", "Supporting Flexible Communication", "1994"},
	}
	for _, r := range rows {
		if err := d.Insert("pubs", r...); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

func TestSchemaAndErrors(t *testing.T) {
	d := New()
	if err := d.CreateTable("", nil); err == nil {
		t.Error("empty table must fail")
	}
	if err := d.CreateTable("t", []Column{{Name: "a"}, {Name: "a"}}); err == nil {
		t.Error("duplicate column must fail")
	}
	if err := d.CreateTable("t", []Column{{Name: "a", Kind: KindInt}}); err != nil {
		t.Fatal(err)
	}
	if err := d.CreateTable("t", []Column{{Name: "a", Kind: KindInt}}); err == nil {
		t.Error("duplicate table must fail")
	}
	if err := d.Insert("nope", "1"); err == nil {
		t.Error("insert into unknown table must fail")
	}
	if err := d.Insert("t", "1", "2"); err == nil {
		t.Error("wrong arity must fail")
	}
	if err := d.Insert("t", "notanint"); err == nil {
		t.Error("non-integer into int column must fail")
	}
	if err := d.CreateIndex("nope", "a"); err == nil {
		t.Error("index on unknown table must fail")
	}
	if err := d.CreateIndex("t", "zz"); err == nil {
		t.Error("index on unknown column must fail")
	}
	if _, err := d.Run(Query{Table: "nope"}); err == nil {
		t.Error("query on unknown table must fail")
	}
	if _, err := d.Run(Query{Table: "t", Where: []Predicate{{Column: "zz", Op: OpEq}}}); err == nil {
		t.Error("predicate on unknown column must fail")
	}
	if _, err := d.Run(Query{Table: "t", Select: []string{"zz"}}); err == nil {
		t.Error("projection of unknown column must fail")
	}
	if got := d.Tables(); !reflect.DeepEqual(got, []string{"t"}) {
		t.Errorf("Tables = %v", got)
	}
	cols, err := d.Columns("t")
	if err != nil || len(cols) != 1 {
		t.Errorf("Columns = %v, %v", cols, err)
	}
	if _, err := d.Columns("nope"); err == nil {
		t.Error("Columns on unknown table must fail")
	}
}

func TestOperators(t *testing.T) {
	d := bibDB(t)
	cases := []struct {
		name string
		pred Predicate
		want int
	}{
		{"eq", Predicate{"author", OpEq, "lamport"}, 2},
		{"ne", Predicate{"author", OpNe, "lamport"}, 3},
		{"substring", Predicate{"title", OpSubstring, "Time"}, 2},
		{"prefix", Predicate{"title", OpPrefix, "The"}, 2},
		{"like-one-of", Predicate{"author", OpLikeOneOf, "knuth, hoare"}, 2},
		{"lt-int", Predicate{"year", OpLT, "1978"}, 1},
		{"gt-int", Predicate{"year", OpGT, "1978"}, 2},
		{"lt-string", Predicate{"author", OpLT, "l"}, 2},
		{"gt-string", Predicate{"author", OpGT, "l"}, 3},
		{"unknown-op", Predicate{"author", Op("regex"), "x"}, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			res, err := d.Run(Query{Table: "pubs", Where: []Predicate{c.pred}})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Rows) != c.want {
				t.Errorf("matched %d rows, want %d", len(res.Rows), c.want)
			}
		})
	}
}

func TestConjunctionProjectionLimit(t *testing.T) {
	d := bibDB(t)
	res, err := d.Run(Query{
		Table: "pubs",
		Where: []Predicate{
			{"author", OpEq, "lamport"},
			{"year", OpGT, "1980"},
		},
		Select: []string{"title"},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := [][]string{{"The Part-Time Parliament"}}
	if !reflect.DeepEqual(res.Rows, want) {
		t.Errorf("rows = %v", res.Rows)
	}
	if !reflect.DeepEqual(res.Columns, []string{"title"}) {
		t.Errorf("columns = %v", res.Columns)
	}
	// Limit.
	res, err = d.Run(Query{Table: "pubs", Limit: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Errorf("limited rows = %d", len(res.Rows))
	}
}

func TestIndexReducesScan(t *testing.T) {
	d := bibDB(t)
	full, err := d.Run(Query{Table: "pubs", Where: []Predicate{{"author", OpEq, "zhao"}}})
	if err != nil {
		t.Fatal(err)
	}
	if full.Scanned != 5 {
		t.Errorf("unindexed scan = %d, want 5", full.Scanned)
	}
	if err := d.CreateIndex("pubs", "author"); err != nil {
		t.Fatal(err)
	}
	indexed, err := d.Run(Query{Table: "pubs", Where: []Predicate{{"author", OpEq, "zhao"}}})
	if err != nil {
		t.Fatal(err)
	}
	if indexed.Scanned != 1 {
		t.Errorf("indexed scan = %d, want 1", indexed.Scanned)
	}
	if !reflect.DeepEqual(indexed.Rows, full.Rows) {
		t.Error("index changed the result")
	}
	// Index stays consistent across later inserts.
	if err := d.Insert("pubs", "zhao", "Another Paper", "1995"); err != nil {
		t.Fatal(err)
	}
	res, err := d.Run(Query{Table: "pubs", Where: []Predicate{{"author", OpEq, "zhao"}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Errorf("post-insert indexed rows = %d, want 2", len(res.Rows))
	}
}

func TestLenAndOps(t *testing.T) {
	d := bibDB(t)
	if d.Len("pubs") != 5 || d.Len("nope") != 0 {
		t.Error("Len wrong")
	}
	if len(Ops()) != 7 {
		t.Errorf("Ops = %v", Ops())
	}
}

func TestDeterministicOrder(t *testing.T) {
	d := bibDB(t)
	first, _ := d.Run(Query{Table: "pubs"})
	for i := 0; i < 5; i++ {
		again, _ := d.Run(Query{Table: "pubs"})
		if !reflect.DeepEqual(first.Rows, again.Rows) {
			t.Fatal("row order not deterministic")
		}
	}
}

// A Limit-ed unindexed Select scans the table in place: it allocates as often
// on a table of 100 000 rows as on one of 1 000, and no more bytes, so what
// it costs does not grow with rows it never reaches.
func TestLimitedScanAllocsFlat(t *testing.T) {
	const runs = 20
	measure := func(rows int) (allocs float64, bytes uint64) {
		d := New()
		if err := d.CreateTable("t", []Column{{Name: "k", Kind: KindString}}); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < rows; i++ {
			if err := d.Insert("t", "k"); err != nil {
				t.Fatal(err)
			}
		}
		q := Query{Table: "t", Where: []Predicate{{"k", OpEq, "k"}}, Limit: 3}
		run := func() {
			if res, err := d.Run(q); err != nil || len(res.Rows) != 3 {
				t.Fatalf("%v, %v", res, err)
			}
		}
		allocs = testing.AllocsPerRun(runs, run)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			run()
		}
		runtime.ReadMemStats(&after)
		return allocs, (after.TotalAlloc - before.TotalAlloc) / runs
	}
	smallAllocs, smallBytes := measure(1_000)
	largeAllocs, largeBytes := measure(100_000)
	if smallAllocs != largeAllocs {
		t.Fatalf("a Select limited to 3 rows allocates %v times on 1 000 rows and %v on 100 000", smallAllocs, largeAllocs)
	}
	// The slack covers what the runtime itself allocates between the reads.
	if largeBytes > smallBytes+1024 {
		t.Fatalf("a Select limited to 3 rows allocates %d bytes on 1 000 rows and %d on 100 000", smallBytes, largeBytes)
	}
}

func BenchmarkScanVsIndex(b *testing.B) {
	d := New()
	if err := d.CreateTable("t", []Column{{Name: "k", Kind: KindString}, {Name: "v", Kind: KindString}}); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 10000; i++ {
		if err := d.Insert("t", fmt.Sprintf("k%d", i), "payload"); err != nil {
			b.Fatal(err)
		}
	}
	q := Query{Table: "t", Where: []Predicate{{"k", OpEq, "k9000"}}}
	b.Run("scan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := d.Run(q); err != nil {
				b.Fatal(err)
			}
		}
	})
	if err := d.CreateIndex("t", "k"); err != nil {
		b.Fatal(err)
	}
	b.Run("index", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := d.Run(q); err != nil {
				b.Fatal(err)
			}
		}
	})
}
