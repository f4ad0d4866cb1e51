package experiments

import (
	"testing"
	"time"
)

// The experiment harnesses run with miniature parameters here; the shapes
// they must exhibit are asserted where deterministic.

// timeReps is how many times a shape test runs an experiment whose claim is
// about time: the fastest run stands for each row, so a run that a GC pause
// or the scheduler slowed does not decide the claim. Where the harness
// counts what the time measures, that count is the primary assertion.
const timeReps = 3

// fastest keeps the smaller of *d and x, taking x when *d is unset.
func fastest(d *time.Duration, x time.Duration) {
	if *d == 0 || x < *d {
		*d = x
	}
}

func TestTable1Shapes(t *testing.T) {
	rows, err := Table1()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	byArch := map[string][]Capability{}
	for _, r := range rows {
		if len(r.Capabilities) != len(CapabilityNames()) {
			t.Fatalf("%s: %d capabilities", r.Architecture, len(r.Capabilities))
		}
		byArch[r.Architecture] = r.Capabilities
	}
	// The paper's central claim: only the coupling model holds all the
	// flexibility dimensions.
	for _, c := range byArch["fully replicated + coupling"] {
		if !c.Held {
			t.Errorf("cosoft lacks %q", c.Name)
		}
	}
	// The multiplex architecture fails partial coupling, heterogeneity,
	// persistence and local response.
	mux := map[string]bool{}
	for _, c := range byArch["multiplex (shared window)"] {
		mux[c.Name] = c.Held
	}
	for _, name := range []string{"partial coupling", "heterogeneous apps", "persists after decouple", "local response"} {
		if mux[name] {
			t.Errorf("multiplex unexpectedly holds %q", name)
		}
	}
	// The UI-replicated architecture gains local response but not
	// heterogeneity.
	ui := map[string]bool{}
	for _, c := range byArch["UI-replicated"] {
		ui[c.Name] = c.Held
	}
	if !ui["local response"] {
		t.Error("ui-replicated must hold local response")
	}
	if ui["heterogeneous apps"] {
		t.Error("ui-replicated must not hold heterogeneity")
	}
}

// TestArchComparisonShapes is over 0.5 s, E2's injected latency timed
// timeReps times: it alone holds Figures 1–3's claims in counts and in time.
func TestArchComparisonShapes(t *testing.T) {
	type key struct {
		arch  string
		users int
	}
	perEvent := map[key]time.Duration{}
	for rep := 0; rep < timeReps; rep++ {
		rows, err := ArchComparison(ArchParams{
			Users:          []int{2, 4},
			Latencies:      []time.Duration{500 * time.Microsecond},
			EventsPerUser:  4,
			SharedFraction: 0.25,
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 6 {
			t.Fatalf("rows = %d", len(rows))
		}
		row := map[key]ArchLatencyRow{}
		for _, r := range rows {
			k := key{r.Architecture, r.Users}
			row[k] = r
			d := perEvent[k]
			fastest(&d, r.PerEvent)
			perEvent[k] = d
			if r.Events == 0 || r.Messages == 0 {
				t.Errorf("%s/%d: empty measurement %+v", r.Architecture, r.Users, r)
			}
		}
		// Multiplex serializes, and its single instance draws every
		// interaction on every display: its messages per interaction grow
		// with the population.
		mux2, mux4 := row[key{"multiplex", 2}], row[key{"multiplex", 4}]
		if mux4.Messages*int64(mux2.Events) <= mux2.Messages*int64(mux4.Events) {
			t.Errorf("multiplex messages per event must grow with population: %d/%d at 4 users vs %d/%d at 2",
				mux4.Messages, mux4.Events, mux2.Messages, mux2.Events)
		}
		// Under the mixed workload only coupling's shared interactions
		// wait on the server; every multiplex one waits on the instance.
		for _, users := range []int{2, 4} {
			cos, mux := row[key{"cosoft", users}], row[key{"multiplex", users}]
			if cos.RoundTrips >= mux.RoundTrips {
				t.Errorf("cosoft (%d round trips) must wait less often than multiplex (%d) at %d users",
					cos.RoundTrips, mux.RoundTrips, users)
			}
		}
	}
	// The same two claims in time, each the fastest of timeReps runs:
	// multiplex per-event latency grows with the population.
	if perEvent[key{"multiplex", 4}] <= perEvent[key{"multiplex", 2}] {
		t.Errorf("multiplex must degrade with population: %v vs %v",
			perEvent[key{"multiplex", 4}], perEvent[key{"multiplex", 2}])
	}
	// Under the mixed workload, coupling wins on response time: private
	// interactions are local, only shared ones pay the server round trip.
	for _, users := range []int{2, 4} {
		if perEvent[key{"cosoft", users}] >= perEvent[key{"multiplex", users}] {
			t.Errorf("cosoft (%v) must beat multiplex (%v) at %d users",
				perEvent[key{"cosoft", users}], perEvent[key{"multiplex", users}], users)
		}
	}
}

func TestStateVsActionShapes(t *testing.T) {
	var copyTime, replayTime time.Duration
	for rep := 0; rep < timeReps; rep++ {
		rows, err := StateVsAction([]int{1, 32})
		if err != nil {
			t.Fatal(err)
		}
		small, large := rows[0], rows[1]
		// Replay cost grows with the missed-action count; state copy is flat
		// (same single transfer regardless of history length).
		if large.ReplayMsgs <= small.ReplayMsgs {
			t.Errorf("replay messages must grow: %d vs %d", large.ReplayMsgs, small.ReplayMsgs)
		}
		if large.StateCopyMsgs != small.StateCopyMsgs {
			t.Errorf("state copy messages must be flat: %d vs %d",
				large.StateCopyMsgs, small.StateCopyMsgs)
		}
		// Compaction collapses the changed-value history to one event.
		if large.CompactEvents != 1 {
			t.Errorf("compacted events = %d, want 1", large.CompactEvents)
		}
		fastest(&copyTime, large.StateCopyTime)
		fastest(&replayTime, large.ReplayTime)
	}
	// At 32 missed actions the crossover has long happened.
	if copyTime >= replayTime {
		t.Errorf("state copy (%v) must beat replay (%v) at 32 actions", copyTime, replayTime)
	}
}

// TestFloorControlShapes holds E4 to its shape: for the same text, one-
// character events cost many more messages and more time than 64-character
// ones. Over 0.5 s: it is the only check of the §3.2 granularity claim, and
// the time comparison needs the 256 fine-grained round trips it makes.
func TestFloorControlShapes(t *testing.T) {
	var fineTime, coarseTime time.Duration
	for rep := 0; rep < timeReps; rep++ {
		rows, err := FloorControl(256, []int{1, 64})
		if err != nil {
			t.Fatal(err)
		}
		fine, coarse := rows[0], rows[1]
		if fine.Events != 256 || coarse.Events != 4 {
			t.Fatalf("event counts = %d, %d", fine.Events, coarse.Events)
		}
		// Fine-grained events pay far more messages and more total time for
		// the same text volume.
		if fine.Messages <= coarse.Messages*8 {
			t.Errorf("fine-grained must cost many more messages: %d vs %d",
				fine.Messages, coarse.Messages)
		}
		fastest(&fineTime, fine.TotalTime)
		fastest(&coarseTime, coarse.TotalTime)
	}
	if fineTime <= coarseTime {
		t.Errorf("fine-grained must be slower: %v vs %v", fineTime, coarseTime)
	}
}

func TestCompatMatchingShapes(t *testing.T) {
	rows, err := CompatMatching([]int{2, 5}, []int{2})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if !r.HeurOK {
			t.Errorf("heuristic failed at fanout %d", r.Fanout)
		}
	}
	// The naive matcher's visit count explodes with fanout; the heuristic
	// stays near-linear in node count.
	if rows[1].NaiveOK && rows[1].NaiveVisits <= rows[1].HeurVisits {
		t.Errorf("naive (%d visits) should exceed heuristic (%d visits) at fanout 5",
			rows[1].NaiveVisits, rows[1].HeurVisits)
	}
	if rows[1].HeurVisits > rows[1].Nodes*4 {
		t.Errorf("heuristic visits %d not near-linear in %d nodes",
			rows[1].HeurVisits, rows[1].Nodes)
	}
}

func TestTORIShapes(t *testing.T) {
	rows, err := TORIQueryCoupling([]int{100, 5000}, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if !r.DivergentOK {
			t.Error("divergent query must work under re-execution")
		}
		if r.ResultBytes == 0 {
			t.Error("share-results must ship bytes")
		}
	}
	// Re-execution cost grows with the database size (the paper concedes
	// share-results wins on pure evaluation cost for expensive queries):
	// counted in rows scanned, and in time.
	if rows[1].ReexecScanned <= rows[0].ReexecScanned {
		t.Errorf("re-execution must scan more of a larger db: %d vs %d rows",
			rows[1].ReexecScanned, rows[0].ReexecScanned)
	}
	if rows[1].ReexecTime <= rows[0].ReexecTime {
		t.Errorf("re-execution must scale with db size: %v vs %v",
			rows[1].ReexecTime, rows[0].ReexecTime)
	}
}

func TestIndirectCouplingShapes(t *testing.T) {
	rows, err := IndirectCoupling([]int{64, 4096})
	if err != nil {
		t.Fatal(err)
	}
	small, large := rows[0], rows[1]
	// Direct coupling ships the rendered points: bytes grow with M.
	if large.DirectBytes <= small.DirectBytes {
		t.Errorf("direct bytes must grow: %d vs %d", large.DirectBytes, small.DirectBytes)
	}
	// Indirect coupling ships only the term: bytes are flat in M.
	if large.IndirectBytes > small.IndirectBytes*2 {
		t.Errorf("indirect bytes must be ~flat: %d vs %d",
			large.IndirectBytes, small.IndirectBytes)
	}
	// And at 4096 points, indirect is the cheaper transfer.
	if large.IndirectBytes >= large.DirectBytes {
		t.Errorf("indirect (%d B) must beat direct (%d B) at 4096 points",
			large.IndirectBytes, large.DirectBytes)
	}
}

func TestOrderingShapes(t *testing.T) {
	rows, err := OrderingComparison(3, 20, []float64{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	calm, hot := rows[0], rows[1]
	// With no contention, neither scheme pays conflict costs.
	if calm.CentralRejected != 0 {
		t.Errorf("no-contention centralized rejections = %d", calm.CentralRejected)
	}
	if calm.Conflicts != 0 {
		t.Errorf("no-contention optimistic conflicts = %d", calm.Conflicts)
	}
	// Full contention must surface in at least one scheme's repair
	// mechanism (lock rejections or optimistic undos).
	if hot.CentralRejected == 0 && hot.Undos == 0 {
		t.Error("full contention produced no rejections and no undos")
	}
	if hot.CentralCompleted == 0 {
		t.Error("centralized made no progress under contention")
	}
}

func TestHistoryWalkShapes(t *testing.T) {
	rows, err := HistoryWalk([]int{1, 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if !r.UndoCorrect || !r.RedoCorrect {
			t.Errorf("depth %d: undo/redo incorrect", r.Depth)
		}
		if r.RecordTime <= 0 || r.UndoAllTime <= 0 || r.RedoAllTime <= 0 {
			t.Errorf("depth %d: non-positive timings %+v", r.Depth, r)
		}
	}
}

func TestLockingComparisonShapes(t *testing.T) {
	rows, err := LockingComparison(3, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Total <= 0 {
			t.Errorf("%s: total = %v", r.Variant, r.Total)
		}
	}
}
