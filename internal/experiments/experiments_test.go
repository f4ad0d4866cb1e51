package experiments

import (
	"testing"
	"time"
)

// The experiment harnesses run with miniature parameters here; the shapes
// they must exhibit are asserted where deterministic.

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

func TestArchComparisonShapes(t *testing.T) {
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
	// Multiplex serializes: per-event latency grows with the population.
	perEvent := map[string]map[int]time.Duration{}
	for _, r := range rows {
		if perEvent[r.Architecture] == nil {
			perEvent[r.Architecture] = map[int]time.Duration{}
		}
		perEvent[r.Architecture][r.Users] = r.PerEvent
		if r.Events == 0 || r.Messages == 0 {
			t.Errorf("%s/%d: empty measurement %+v", r.Architecture, r.Users, r)
		}
	}
	if perEvent["multiplex"][4] <= perEvent["multiplex"][2] {
		t.Errorf("multiplex must degrade with population: %v vs %v",
			perEvent["multiplex"][4], perEvent["multiplex"][2])
	}
	// Under the mixed workload, coupling wins on response time: private
	// interactions are local, only shared ones pay the server round trip.
	for _, users := range []int{2, 4} {
		if perEvent["cosoft"][users] >= perEvent["multiplex"][users] {
			t.Errorf("cosoft (%v) must beat multiplex (%v) at %d users",
				perEvent["cosoft"][users], perEvent["multiplex"][users], users)
		}
	}
}

func TestStateVsActionShapes(t *testing.T) {
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
	// At 32 missed actions the crossover has long happened.
	if large.StateCopyTime >= large.ReplayTime {
		t.Errorf("state copy (%v) must beat replay (%v) at 32 actions",
			large.StateCopyTime, large.ReplayTime)
	}
}

func TestFloorControlShapes(t *testing.T) {
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
	if fine.TotalTime <= coarse.TotalTime {
		t.Errorf("fine-grained must be slower: %v vs %v", fine.TotalTime, coarse.TotalTime)
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
