// Command experiments regenerates every table and figure of the paper's
// evaluation (the comparison table of §2.2, the architecture behaviour of
// Figures 1–3, and the quantified claims of §3–§4). See DESIGN.md §4 for the
// experiment index and EXPERIMENTS.md for paper-vs-measured notes.
//
// Usage:
//
//	experiments [-e all|table1|arch|statevsaction|floorlock|compat|tori|indirect|ordering|history] [-quick]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"text/tabwriter"
	"time"

	"cosoft/internal/experiments"
)

func main() {
	exp := flag.String("e", "all", "experiment to run (all, table1, arch, statevsaction, floorlock, compat, tori, indirect, ordering, history, locking)")
	quick := flag.Bool("quick", false, "use reduced parameter sweeps")
	flag.Parse()

	runners := []struct {
		name string
		fn   func(quick bool) error
	}{
		{"table1", runTable1},
		{"arch", runArch},
		{"statevsaction", runStateVsAction},
		{"floorlock", runFloorLock},
		{"compat", runCompat},
		{"tori", runTORI},
		{"indirect", runIndirect},
		{"ordering", runOrdering},
		{"history", runHistory},
		{"locking", runLocking},
	}
	ran := false
	for _, r := range runners {
		if *exp != "all" && *exp != r.name {
			continue
		}
		ran = true
		if err := r.fn(*quick); err != nil {
			fmt.Fprintf(os.Stderr, "experiment %s: %v\n", r.name, err)
			os.Exit(1)
		}
		fmt.Println()
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		os.Exit(2)
	}
}

func header(title, artifact string) {
	fmt.Printf("=== %s\n    paper artifact: %s\n", title, artifact)
}

func tw() *tabwriter.Writer {
	return tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
}

func yn(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}

func runTable1(bool) error {
	header("E1: comparison of application-independent synchronization approaches", "Table, §2.2")
	rows, err := experiments.Table1()
	if err != nil {
		return err
	}
	w := tw()
	fmt.Fprintf(w, "architecture\treference\t%s\n", strings.Join(experiments.CapabilityNames(), "\t"))
	for _, r := range rows {
		cells := make([]string, len(r.Capabilities))
		for i, c := range r.Capabilities {
			cells[i] = yn(c.Held)
		}
		fmt.Fprintf(w, "%s\t%s\t%s\n", r.Architecture, r.Reference, strings.Join(cells, "\t"))
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Println("\nprobe notes:")
	for _, r := range rows {
		for _, c := range r.Capabilities {
			fmt.Printf("  %-28s %-24s %s\n", r.Architecture, c.Name, c.Note)
		}
	}
	return nil
}

func runArch(quick bool) error {
	header("E2: architecture behaviour (latency & message cost)", "Figures 1-3, §2.1")
	p := experiments.DefaultArchParams()
	if quick {
		p = experiments.ArchParams{Users: []int{2, 4}, Latencies: []time.Duration{time.Millisecond},
			EventsPerUser: 8, SharedFraction: 0.25}
	}
	rows, err := experiments.ArchComparison(p)
	if err != nil {
		return err
	}
	w := tw()
	fmt.Fprintln(w, "architecture\tusers\tnet latency\tresponse/event\tevents\tmessages\tround trips")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%d\t%v\t%v\t%d\t%d\t%d\n",
			r.Architecture, r.Users, r.Latency, r.PerEvent.Round(time.Microsecond), r.Events, r.Messages, r.RoundTrips)
	}
	return w.Flush()
}

func runStateVsAction(quick bool) error {
	header("E3: synchronization by state vs by action after decoupling", "§3.1")
	missed := []int{1, 10, 100, 1000}
	if quick {
		missed = []int{1, 10, 100}
	}
	rows, err := experiments.StateVsAction(missed)
	if err != nil {
		return err
	}
	w := tw()
	fmt.Fprintln(w, "missed actions\treplay\treplay msgs\tcompacted\tcompacted msgs\tsurviving events\tstate copy\tcopy msgs")
	for _, r := range rows {
		fmt.Fprintf(w, "%d\t%v\t%d\t%v\t%d\t%d\t%v\t%d\n",
			r.MissedActions,
			r.ReplayTime.Round(time.Microsecond), r.ReplayMsgs,
			r.CompactTime.Round(time.Microsecond), r.CompactMsgs, r.CompactEvents,
			r.StateCopyTime.Round(time.Microsecond), r.StateCopyMsgs)
	}
	return w.Flush()
}

func runFloorLock(quick bool) error {
	header("E4: floor-control cost vs event granularity", "§3.2")
	textLen := 2048
	grans := []int{1, 4, 16, 64, 256}
	if quick {
		textLen = 512
		grans = []int{1, 16, 256}
	}
	rows, err := experiments.FloorControl(textLen, grans)
	if err != nil {
		return err
	}
	w := tw()
	fmt.Fprintln(w, "chars/event\tevents\ttotal\tper char\tmessages\trejections\tlocal only\toverhead share")
	for _, r := range rows {
		fmt.Fprintf(w, "%d\t%d\t%v\t%v\t%d\t%d\t%v\t%.1f%%\n",
			r.CharsPerEvent, r.Events,
			r.TotalTime.Round(time.Microsecond), r.PerChar.Round(time.Nanosecond),
			r.Messages, r.Rejections,
			r.UncoupledTime.Round(time.Microsecond), 100*r.OverheadShare)
	}
	return w.Flush()
}

func runCompat(quick bool) error {
	header("E5: s-compatibility mapping search cost", "§3.3")
	fanouts := []int{2, 4, 6, 8}
	depths := []int{2, 4}
	if quick {
		fanouts = []int{2, 5}
		depths = []int{2}
	}
	rows, err := experiments.CompatMatching(fanouts, depths)
	if err != nil {
		return err
	}
	w := tw()
	fmt.Fprintln(w, "fanout\tdepth\tnodes\tnaive visits\tnaive time\tnaive ok\theuristic visits\theuristic time")
	for _, r := range rows {
		fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%v\t%v\t%d\t%v\n",
			r.Fanout, r.Depth, r.Nodes,
			r.NaiveVisits, r.NaiveTime.Round(time.Microsecond), yn(r.NaiveOK),
			r.HeurVisits, r.HeurTime.Round(time.Microsecond))
	}
	return w.Flush()
}

func runTORI(quick bool) error {
	header("E6: TORI — multiple query evaluation vs evaluate-once-and-share", "§4")
	sizes := []int{100, 1000, 10000, 100000}
	if quick {
		sizes = []int{100, 10000}
	}
	rows, err := experiments.TORIQueryCoupling(sizes, 4)
	if err != nil {
		return err
	}
	w := tw()
	fmt.Fprintln(w, "db rows\tusers\tre-execute (N evals)\trows scanned\tshare (1 eval + N-1 xfers)\tresult bytes\tdivergent query ok")
	for _, r := range rows {
		fmt.Fprintf(w, "%d\t%d\t%v\t%d\t%v\t%d\t%v\n",
			r.DBRows, r.Users,
			r.ReexecTime.Round(time.Microsecond), r.ReexecScanned, r.ShareTime.Round(time.Microsecond),
			r.ResultBytes, yn(r.DivergentOK))
	}
	return w.Flush()
}

func runIndirect(quick bool) error {
	header("E7: indirect coupling of dependent objects", "§4 (COSOFT lessons)")
	points := []int{64, 512, 4096, 32768}
	if quick {
		points = []int{64, 4096}
	}
	rows, err := experiments.IndirectCoupling(points)
	if err != nil {
		return err
	}
	w := tw()
	fmt.Fprintln(w, "display points\tdirect time\tdirect bytes\tindirect time\tindirect bytes")
	for _, r := range rows {
		fmt.Fprintf(w, "%d\t%v\t%d\t%v\t%d\n",
			r.DisplayPoints,
			r.DirectTime.Round(time.Microsecond), r.DirectBytes,
			r.IndirectTime.Round(time.Microsecond), r.IndirectBytes)
	}
	return w.Flush()
}

func runOrdering(quick bool) error {
	header("E8: centralized control vs timestamp ordering", "§2.1")
	users, ops := 4, 50
	shares := []float64{0, 0.25, 0.5, 1}
	if quick {
		users, ops = 3, 20
		shares = []float64{0, 1}
	}
	rows, err := experiments.OrderingComparison(users, ops, shares)
	if err != nil {
		return err
	}
	w := tw()
	fmt.Fprintln(w, "hot share\tcentral time\tcentral rejected\tcentral done\toptimistic time\tconflicts\tundos")
	for _, r := range rows {
		fmt.Fprintf(w, "%.0f%%\t%v\t%d\t%d\t%v\t%d\t%d\n",
			100*r.HotShare,
			r.CentralTime.Round(time.Microsecond), r.CentralRejected, r.CentralCompleted,
			r.OptimisticTime.Round(time.Microsecond), r.Conflicts, r.Undos)
	}
	return w.Flush()
}

func runHistory(quick bool) error {
	header("E9: historical UI states (undo/redo)", "§2.1, §3.1")
	depths := []int{1, 4, 16, 32}
	if quick {
		depths = []int{1, 8}
	}
	rows, err := experiments.HistoryWalk(depths)
	if err != nil {
		return err
	}
	w := tw()
	fmt.Fprintln(w, "depth\trecord\tundo all\tredo all\tundo correct\tredo correct")
	for _, r := range rows {
		fmt.Fprintf(w, "%d\t%v\t%v\t%v\t%v\t%v\n",
			r.Depth,
			r.RecordTime.Round(time.Microsecond),
			r.UndoAllTime.Round(time.Microsecond),
			r.RedoAllTime.Round(time.Microsecond),
			yn(r.UndoCorrect), yn(r.RedoCorrect))
	}
	return w.Flush()
}

func runLocking(quick bool) error {
	header("E10: group-locking variants under contention", "ablation (DESIGN.md decision 2)")
	users, ops := 4, 25
	if quick {
		users, ops = 3, 10
	}
	rows, err := experiments.LockingComparison(users, ops)
	if err != nil {
		return err
	}
	w := tw()
	fmt.Fprintln(w, "variant\tusers\tops/user\ttotal\tlock denials")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%d\t%d\t%v\t%d\n",
			r.Variant, r.Users, r.OpsPerUser, r.Total.Round(time.Microsecond), r.Denials)
	}
	return w.Flush()
}
