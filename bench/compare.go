package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// Verdicts of one metric on one workload.
const (
	verdictOK         = "ok"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// judge compares base value a with b for metric m. A metric is worse when b
// is worse than a by more than the bound; when the slice-to-slice spread of
// either run is wider than the bound the two cannot be told apart at that
// resolution, and the verdict is unresolved instead of ok or worse.
func judge(m metricDef, a, b, spreadA, spreadB float64) (ratio float64, verdict string) {
	if a == 0 {
		return 0, verdictUnresolved
	}
	ratio = b / a
	loss := ratio - 1 // how much worse b is, as a share of a
	if m.Better == higher {
		loss = 1 - ratio
	}
	switch {
	case max(spreadA, spreadB) > m.Bound:
		return ratio, verdictUnresolved
	case loss > m.Bound:
		return ratio, verdictWorse
	}
	return ratio, verdictOK
}

func readResultFile(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// compareFiles prints, per workload and end-to-end metric, both values, the
// ratio with its base, the bound and the verdict. It reports whether any
// metric got worse or any compared run was incorrect.
func compareFiles(w io.Writer, pathA, pathB string) (worse bool, err error) {
	a, err := readResultFile(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResultFile(pathB)
	if err != nil {
		return false, err
	}
	var keys []string
	for k := range a.Fingerprint {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if a.Fingerprint[k] != b.Fingerprint[k] {
			fmt.Fprintf(w, "fingerprints differ: %s is %q in %s and %q in %s\n",
				k, a.Fingerprint[k], pathA, b.Fingerprint[k], pathB)
		}
	}
	other := make(map[string]*result)
	for _, r := range b.Workloads {
		other[r.Workload] = r
	}
	fmt.Fprintf(w, "%-13s %-16s %14s %14s %12s %6s  %s\n", "workload", "metric", "a", "b", "b/a", "bound", "verdict")
	for _, ra := range a.Workloads {
		rb, ok := other[ra.Workload]
		if !ok {
			fmt.Fprintf(w, "%-13s missing from %s\n", ra.Workload, pathB)
			continue
		}
		for _, r := range []*result{ra, rb} {
			if !r.Correct {
				fmt.Fprintf(w, "%-13s failed its checks (%d of %d)\n", r.Workload, r.Failed, r.Attempted)
				worse = true
			}
		}
		for _, m := range endToEnd {
			va, vb := ra.Metrics[m.Name], rb.Metrics[m.Name]
			ratio, verdict := judge(m, va, vb, spread(ra.Slices[m.Name]), spread(rb.Slices[m.Name]))
			fmt.Fprintf(w, "%-13s %-16s %14.4f %14.4f %11.4fx %5.0f%%  %s\n",
				ra.Workload, m.Name, va, vb, ratio, m.Bound*100, verdict)
			worse = worse || verdict == verdictWorse
		}
	}
	return worse, nil
}
