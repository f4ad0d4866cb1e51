package client

import (
	"fmt"

	"cosoft/internal/couple"
	"cosoft/internal/widget"
	"cosoft/internal/wire"
)

// PartialReport describes the outcome of a best-effort coupling of two
// complex objects that are not fully s-compatible.
type PartialReport struct {
	// Coupled lists the pairs that were linked (local path, remote path).
	Coupled [][2]string
	// LocalOnly lists local component paths with no remote counterpart.
	LocalOnly []string
	// RemoteOnly lists remote component paths with no local counterpart.
	RemoteOnly []string
}

// CoupleTreePartial couples as much of two complex objects as compatibility
// allows: components are paired by name-and-class first, then by class
// within each container level; unmatched substructures on either side are
// reported and left uncoupled. This refines the initialization of nested
// objects the paper defers to future work (§5: "initialization procedures
// for making complex, hierarchically nested UI objects compatible will have
// to be refined") — where CoupleTree demands full s-compatibility,
// CoupleTreePartial degrades gracefully.
func (c *Client) CoupleTreePartial(localPath string, to couple.ObjectRef, sync SyncDirection) (PartialReport, error) {
	local, err := c.reg.CaptureTree(localPath, true)
	if err != nil {
		return PartialReport{}, err
	}
	remote, err := c.FetchState(to, true)
	if err != nil {
		return PartialReport{}, fmt.Errorf("client: fetching remote structure: %w", err)
	}
	var report PartialReport
	c.matchPartial(local, remote, "", "", &report)

	// Apply the initial synchronization and the links on the matched pairs
	// only.
	for _, pair := range report.Coupled {
		localSub := joinRel(localPath, pair[0])
		remoteSub := couple.ObjectRef{Instance: to.Instance, Path: joinRel(to.Path, pair[1])}
		switch sync {
		case SyncPull:
			if err := c.transfer(wire.CopyFrom{From: remoteSub, ToPath: localSub, Shallow: true}, maxAttempts); err != nil {
				return report, fmt.Errorf("client: initial pull of %s: %w", remoteSub, err)
			}
		case SyncPush:
			if err := c.copyToShallow(localSub, remoteSub); err != nil {
				return report, fmt.Errorf("client: initial push to %s: %w", remoteSub, err)
			}
		}
		if err := c.callOK(wire.Couple{From: c.Ref(localSub), To: remoteSub}); err != nil {
			return report, fmt.Errorf("client: coupling %s to %s: %w", localSub, remoteSub, err)
		}
	}
	return report, nil
}

// matchPartial pairs as many components as possible. Roots are paired when
// directly compatible; children pair by identical name + compatible class,
// then remaining children pair by class in order; leftovers are reported.
func (c *Client) matchPartial(a, b widget.TreeState, pathA, pathB string, report *PartialReport) {
	if _, ok := c.checker.Direct(a.Class, b.Class); !ok {
		report.LocalOnly = append(report.LocalOnly, subtreePaths(a, pathA)...)
		report.RemoteOnly = append(report.RemoteOnly, subtreePaths(b, pathB)...)
		return
	}
	report.Coupled = append(report.Coupled, [2]string{pathA, pathB})

	usedB := make([]bool, len(b.Children))
	pairedA := make([]int, len(a.Children))
	for i := range pairedA {
		pairedA[i] = -1
	}
	// Pass 1: identical names with compatible classes.
	byName := make(map[string]int, len(b.Children))
	for j, bc := range b.Children {
		byName[bc.Name] = j
	}
	for i, ac := range a.Children {
		if j, ok := byName[ac.Name]; ok && !usedB[j] {
			if _, compatible := c.checker.Direct(ac.Class, b.Children[j].Class); compatible {
				pairedA[i] = j
				usedB[j] = true
			}
		}
	}
	// Pass 2: remaining children by class, in order.
	for i, ac := range a.Children {
		if pairedA[i] >= 0 {
			continue
		}
		for j, bc := range b.Children {
			if usedB[j] {
				continue
			}
			if _, compatible := c.checker.Direct(ac.Class, bc.Class); compatible {
				pairedA[i] = j
				usedB[j] = true
				break
			}
		}
	}
	// Recurse on pairs; report leftovers.
	for i, ac := range a.Children {
		ap := joinChild(pathA, ac.Name)
		if j := pairedA[i]; j >= 0 {
			c.matchPartial(ac, b.Children[j], ap, joinChild(pathB, b.Children[j].Name), report)
		} else {
			report.LocalOnly = append(report.LocalOnly, subtreePaths(ac, ap)...)
		}
	}
	for j, bc := range b.Children {
		if !usedB[j] {
			report.RemoteOnly = append(report.RemoteOnly, subtreePaths(bc, joinChild(pathB, bc.Name))...)
		}
	}
}

// subtreePaths lists every relative path in the subtree.
func subtreePaths(ts widget.TreeState, path string) []string {
	out := []string{path}
	for _, ch := range ts.Children {
		out = append(out, subtreePaths(ch, joinChild(path, ch.Name))...)
	}
	return out
}

func joinChild(prefix, name string) string {
	if prefix == "" {
		return name
	}
	return prefix + "/" + name
}
