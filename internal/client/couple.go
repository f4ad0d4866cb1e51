package client

import (
	"fmt"

	"cosoft/internal/compat"
	"cosoft/internal/couple"
	"cosoft/internal/widget"
	"cosoft/internal/wire"
)

// SyncDirection selects the initial state synchronization performed when
// coupling: "After two complex UI objects are initially synchronized by
// copying the UI state, synchronization among coupled UI objects is
// accomplished by re-executing actions" (§3.2).
type SyncDirection int

// Initial synchronization choices for CoupleTree.
const (
	// SyncNone couples without initial state transfer.
	SyncNone SyncDirection = iota
	// SyncPull copies the remote state onto the local objects first.
	SyncPull
	// SyncPush copies the local state onto the remote objects first.
	SyncPush
)

// Couple creates a couple link from a local object to a remote object.
func (c *Client) Couple(localPath string, to couple.ObjectRef) error {
	return c.callOK(wire.Couple{From: c.Ref(localPath), To: to})
}

// Decouple removes the link between a local object and a remote object. The
// objects keep existing and keep their current states — decoupled objects
// "will not cease to exist when being decoupled so that coupling can be used
// to transfer information between environments" (§2.2).
func (c *Client) Decouple(localPath string, to couple.ObjectRef) error {
	return c.callOK(wire.Decouple{From: c.Ref(localPath), To: to})
}

// RemoteCouple creates a couple link between two objects of other instances
// (§3.3): the basis of the teacher's interactive coupling control, which is
// "initiated from outside the respective applications" (§4).
func (c *Client) RemoteCouple(a, b couple.ObjectRef) error {
	return c.callOK(wire.Couple{From: a, To: b})
}

// RemoteDecouple removes a link between two objects of other instances.
func (c *Client) RemoteDecouple(a, b couple.ObjectRef) error {
	return c.callOK(wire.Decouple{From: a, To: b})
}

// CoupleTree couples a local complex object with a remote complex object:
// it fetches the remote structure, computes the s-compatibility mapping α
// (§3.3), optionally performs the initial state synchronization, and then
// couples every mapped component pair. It returns the number of links
// created.
func (c *Client) CoupleTree(localPath string, to couple.ObjectRef, sync SyncDirection) (int, error) {
	local, err := c.reg.CaptureTree(localPath, true)
	if err != nil {
		return 0, err
	}
	remote, err := c.FetchState(to, true)
	if err != nil {
		return 0, fmt.Errorf("client: fetching remote structure: %w", err)
	}
	pairs, ok, _ := c.checker.SCompatible(local, remote, compat.MatchOptions{Heuristic: true})
	if !ok {
		// The heuristic can miss exotic mappings; retry exhaustively with a
		// budget before giving up.
		pairs, ok, _ = c.checker.SCompatible(local, remote, compat.MatchOptions{MaxVisits: 100000})
	}
	if !ok {
		return 0, fmt.Errorf("client: %s and %s are not structurally compatible",
			localPath, to)
	}
	// Initial synchronization runs per mapped pair with shallow copies, so
	// the destination keeps its own component names and structure — only
	// the relevant attributes of corresponding components are aligned.
	for _, p := range pairs {
		localSub := joinRel(localPath, p.A)
		remoteSub := couple.ObjectRef{Instance: to.Instance, Path: joinRel(to.Path, p.B)}
		switch sync {
		case SyncPull:
			if err := c.transfer(wire.CopyFrom{From: remoteSub, ToPath: localSub, Shallow: true}, maxAttempts); err != nil {
				return 0, fmt.Errorf("client: initial pull of %s: %w", remoteSub, err)
			}
		case SyncPush:
			if err := c.copyToShallow(localSub, remoteSub); err != nil {
				return 0, fmt.Errorf("client: initial push to %s: %w", remoteSub, err)
			}
		}
	}
	created := 0
	for _, p := range pairs {
		from := c.Ref(joinRel(localPath, p.A))
		target := couple.ObjectRef{Instance: to.Instance, Path: joinRel(to.Path, p.B)}
		if err := c.callOK(wire.Couple{From: from, To: target}); err != nil {
			return created, fmt.Errorf("client: coupling %s to %s: %w", from, target, err)
		}
		created++
	}
	return created, nil
}

// DecoupleTree removes the links between every locally mirrored pair of the
// two complex objects' components.
func (c *Client) DecoupleTree(localPath string, to couple.ObjectRef) (int, error) {
	removed := 0
	var firstErr error
	err := c.reg.Walk(localPath, func(w *widget.Widget) error {
		for _, peer := range c.links.CO(c.Ref(w.Path())) {
			if peer.Instance == to.Instance && isWithin(peer.Path, to.Path) {
				if err := c.Decouple(w.Path(), peer); err != nil {
					if firstErr == nil {
						firstErr = err
					}
					continue
				}
				removed++
			}
		}
		return nil
	})
	if err != nil {
		return removed, err
	}
	return removed, firstErr
}

// joinRel appends a mapping-relative path ("" is the root itself).
func joinRel(base, rel string) string {
	if rel == "" {
		return base
	}
	if base == "/" {
		return "/" + rel
	}
	return base + "/" + rel
}

// isWithin reports whether path lies in the subtree rooted at root.
func isWithin(path, root string) bool {
	if path == root {
		return true
	}
	if root == "/" {
		return true
	}
	return len(path) > len(root) && path[:len(root)] == root && path[len(root)] == '/'
}
