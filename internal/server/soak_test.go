package server_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"cosoft/internal/attr"
	"cosoft/internal/client"
	"cosoft/internal/server"
	"cosoft/internal/widget"
)

// TestSoakConvergence drives a population of clients through a random mix
// of events, couplings and decouplings, then asserts the floor-control
// invariant: after the system quiesces, every coupling group's members hold
// identical relevant state. Accepted events cannot overlap within a group
// (the lock is held until every member acknowledged), so replacement events
// must leave all members equal.
func TestSoakConvergence(t *testing.T) {
	const (
		clients = 6
		rounds  = 40
	)
	h := newHarness(t, server.Options{})
	cls := make([]*client.Client, clients)
	for i := range cls {
		// One plain peer among the batching clients, as in the benchmark's
		// groups.
		dial := h.dial
		if i == 0 {
			dial = h.dialPlain
		}
		cls[i] = dial("soak", fmt.Sprintf("u%d", i), `textfield pad value=""`, client.Options{})
		mustOK(t, cls[i].Declare("/pad"))
	}

	var wg sync.WaitGroup
	for i := range cls {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(i) * 7919))
			for round := 0; round < rounds; round++ {
				switch op := r.Intn(100); {
				case op < 70:
					// A replacement event; denial and retry are normal.
					ev := &widget.Event{Path: "/pad", Name: widget.EventChanged,
						Args: []attr.Value{attr.String(fmt.Sprintf("c%d-r%d", i, round))}}
					deadline := time.Now().Add(5 * time.Second)
					for {
						if err := cls[i].DispatchChecked(ev); err == nil {
							break
						}
						if time.Now().After(deadline) {
							t.Errorf("client %d: event never accepted", i)
							return
						}
						time.Sleep(200 * time.Microsecond)
					}
				case op < 85:
					peer := r.Intn(clients)
					if peer == i {
						continue
					}
					// Coupling can race with identical links; both outcomes
					// are legal.
					_ = cls[i].Couple("/pad", cls[peer].Ref("/pad")) //nolint:errcheck
				default:
					peer := r.Intn(clients)
					if peer == i {
						continue
					}
					_ = cls[i].Decouple("/pad", cls[peer].Ref("/pad")) //nolint:errcheck
				}
			}
		}(i)
	}
	wg.Wait()

	// Quiesce: no client is acting anymore; wait until in-flight execs have
	// drained, then check every group's members agree.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if groupsConverged(cls) {
			return
		}
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	// Report the divergence in detail.
	for i, c := range cls {
		w, err := c.Registry().Lookup("/pad")
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
		t.Logf("client %d (%s): value=%q group=%v",
			i, c.ID(), w.Attr(widget.AttrValue).AsString(), c.CO("/pad"))
	}
	t.Fatal("coupling groups did not converge")
}

// groupsConverged checks that for every client, all members of its mirrored
// coupling group report the same pad value.
func groupsConverged(cls []*client.Client) bool {
	byID := make(map[string]*client.Client, len(cls))
	for _, c := range cls {
		byID[string(c.ID())] = c
	}
	for _, c := range cls {
		w, err := c.Registry().Lookup("/pad")
		if err != nil {
			return false
		}
		mine := w.Attr(widget.AttrValue).AsString()
		for _, member := range c.CO("/pad") {
			peer, ok := byID[string(member.Instance)]
			if !ok {
				return false
			}
			pw, err := peer.Registry().Lookup(member.Path)
			if err != nil {
				return false
			}
			if pw.Attr(widget.AttrValue).AsString() != mine {
				return false
			}
		}
	}
	return true
}
