package server

import (
	"fmt"
	"testing"

	"cosoft/internal/couple"
	"cosoft/internal/testbed"
	"cosoft/internal/wire"
)

// waitNoLiveBodies polls until every shared broadcast body in the process
// has been released — the quiescence invariant of the encode-once path.
func waitNoLiveBodies(t *testing.T) {
	t.Helper()
	testbed.Wait(t, "every shared body released (LiveSharedBodies = 0 at quiescence)", func() bool {
		return wire.LiveSharedBodies() == 0
	})
}

// TestOutboxDeathReleasesSharedBodiesExactlyOnce is the regression test for
// the eviction decref bug class: when a connection dies (the eviction path
// kills it out from under the writer) while shared-body records are both
// in flight and still queued, every reference must be dropped exactly once.
// A double release panics in SharedExec.Release, a leak trips the liveBodies
// oracle — and -race checks the release ordering.
func TestOutboxDeathReleasesSharedBodiesExactlyOnce(t *testing.T) {
	o, peer := outboxPair(t, 0, 8)
	se := wire.NewSharedExec(7, "set", nil, couple.ObjectRef{Instance: "a", Path: "/n"})

	// The writer takes the first record and blocks writing it (net.Pipe has
	// no buffer and nobody reads) — a broadcast caught mid-flush.
	o.sendShared(wire.Envelope{}, "/m0", se)
	waitDrained(t, o, 1)
	// The rest of the fan-out piles up behind the blocked writer.
	for i := 1; i <= 4; i++ {
		o.sendShared(wire.Envelope{}, fmt.Sprintf("/m%d", i), se)
	}
	se.Release() // creator is done enqueueing

	// Kill the connection out from under the writer, exactly as dropClient
	// does on eviction: the blocked write errors, flush releases the record
	// it held, and the writer loop releases the still-queued backlog.
	peer.Close()
	o.close()

	waitNoLiveBodies(t)

	// Sends after death must not take references the dead writer would
	// never release.
	o.sendShared(wire.Envelope{}, "/late", se)
	waitNoLiveBodies(t)
}
