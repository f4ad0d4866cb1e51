package server

import (
	"fmt"
	"testing"
	"time"

	"cosoft/internal/couple"
)

// TestMigrationInstallCannotOvertakeMarker is the regression test for the
// hand-off wedge: the receiving loop is busy while the hold marker is queued
// and the donor sends the bundle, so when it comes back both the marker and
// the install are ready at once. A loop that listens for installs before it
// has run the marker may install first, then run the marker and stay parked
// forever — every later request to that shard, and the next migration into
// it, hangs. Each round below is one such coin toss, so a regression fails
// with near certainty; everything waits under a deadline so a wedge fails
// the test instead of hanging it.
func TestMigrationInstallCannotOvertakeMarker(t *testing.T) {
	s := New(Options{Shards: 2})
	defer s.Close()
	from, to := s.shards[0], s.shards[1]

	within := func(what string, ch <-chan struct{}) {
		t.Helper()
		select {
		case <-ch:
		case <-time.After(5 * time.Second):
			t.Fatalf("timed out waiting for %s: the receiving shard is wedged", what)
		}
	}
	// ran posts a no-op to sh and returns a channel closed once it has run.
	ran := func(sh *shard) <-chan struct{} {
		ch := make(chan struct{})
		s.postShard(sh, func() { close(ch) })
		return ch
	}

	for round := 0; round < 20; round++ {
		ref := couple.ObjectRef{Instance: "x-1", Path: fmt.Sprintf("/r%d", round)}
		s.routes.set([]couple.ObjectRef{ref}, from.idx)

		// Occupy the receiver, then start the migration on the global loop.
		entered, release := make(chan struct{}), make(chan struct{})
		s.postShard(to, func() { close(entered); <-release })
		within("receiver to block", entered)
		migrated := make(chan struct{})
		s.post(func() {
			s.migrateGroup(from, to, []couple.ObjectRef{ref})
			close(migrated)
		})
		// The route flips between queueing the marker and posting the
		// extraction; once it has, a no-op behind the extraction on the donor
		// proves the bundle is sent. (Two, in case the first slipped in
		// between the flip and the post.)
		for s.routes.shard(ref) != to.idx {
			time.Sleep(50 * time.Microsecond)
		}
		within("donor extraction", ran(from))
		time.Sleep(time.Millisecond)
		within("donor extraction", ran(from))

		close(release)
		within("migration to complete", migrated)
		within("receiver to run a request after the install", ran(to))
	}
}
