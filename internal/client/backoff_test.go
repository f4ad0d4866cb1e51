package client

import (
	"math/rand/v2"
	"testing"
	"time"
)

// A mass restart disconnects every client at once, and with the old
// delay-plus-sliver jitter their retries stayed phase-locked: the random
// part was at most half the deterministic part, so wave after wave hit the
// server inside a narrow band. Full jitter draws the whole window, so 50
// clients retrying at the same attempt number must spread across it.
func TestBackoffDispersion(t *testing.T) {
	const clients = 50
	for _, attempt := range []int{1, 3, 6, 10} {
		ceil := maxDelay
		if d := baseDelay << (attempt - 1); d < ceil {
			ceil = d
		}
		delays := make([]time.Duration, clients)
		lo, hi := time.Duration(1<<62), time.Duration(0)
		distinct := make(map[time.Duration]bool)
		for i := range delays {
			// Each client gets its own PRNG, as each real client process does.
			rng := rand.New(rand.NewPCG(uint64(attempt)*1000+uint64(i)+1, uint64(i)+7))
			d := backoffDelay(rng, attempt)
			if d < 0 || d > ceil {
				t.Fatalf("attempt %d: delay %v outside [0, %v]", attempt, d, ceil)
			}
			delays[i] = d
			distinct[d] = true
			if d < lo {
				lo = d
			}
			if d > hi {
				hi = d
			}
		}
		// Dispersion: 50 independent draws from [0, ceil] are essentially
		// never confined to a narrow band. Require the spread to cover at
		// least half the window and nearly all draws to differ — generous
		// bounds a phase-locked scheme cannot meet (its jitter band is at
		// most a third of the total delay, and a shared stream collapses
		// every draw to one value).
		if hi-lo < ceil/2 {
			t.Fatalf("attempt %d: retry spread %v over a %v window — phase-locked", attempt, hi-lo, ceil)
		}
		if len(distinct) < clients*8/10 {
			t.Fatalf("attempt %d: only %d distinct delays across %d clients", attempt, len(distinct), clients)
		}
	}
}

// The backoff window must grow exponentially from baseDelay and saturate at
// maxDelay, and clients must not share a jitter stream.
func TestBackoffWindowAndSeeding(t *testing.T) {
	for attempt, want := range map[int]time.Duration{
		1:   50 * time.Millisecond,
		2:   100 * time.Millisecond,
		3:   200 * time.Millisecond,
		4:   400 * time.Millisecond,
		5:   800 * time.Millisecond,
		6:   1600 * time.Millisecond,
		7:   2 * time.Second, // capped
		100: 2 * time.Second, // shift guard: no overflow at silly attempts
	} {
		hi := time.Duration(0)
		rng := rand.New(rand.NewPCG(1, 2))
		for i := 0; i < 2000; i++ {
			if d := backoffDelay(rng, attempt); d > hi {
				hi = d
			}
		}
		if hi > want {
			t.Fatalf("attempt %d: observed delay %v beyond window %v", attempt, hi, want)
		}
		if hi < want/2 {
			t.Fatalf("attempt %d: 2000 draws peaked at %v, window %v not exercised", attempt, hi, want)
		}
	}

	// Two clients must draw from different streams.
	a1, b1 := jitterSeeds()
	a2, b2 := jitterSeeds()
	if a1 == a2 && b1 == b2 {
		t.Fatal("two clients share a jitter stream")
	}
}
