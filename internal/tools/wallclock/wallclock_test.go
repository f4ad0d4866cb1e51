package wallclock

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// guarded are the packages whose deadlines, tickers and timers run on
// clock.Clock, and the in-process network whose packets fall due on one.
var guarded = []string{"internal/server", "internal/client", "internal/eventlog", "internal/netsim"}

// allowed are the measurement sites that stay on the wall clock: each is
// compared against an obs start time (pe.start, from the server.event_rtt_ns
// histogram's Start), which is a wall-clock reading, and each says so in a
// comment.
var allowed = map[string]bool{
	"internal/server/events.go Server.ackClock time.Now": true,
	"internal/server/events.go Server.ackExec time.Now":  true,
}

// TestNoWallClockInDeadlinePackages fails on any wall-clock read, wait or
// timer in the guarded packages outside the measurement allowlist, and on an
// allowlist entry that no longer names a site.
func TestNoWallClockInDeadlinePackages(t *testing.T) {
	sites, err := scan("../../..", guarded...)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	for _, s := range sites {
		seen[s.Key()] = true
		if !allowed[s.Key()] {
			t.Errorf("%v: use the injected clock (Options.Clock), or allowlist a measurement site", s)
		}
	}
	for k := range allowed {
		if !seen[k] {
			t.Errorf("allowlisted %q is not in the code any more", k)
		}
	}
}

// The scanner finds every banned function, called or referenced, under any
// import name, attributes it to its function or method, and skips test files
// and the time functions that read no clock.
func TestScanFindsWallClock(t *testing.T) {
	root := t.TempDir()
	write := func(name, src string) {
		t.Helper()
		path := filepath.Join(root, "pkg", name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("a.go", `package pkg

import "time"

var start = time.Now()

type server struct{}

func (s *server) sweep() {
	now := time.Now()
	_ = now.Add(time.Second)
	_ = time.Duration(3)
}

func wait(d time.Duration) {
	<-time.After(d)
	clock := time.Since
	_ = clock
}
`)
	write("b.go", `package pkg

import wall "time"

func nap() { wall.Sleep(wall.Millisecond) }
`)
	write("a_test.go", `package pkg

import "time"

func helper() { time.Sleep(1) }
`)
	sites, err := scan(root, "pkg")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, s := range sites {
		got = append(got, s.Key())
	}
	want := []string{
		"pkg/a.go  time.Now",
		"pkg/a.go server.sweep time.Now",
		"pkg/a.go wait time.After",
		"pkg/a.go wait time.Since",
		"pkg/b.go nap time.Sleep",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("found\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
