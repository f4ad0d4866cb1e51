package repl

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"cosoft/internal/server"
)

// serveHealth returns a REPL wired to a fake /debug/groups endpoint.
func serveHealth(t *testing.T, rep server.HealthReport) (*REPL, *strings.Builder) {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/debug/groups" {
			http.NotFound(w, r)
			return
		}
		json.NewEncoder(w).Encode(rep)
	}))
	t.Cleanup(srv.Close)
	var out strings.Builder
	r := New(nil, &out)
	r.SetMetricsBase(srv.URL)
	return r, &out
}

func TestGroupsCommandPrintsStragglerAndLoops(t *testing.T) {
	rep := server.HealthReport{
		UptimeNS:          2_500_000_000,
		MemberAttribution: true,
		Loops: []server.LoopHealth{
			{Name: "global", BusyNS: 250_000_000, Utilization: 0.1, QueueDepth: 1, QueueHighWater: 4},
			{Name: "event_lock", Events: 7, PendingEvents: 1},
		},
		Groups: []server.GroupHealth{{
			Refs:          []string{"inst-a:/note", "inst-b:/note", "inst-c:/note"},
			LockHolder:    "inst-a",
			PendingEvents: 1,
			Straggler:     "inst-c",
			Members: []server.MemberHealth{
				{Instance: "inst-c", Connected: true, Acks: 7, LastAcks: 7,
					AckEWMANS: 25_000_000, AckP50NS: 25_000_000, AckP99NS: 26_000_000},
				{Instance: "inst-b", Connected: true, Acks: 7, AckEWMANS: 90_000},
				{Instance: "inst-a", Connected: false},
			},
		}},
	}
	r, out := serveHealth(t, rep)
	if err := r.Execute("groups"); err != nil {
		t.Fatalf("groups: %v", err)
	}
	got := out.String()
	for _, want := range []string{
		"uptime 2.5s, member attribution on",
		"loop global: 10.0% busy, queue 1 (high water 4)",
		"loop event_lock: 0.0% busy, queue 0 (high water 0), events 7 (1 pending)",
		"group [inst-a:/note inst-b:/note inst-c:/note]",
		"locked by inst-a, 1 pending events",
		"straggler: inst-c",
		"inst-c acks=7 last=7 timeouts=0 ewma=25ms p50=25ms p99=26ms",
		"inst-b acks=7 last=0 timeouts=0 ewma=90µs",
		"inst-a (disconnected) acks=0",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

func TestGroupsCommandEmptyReport(t *testing.T) {
	r, out := serveHealth(t, server.HealthReport{MemberAttribution: true,
		Loops: []server.LoopHealth{{Name: "global"}}})
	if err := r.Execute("groups"); err != nil {
		t.Fatalf("groups: %v", err)
	}
	if !strings.Contains(out.String(), "no coupling groups") {
		t.Errorf("output = %q", out.String())
	}
}

func TestGroupsCommandWithoutEndpoint(t *testing.T) {
	var out strings.Builder
	r := New(nil, &out)
	if err := r.Execute("groups"); err == nil || !strings.Contains(err.Error(), "-metrics-url") {
		t.Fatalf("err = %v, want -metrics-url hint", err)
	}
}
