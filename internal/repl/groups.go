package repl

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"time"

	"cosoft/internal/server"
)

// cmdGroups fetches the server's group health report and renders it: one
// block per coupling group with topology, lock holder, pending events, the
// attributed straggler, and per-member ack-latency stats (slowest member
// first), preceded by the utilization of the serialization locks.
func (r *REPL) cmdGroups(args []string, raw string) error {
	if r.metricsBase == "" {
		return fmt.Errorf("no metrics endpoint configured (start with -metrics-url)")
	}
	url := r.metricsBase + "/debug/groups"
	httpc := &http.Client{Timeout: 10 * time.Second}
	resp, err := httpc.Get(url)
	if err != nil {
		return fmt.Errorf("fetch groups: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("fetch groups: %s returned %s", url, resp.Status)
	}
	var rep server.HealthReport
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		return fmt.Errorf("fetch groups: decode: %w", err)
	}
	r.printHealth(rep)
	return nil
}

func (r *REPL) printHealth(rep server.HealthReport) {
	attribution := "on"
	if !rep.MemberAttribution {
		attribution = "off"
	}
	fmt.Fprintf(r.out, "uptime %v, member attribution %s\n",
		time.Duration(rep.UptimeNS).Round(time.Millisecond), attribution)
	for _, lp := range rep.Loops {
		line := fmt.Sprintf("loop %s: %.1f%% busy, queue %d (high water %d)",
			lp.Name, lp.Utilization*100, lp.QueueDepth, lp.QueueHighWater)
		if lp.Events > 0 || lp.PendingEvents > 0 {
			line += fmt.Sprintf(", events %d (%d pending)", lp.Events, lp.PendingEvents)
		}
		fmt.Fprintln(r.out, line)
	}
	if len(rep.Groups) == 0 {
		fmt.Fprintln(r.out, "no coupling groups")
		return
	}
	for _, g := range rep.Groups {
		fmt.Fprintf(r.out, "group [%s]\n", strings.Join(g.Refs, " "))
		status := "unlocked"
		if g.LockHolder != "" {
			status = "locked by " + g.LockHolder
		}
		fmt.Fprintf(r.out, "  %s, %d pending events\n", status, g.PendingEvents)
		if g.Straggler != "" {
			fmt.Fprintf(r.out, "  straggler: %s\n", g.Straggler)
		}
		for _, m := range g.Members {
			conn := ""
			if !m.Connected {
				conn = " (disconnected)"
			}
			pushbacks := ""
			if m.Pushbacks > 0 {
				pushbacks = fmt.Sprintf(" pushbacks=%d", m.Pushbacks)
			}
			fmt.Fprintf(r.out, "  %s%s acks=%d last=%d timeouts=%d ewma=%v p50=%v p99=%v%s\n",
				m.Instance, conn, m.Acks, m.LastAcks, m.Timeouts,
				roundNS(m.AckEWMANS), roundNS(m.AckP50NS), roundNS(m.AckP99NS), pushbacks)
		}
	}
}

// roundNS renders a float nanosecond stat as a human duration.
func roundNS(ns float64) time.Duration {
	return time.Duration(ns).Round(time.Microsecond)
}
