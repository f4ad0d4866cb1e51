package cosoft_test

// End-to-end coverage of the causal tracing layer: one coupled event driven
// through three instances must leave the complete §3.2 chain in the span
// ring.

import (
	"fmt"
	"testing"

	"cosoft/internal/attr"
	"cosoft/internal/client"
	"cosoft/internal/obs"
	"cosoft/internal/server"
	"cosoft/internal/testbed"
	"cosoft/internal/widget"
)

// TestCausalChainAcrossThreeInstances couples one textfield across three
// instances, dispatches a single event from the first, and asserts that the
// shared tracer holds the full causal chain with correct parent/child links:
//
//	client.event_send
//	└ server.event_arrival
//	  ├ lock.acquire
//	  ├ server.exec_send ×2 ── client.exec_apply ×2 ── server.exec_ack ×2
//	  ├ server.event_result
//	  └ server.unlock
func TestCausalChainAcrossThreeInstances(t *testing.T) {
	tr := obs.NewTracer(1024)
	bed := testbed.New(t, server.New(server.Options{Tracer: tr}), testbed.Options{})
	cl := make([]*client.Client, 3)
	for i := range cl {
		cl[i] = bed.Dial(testbed.Member{AppType: "bench", User: fmt.Sprintf("user%d", i), Spec: `textfield field value=""`,
			Options: client.Options{Tracer: tr}})
	}
	bed.Star("/field", cl...)

	origin := cl[0]
	ev := &widget.Event{Path: "/field", Name: widget.EventChanged,
		Args: []attr.Value{attr.String("hello")}}
	if err := origin.DispatchChecked(ev); err != nil {
		t.Fatal(err)
	}
	for _, c := range cl {
		waitValue(t, c, "hello")
	}

	// The ExecAcks and the unlock land after the origin's EventResult; poll
	// until the whole chain (11 spans) is in the ring.
	var spans []obs.Span
	testbed.Wait(t, "the whole chain (11 spans) in the ring", func() bool {
		spans = tr.Spans()
		return len(spans) >= 11
	})

	byName := make(map[string][]obs.Span)
	for _, s := range spans {
		byName[s.Name] = append(byName[s.Name], s)
	}
	wantCounts := map[string]int{
		"client.event_send":    1,
		"server.event_arrival": 1,
		"lock.acquire":         1,
		"server.exec_send":     2,
		"client.exec_apply":    2,
		"server.exec_ack":      2,
		"server.event_result":  1,
		"server.unlock":        1,
	}
	for name, want := range wantCounts {
		if got := len(byName[name]); got != want {
			t.Errorf("%s: %d spans, want %d", name, got, want)
		}
	}
	if t.Failed() {
		t.Fatalf("spans: %+v", spans)
	}

	root := byName["client.event_send"][0]
	if root.Inst != string(origin.ID()) {
		t.Errorf("root span recorded by %q, want origin %q", root.Inst, origin.ID())
	}
	if root.Parent != 0 {
		t.Errorf("root span has parent %s", root.Parent)
	}
	for _, s := range spans {
		if s.Trace != root.Trace {
			t.Errorf("span %s is on trace %s, want %s", s.Name, s.Trace, root.Trace)
		}
	}

	arrival := byName["server.event_arrival"][0]
	if arrival.Parent != root.ID {
		t.Errorf("event_arrival parent = %s, want root %s", arrival.Parent, root.ID)
	}
	for _, name := range []string{"lock.acquire", "server.exec_send", "server.event_result", "server.unlock"} {
		for _, s := range byName[name] {
			if s.Parent != arrival.ID {
				t.Errorf("%s parent = %s, want event_arrival %s", name, s.Parent, arrival.ID)
			}
		}
	}

	// Each member's re-execution descends from its own exec_send, and each
	// ack from that member's re-execution.
	execSends := make(map[obs.SpanID]bool)
	for _, s := range byName["server.exec_send"] {
		execSends[s.ID] = true
	}
	applies := make(map[obs.SpanID]bool)
	applyInsts := make(map[string]bool)
	for _, s := range byName["client.exec_apply"] {
		if !execSends[s.Parent] {
			t.Errorf("exec_apply on %s has parent %s, not an exec_send", s.Inst, s.Parent)
		}
		applies[s.ID] = true
		applyInsts[s.Inst] = true
	}
	for _, member := range cl[1:] {
		if !applyInsts[string(member.ID())] {
			t.Errorf("no exec_apply span from member %s", member.ID())
		}
	}
	for _, s := range byName["server.exec_ack"] {
		if !applies[s.Parent] {
			t.Errorf("exec_ack for %s has parent %s, not an exec_apply", s.Note, s.Parent)
		}
	}

	if got := byName["server.event_result"][0].Note; got != "ok" {
		t.Errorf("event_result note = %q, want ok", got)
	}
	if got := byName["lock.acquire"][0].Note; got != "granted n=2/2" {
		t.Errorf("lock.acquire note = %q, want granted n=2/2", got)
	}
}

// waitValue waits until cli's /field holds want.
func waitValue(t *testing.T, cli *client.Client, want string) {
	t.Helper()
	testbed.Wait(t, fmt.Sprintf("%s to see value %q", cli.ID(), want), func() bool {
		w, err := cli.Registry().Lookup("/field")
		return err == nil && w.Attr("value").AsString() == want
	})
}
