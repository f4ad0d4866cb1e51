package server_test

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"cosoft/internal/attr"
	"cosoft/internal/client"
	"cosoft/internal/couple"
	"cosoft/internal/eventlog"
	"cosoft/internal/race"
	"cosoft/internal/server"
	"cosoft/internal/testbed"
	"cosoft/internal/widget"
	"cosoft/internal/wire"
)

// eventPathAllocBudget is the ceiling on heap allocations per member-event
// (one event reaching one member: its share of the server's lock notice,
// Exec, ack resolution and unlock notice, plus the member's own decode,
// re-execution and ack) in the topology below. It measured 4.0, run after
// run, when the budget was set (49.7 before the event path stopped
// re-deriving and re-allocating per event, 15.6 before a connection kept its
// decoded notices, remote re-execution stopped building undo closures and
// RPC reply slots were reused, 9.0 before a packed frame's records were read
// one at a time out of a reused run array and acks were written without a
// boxed message, 6.5 before the Exec, the Event and the ExecAck were read by
// value and the server's pending events, undo lists and shared bodies were
// recycled). It measured 4.00–4.01 again once the raw member, too, received
// packed frames. So the ceiling carries a quarter of headroom: one more
// allocation per member per event is within it, a boxed message and a closure
// back on the per-member path are not.
const eventPathAllocBudget = 5.0

// eventLogAllocBudget is the ceiling on what the event log adds per event to
// the same topology: the logged run's allocations per event minus the
// unlogged run's. It measured between −0.08 and +0.09 over fifteen runs when
// the budget was set (15.0 before an event's record was encoded into the
// log's recycled fill buffer and its commit reported through the shard's
// lane). The record is meant to cost nothing, so the ceiling sits halfway
// to one allocation: a channel, a record buffer or a boxed Exec back on the
// append path is over it, the noise of the difference is not.
const eventLogAllocBudget = 0.5

// TestEventPathAllocBudget holds the steady-state event path to its
// allocation budget end to end: an origin, eight client members and one raw
// wire member over loopback TCP, the origin dispatching as soon as the raw
// member sees the group unlocked (the benchmark's pacing), every process-wide
// malloc of 300 events divided by the member-events they caused.
func TestEventPathAllocBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts include the race detector's own; `make allocs` runs this without -race")
	}
	perEvent := eventPathAllocs(t, nil)
	perMember := perEvent / allocMembers
	t.Logf("%.2f allocations per member-event", perMember)
	if perMember > eventPathAllocBudget {
		t.Errorf("event path allocates %.1f times per member-event, budget %g", perMember, eventPathAllocBudget)
	}
}

// TestLoggedEventPathAllocBudget is the logged twin: the same topology behind
// an event log with the interval sync policy (cosoftd's default). It measured
// the same 4.0 per member-event, so the same headroom rule gives it the same
// budget; and what the log itself adds per event over an unlogged run
// measured alongside is held to eventLogAllocBudget.
func TestLoggedEventPathAllocBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts include the race detector's own; `make allocs` runs this without -race")
	}
	elog, err := eventlog.Open(eventlog.Options{Dir: t.TempDir(), Sync: eventlog.SyncInterval})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { elog.Close() })
	logged := eventPathAllocs(t, elog)
	plain := eventPathAllocs(t, nil)
	t.Logf("%.1f allocations per member-event; the log adds %.2f per event", logged/allocMembers, logged-plain)
	if perMember := logged / allocMembers; perMember > eventPathAllocBudget {
		t.Errorf("logged event path allocates %.1f times per member-event, budget %g", perMember, eventPathAllocBudget)
	}
	if added := logged - plain; added > eventLogAllocBudget {
		t.Errorf("the event log adds %.2f allocations per event, budget %.2f", added, eventLogAllocBudget)
	}
}

// allocMembers is the member count of eventPathAllocs' group: eight client
// members and the raw one.
const allocMembers = 9

// eventPathAllocs runs the budget topology on a fresh server (behind elog
// when it is not nil) and returns every process-wide malloc of 300 steady
// events divided by the events.
func eventPathAllocs(t *testing.T, elog *eventlog.Log) float64 {
	const (
		warm   = 100
		events = 300
		path   = "/hub"
	)
	bed := testbed.New(t, server.New(server.Options{Shards: 2, EventLog: elog}), testbed.Options{TCP: true})
	defer bed.Close()
	dial := func(user string) *client.Client {
		c := bed.Dial(testbed.Member{AppType: "bench", User: user, Spec: `textfield hub value=""`, Options: client.Options{Host: "h"}})
		mustOK(t, c.Declare(path))
		return c
	}
	origin := dial("origin")
	// The raw member reads its packed frames record by record, as the
	// benchmark's probe does: it acknowledges every Exec and reports each
	// unlock notice.
	raw := bed.Raw(wire.Register{AppType: "raw", User: "raw", Host: "h"})
	if _, ok := raw.Call(wire.Declare{Path: path, Class: "textfield"}).Msg.(wire.OK); !ok {
		t.Fatal("raw member: declare refused")
	}
	unlock := make(chan struct{}, 1)
	go func() {
		for env := range raw.Events {
			switch m := env.Msg.(type) {
			case wire.Exec:
				if raw.Send(wire.ExecAck{EventID: m.EventID}) != nil {
					return
				}
			case wire.SetLocks:
				if !m.Locked {
					unlock <- struct{}{}
				}
			}
		}
	}()
	mustOK(t, origin.Couple(path, couple.ObjectRef{Instance: raw.ID, Path: path}))
	for i := 0; i < allocMembers-1; i++ {
		mustOK(t, origin.Couple(path, dial(fmt.Sprintf("m%d", i)).Ref(path)))
	}

	payload := []attr.Value{attr.String("sixty-four bytes of payload, give or take a few: 0123456789abcdef")}
	run := func(n int) {
		for i := 0; i < n; i++ {
			if err := origin.DispatchChecked(&widget.Event{Path: path, Name: widget.EventChanged, Args: payload}); err != nil {
				t.Fatalf("event %d: %v", i, err)
			}
			select {
			case <-unlock:
			case <-time.After(5 * time.Second):
				t.Fatalf("event %d: no unlock notice", i)
			}
		}
	}
	run(warm)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	run(events)
	runtime.ReadMemStats(&after)
	t.Logf("%.0f bytes per event", float64(after.TotalAlloc-before.TotalAlloc)/events)
	return float64(after.Mallocs-before.Mallocs) / events
}
