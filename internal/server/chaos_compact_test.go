package server_test

// Chaos soak for snapshots + compaction (make chaos-compact): the server is
// killed and restarted repeatedly under live traffic while a tight snapshot
// cadence continuously snapshots the log and compacts segments underneath
// it. Afterwards every client must still be functional under its original
// identity (no acked transition lost to a snapshot or a deleted segment),
// the directory must pass fsck, compaction must actually have run, and the
// segment bytes left on disk must be bounded well below everything appended.

import (
	"log/slog"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cosoft/internal/attr"
	"cosoft/internal/client"
	"cosoft/internal/couple"
	"cosoft/internal/eventlog"
	"cosoft/internal/obs"
	"cosoft/internal/server"
	"cosoft/internal/testbed"
	"cosoft/internal/widget"
)

func TestChaosCompactSoak(t *testing.T) {
	const restarts = 4
	// The metrics registry is shared across every incarnation, so the
	// counters accumulate over the whole soak.
	reg := obs.NewRegistry()
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelWarn}))
	d := newDurableLog(t,
		server.Options{SnapshotInterval: 25 * time.Millisecond, SnapshotBytes: 4096, Logger: logger},
		eventlog.Options{Sync: eventlog.SyncAlways, SegmentBytes: 4096, Metrics: reg})

	specs := []struct{ user, val string }{{"u1", "a"}, {"u2", "b"}, {"u3", "c"}}
	clients := make([]*client.Client, len(specs))
	for i, sp := range specs {
		clients[i] = d.dial("app", sp.user, `textfield x value=""`)
		mustOK(t, clients[i].Declare("/x"))
	}
	for i := 1; i < len(clients); i++ {
		mustOK(t, clients[0].Couple("/x", clients[i].Ref("/x")))
	}
	testbed.Wait(t, "group formed", func() bool {
		for _, c := range clients {
			if len(c.CO("/x")) != len(clients)-1 {
				return false
			}
		}
		return true
	})
	ids := make([]couple.InstanceID, len(clients))
	for i, c := range clients {
		ids[i] = c.ID()
	}

	var acked atomic.Uint64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i, c := range clients {
		i, c := i, c
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				err := c.DispatchChecked(&widget.Event{
					Path: "/x", Name: widget.EventChanged,
					Args: []attr.Value{attr.String(specs[i].val)},
				})
				if err == nil {
					acked.Add(1)
				}
				time.Sleep(2 * time.Millisecond)
			}
		}()
	}

	for i := 0; i < restarts; i++ {
		time.Sleep(130 * time.Millisecond)
		d.restart()
	}
	time.Sleep(150 * time.Millisecond)
	close(stop)
	wg.Wait()

	// Every client must still be alive under its original identity — each
	// restart replayed snapshot + tail, so a state gap would surface here.
	for i, c := range clients {
		i, c := i, c
		var lastMsg string
		testbed.Wait(t, "client functional after soak", func() bool {
			err := c.DispatchChecked(&widget.Event{
				Path: "/x", Name: widget.EventChanged,
				Args: []attr.Value{attr.String("final-" + specs[i].user)},
			})
			if err != nil && err.Error() != lastMsg {
				lastMsg = err.Error()
				t.Logf("client %d (%s) dispatch: %v", i, specs[i].user, err)
			}
			return err == nil
		})
		if c.ID() != ids[i] {
			t.Fatalf("client %d changed identity: %s -> %s", i, ids[i], c.ID())
		}
	}

	d.stop()
	rep, err := eventlog.Fsck(d.dir)
	if err != nil {
		t.Fatalf("fsck after soak: %v", err)
	}
	if rep.Corrupt {
		t.Fatalf("log corrupt after soak: %s", rep.Detail)
	}

	counters := reg.Snapshot().Counters
	if counters["server.log.snapshots"] == 0 {
		t.Fatal("soak wrote no snapshots despite the tight cadence")
	}
	if counters["server.log.compacted_segments"] == 0 {
		t.Fatal("soak compacted no segments despite the small segment size")
	}

	// Bounded disk: compaction keeps only the segments behind the retained
	// snapshots, so the segment bytes surviving on disk must be strictly
	// less than everything the soak appended.
	var segBytes, snapBytes int64
	entries, err := os.ReadDir(d.dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			continue
		}
		switch filepath.Ext(e.Name()) {
		case ".seg":
			segBytes += info.Size()
		case ".snap":
			snapBytes += info.Size()
		}
	}
	appended := int64(counters["server.log.bytes"])
	if segBytes >= appended {
		t.Fatalf("disk not bounded: %d segment bytes on disk, %d appended (compacted=%d)",
			segBytes, appended, counters["server.log.compacted_segments"])
	}
	t.Logf("soak: %d restarts, %d acked events, %d bytes appended, %d segment + %d snapshot bytes on disk, %d snapshots, %d segments compacted, %d snapshot restores",
		restarts, acked.Load(), appended, segBytes, snapBytes,
		counters["server.log.snapshots"], counters["server.log.compacted_segments"],
		counters["server.log.replay_from_snapshot"])
}
