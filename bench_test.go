package cosoft_test

// One benchmark per reproduced table/figure (see DESIGN.md §4). The
// benchmarks wrap the experiment harnesses in internal/experiments with
// fixed parameters so `go test -bench=.` regenerates every row family; the
// cmd/experiments binary prints the full sweeps.

import (
	"fmt"
	"net"
	"testing"
	"time"

	"cosoft"
	"cosoft/internal/attr"
	"cosoft/internal/client"
	"cosoft/internal/couple"
	"cosoft/internal/eventlog"
	"cosoft/internal/experiments"
	"cosoft/internal/obs"
	"cosoft/internal/server"
	"cosoft/internal/testbed"
	"cosoft/internal/widget"
	"cosoft/internal/wire"
)

// BenchmarkTable1Architectures runs the full capability probe suite of the
// paper's comparison table (E1).
func BenchmarkTable1Architectures(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table1()
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 3 {
			b.Fatal("wrong row count")
		}
	}
}

// BenchmarkArch measures the per-interaction response time of each
// architecture under the mixed workload (E2 / Figures 1-3).
func BenchmarkArch(b *testing.B) {
	params := experiments.ArchParams{
		Users:          []int{4},
		Latencies:      []time.Duration{0},
		EventsPerUser:  8,
		SharedFraction: 0.25,
	}
	archs := []string{"multiplex", "ui-replicated", "cosoft"}
	for _, arch := range archs {
		b.Run(arch, func(b *testing.B) {
			var perEvent time.Duration
			for i := 0; i < b.N; i++ {
				rows, err := experiments.ArchComparison(params)
				if err != nil {
					b.Fatal(err)
				}
				for _, r := range rows {
					if r.Architecture == arch {
						perEvent = r.PerEvent
					}
				}
			}
			b.ReportMetric(float64(perEvent.Nanoseconds()), "ns/event")
		})
	}
}

// BenchmarkStateVsAction compares re-synchronization strategies after 100
// missed actions (E3 / §3.1).
func BenchmarkStateVsAction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.StateVsAction([]int{100})
		if err != nil {
			b.Fatal(err)
		}
		r := rows[0]
		b.ReportMetric(float64(r.ReplayTime.Nanoseconds()), "ns/replay")
		b.ReportMetric(float64(r.StateCopyTime.Nanoseconds()), "ns/statecopy")
	}
}

// BenchmarkFloorControl measures the floor-control cost per character at
// fine and coarse event granularity (E4 / §3.2).
func BenchmarkFloorControl(b *testing.B) {
	for _, chars := range []int{1, 64} {
		b.Run(map[int]string{1: "chars-1", 64: "chars-64"}[chars], func(b *testing.B) {
			var perChar time.Duration
			for i := 0; i < b.N; i++ {
				rows, err := experiments.FloorControl(256, []int{chars})
				if err != nil {
					b.Fatal(err)
				}
				perChar = rows[0].PerChar
			}
			b.ReportMetric(float64(perChar.Nanoseconds()), "ns/char")
		})
	}
}

// BenchmarkSCompat measures the mapping search of §3.3 (E5).
func BenchmarkSCompat(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.CompatMatching([]int{6}, []int{3})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(rows[0].NaiveVisits), "naive-visits")
		b.ReportMetric(float64(rows[0].HeurVisits), "heur-visits")
	}
}

// BenchmarkTORIQueryCoupling compares multiple evaluation against
// evaluate-once-and-share (E6 / §4).
func BenchmarkTORIQueryCoupling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.TORIQueryCoupling([]int{10000}, 4)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(rows[0].ReexecTime.Nanoseconds()), "ns/reexec")
		b.ReportMetric(float64(rows[0].ShareTime.Nanoseconds()), "ns/share")
	}
}

// BenchmarkIndirectCoupling compares direct and indirect coupling of a
// 4096-point dependent display (E7 / §4).
func BenchmarkIndirectCoupling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.IndirectCoupling([]int{4096})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(rows[0].DirectBytes), "direct-bytes")
		b.ReportMetric(float64(rows[0].IndirectBytes), "indirect-bytes")
	}
}

// BenchmarkOrdering compares centralized locking against optimistic
// timestamp ordering at 50% contention (E8 / §2.1).
func BenchmarkOrdering(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.OrderingComparison(3, 20, []float64{0.5})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(rows[0].CentralTime.Nanoseconds()), "ns/central")
		b.ReportMetric(float64(rows[0].OptimisticTime.Nanoseconds()), "ns/optimistic")
	}
}

// BenchmarkHistory walks an 8-deep undo/redo stack (E9 / §2.1).
func BenchmarkHistory(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.HistoryWalk([]int{8})
		if err != nil {
			b.Fatal(err)
		}
		if !rows[0].UndoCorrect || !rows[0].RedoCorrect {
			b.Fatal("history walk incorrect")
		}
	}
}

// BenchmarkLocalEvent measures an uncoupled event for contrast — the "many
// operations can be performed locally" path of the replicated architecture.
func BenchmarkLocalEvent(b *testing.B) {
	reg := cosoft.NewRegistry()
	cosoft.MustBuild(reg, "/", `textfield field value=""`)
	vals := []cosoft.Value{cosoft.String("benchmark payload")}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ev := &cosoft.Event{Path: "/field", Name: cosoft.EventChanged, Args: vals}
		if err := reg.Dispatch(ev); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLockingVariants is the ablation for DESIGN.md decision 2: the
// paper's sequential lock-all-or-undo group locking vs. the deterministic
// ordered variant, under contention from four users.
func BenchmarkLockingVariants(b *testing.B) {
	for _, ordered := range []bool{false, true} {
		name := "paper-sequential"
		if ordered {
			name = "ordered"
		}
		b.Run(name, func(b *testing.B) {
			srv := server.New(server.Options{OrderedLocking: ordered})
			bed := testbed.New(b, srv, testbed.Options{})
			cl := make([]*client.Client, 4)
			for i := range cl {
				cl[i] = bed.Dial(testbed.Member{AppType: "bench", User: fmt.Sprintf("user%d", i), Spec: `textfield field value=""`})
			}
			bed.Star("/field", cl...)
			vals := []attr.Value{attr.String("x")}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ev := &widget.Event{Path: "/field", Name: widget.EventChanged, Args: vals}
				if _, err := experiments.DispatchRetry(cl[i%4], ev); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(srv.Stats().LockFailures), "lock-denials")
		})
	}
}

// BenchmarkCoupleStar times what building a coupling group costs as the group
// grows: one iteration couples a hub to k−1 members over loopback TCP, one
// Couple RPC at a time, as a session's set-up does. ns/couple is the mean RPC;
// notices/couple the LinkAdded the server enqueued per Couple — k on average
// under delta replication (DESIGN §16), where re-sending the whole group to
// every member made it grow with k². The teardown between iterations is not
// timed.
func BenchmarkCoupleStar(b *testing.B) {
	for _, k := range []int{8, 32, 128} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			srv := server.New(server.Options{})
			bed := testbed.New(b, srv, testbed.Options{TCP: true})
			clients := make([]*client.Client, k)
			for i := range clients {
				clients[i] = bed.Dial(testbed.Member{AppType: "bench", User: fmt.Sprintf("m%d", i), Spec: `textfield hub value=""`,
					Options: client.Options{RPCTimeout: 30 * time.Second}})
				if err := clients[i].Declare("/hub"); err != nil {
					b.Fatal(err)
				}
			}
			hub, members := clients[0], clients[1:]
			var notices uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				before := srv.Stats().LinkNotices
				for _, m := range members {
					if err := hub.Couple("/hub", m.Ref("/hub")); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				notices += srv.Stats().LinkNotices - before
				for _, m := range members {
					if err := hub.Decouple("/hub", m.Ref("/hub")); err != nil {
						b.Fatal(err)
					}
				}
				// A round trip per member drains the notices still queued
				// for it, so the next build starts on idle connections.
				for _, m := range members {
					if _, err := m.Instances(); err != nil {
						b.Fatal(err)
					}
				}
				b.StartTimer()
			}
			couples := float64(b.N * len(members))
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/couples, "ns/couple")
			b.ReportMetric(float64(notices)/couples, "notices/couple")
		})
	}
}

// discardConn is a net.Conn that swallows writes, so BenchmarkBroadcastEncode
// can measure the server-side encode path alone.
type discardConn struct{ net.Conn }

func (discardConn) Write(p []byte) (int, error) { return len(p), nil }

// BenchmarkBroadcastEncode isolates the acceptance criterion of the
// encode-once PR: allocations per broadcast event on the server's send path
// must be independent of fan-out. One iteration encodes a shared Exec body
// once and writes it to every member connection; the per-op allocation
// count must stay flat from fan-out 1 to 512 (pooled body, per-conn scratch,
// no per-member materialization).
func BenchmarkBroadcastEncode(b *testing.B) {
	origin := couple.ObjectRef{Instance: "bench", Path: "/hub"}
	vals := []attr.Value{attr.String("benchmark payload")}
	for _, fanout := range []int{1, 8, 64, 512} {
		b.Run(fmt.Sprintf("fanout-%d", fanout), func(b *testing.B) {
			conns := make([]*wire.Conn, fanout)
			paths := make([]string, fanout)
			for i := range conns {
				conns[i] = wire.NewConn(discardConn{})
				paths[i] = fmt.Sprintf("/m%d", i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				se := wire.NewSharedExec(uint64(i+1), "changed", vals, origin)
				for j, c := range conns {
					se.Ref()
					o := wire.Outgoing{Shared: se, Target: paths[j]}
					if err := c.WriteOutgoing(o); err != nil {
						b.Fatal(err)
					}
					se.Release()
				}
				se.Release()
			}
			b.StopTimer()
			if n := wire.LiveSharedBodies(); n != 0 {
				b.Fatalf("leaked %d shared bodies", n)
			}
		})
	}
}

// BenchmarkRestartReplay prices a durable restart, Open then New, over a
// 50k-event log. The from-zero variant replays every record on each restart.
// The from-snapshot variant restarts the same directory after one
// snapshot+compaction cycle, and restore replays no log record: its
// server.log.replayed counter staying at zero is the gate. It is not O(state)
// alone: Open still walks the segment it appends to, which Compact never
// deletes, and here all 50k records sit in that one segment. So it measures
// decoding the snapshot plus one framing-and-CRC walk of the log.
func BenchmarkRestartReplay(b *testing.B) {
	const events = 50_000
	dir := b.TempDir()
	seedRestartLog(b, dir, events)

	// from-zero runs first: its restarts must see the uncompacted log, and
	// the from-snapshot prep below compacts the shared directory.
	b.Run("from-zero", func(b *testing.B) {
		reg := obs.NewRegistry()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			elog, err := eventlog.Open(eventlog.Options{Dir: dir, Metrics: reg})
			if err != nil {
				b.Fatal(err)
			}
			srv := server.New(server.Options{EventLog: elog})
			srv.Stats() // the restart is over once the server answers
			srv.Close()
			if err := elog.Close(); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		counters := reg.Snapshot().Counters
		replayed := counters["server.log.replayed"]
		if replayed < uint64(events)*uint64(b.N) {
			b.Fatalf("from-zero replayed %d records over %d restarts; want >= %d per restart",
				replayed, b.N, events)
		}
		b.ReportMetric(float64(replayed)/float64(b.N), "replayed/restart")
	})

	b.Run("from-snapshot", func(b *testing.B) {
		// Prep (untimed): one incarnation snapshots the folded state at the
		// log's end and compacts the segments behind it.
		elogPrep, err := eventlog.Open(eventlog.Options{Dir: dir})
		if err != nil {
			b.Fatal(err)
		}
		srvPrep := server.New(server.Options{EventLog: elogPrep})
		if err := srvPrep.Snapshot(); err != nil {
			b.Fatal(err)
		}
		srvPrep.Close()
		if err := elogPrep.Close(); err != nil {
			b.Fatal(err)
		}

		reg := obs.NewRegistry()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			elog, err := eventlog.Open(eventlog.Options{Dir: dir, Metrics: reg})
			if err != nil {
				b.Fatal(err)
			}
			srv := server.New(server.Options{EventLog: elog})
			srv.Stats() // the restart is over once the server answers
			srv.Close()
			if err := elog.Close(); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		counters := reg.Snapshot().Counters
		if got := counters["server.log.replay_from_snapshot"]; got != uint64(b.N) {
			b.Fatalf("%d of %d restarts replayed from the snapshot", got, b.N)
		}
		if replayed := counters["server.log.replayed"]; replayed != 0 {
			b.Fatalf("from-snapshot restarts replayed %d log records; want 0 (snapshot covers the log)", replayed)
		}
		b.ReportMetric(0, "replayed/restart")
	})
}

// seedRestartLog writes the fixed restart-replay workload: two registered
// instances, one coupled object pair, then `events` committed Exec records —
// the same record shapes a live session appends, without paying for 50k
// round-trips.
func seedRestartLog(b *testing.B, dir string, events int) {
	b.Helper()
	elog, err := eventlog.Open(eventlog.Options{Dir: dir, Sync: eventlog.SyncNone})
	if err != nil {
		b.Fatal(err)
	}
	app := func(rec eventlog.Record) {
		if err := elog.Append(rec); err != nil {
			b.Fatal(err)
		}
	}
	refA := couple.ObjectRef{Instance: "app-1", Path: "/x"}
	refB := couple.ObjectRef{Instance: "app-2", Path: "/x"}
	for i, id := range []string{"app-1", "app-2"} {
		app(eventlog.Record{Kind: eventlog.KindRegister, Origin: id, Env: wire.Envelope{
			Msg: wire.Register{AppType: "app", Host: "bench", User: fmt.Sprintf("u%d", i+1)},
		}})
		app(eventlog.Record{Kind: eventlog.KindDeclare, Origin: id, Env: wire.Envelope{
			Msg: wire.Declare{Path: "/x", Class: "textfield"},
		}})
	}
	app(eventlog.Record{Kind: eventlog.KindCouple, Origin: "app-1", Env: wire.Envelope{
		Msg: wire.Couple{From: refA, To: refB},
	}})
	vals := []attr.Value{attr.String("benchmark payload")}
	for i := 1; i <= events; i++ {
		app(eventlog.Record{Kind: eventlog.KindEvent, Origin: "app-1", Env: wire.Envelope{
			Msg: wire.Exec{EventID: uint64(i), TargetPath: "/x", Name: "changed", Args: vals, Origin: refA},
		}})
	}
	if err := elog.Close(); err != nil {
		b.Fatal(err)
	}
}
