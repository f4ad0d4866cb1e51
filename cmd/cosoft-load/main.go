// Command cosoft-load drives the coupling server with real TCP clients at
// configurable scale: G independent coupling groups of S members each, every
// member a full client over its own loopback connection, with one origin per
// group dispatching synchronized events as fast as the group's floor control
// allows (or at a fixed rate). It is the measurement harness for the
// 256–4096-member regime the broadcast fan-out optimizations target.
//
// By default it starts an in-process server on a loopback listener, so the
// emitted row includes the server's own metrics (event RTT histogram,
// server.bytes_encoded, body-pool hit rates) and whole-process B/event and
// allocs/event. With -addr it drives an external server instead and reports
// only client-observed numbers. A faultnet profile (in-process only)
// degrades every server-side connection to measure under loss, duplication
// and delay.
//
// Usage:
//
//	cosoft-load [-groups 2] [-group-size 64] [-duration 5s] [-events 0]
//	            [-rate 0] [-payload 24] [-batch-limit 32] [-shards 0]
//	            [-faultnet "dup=0.01,delay=1ms,jitter=1ms"]
//	            [-addr host:port] [-v]
//
// The summary row reports per-group-aggregated p50/p99 dispatch RTT (origin
// Event → server EventResult, the floor-acquisition latency every user
// feels), events/sec, and — in-process — B/event, allocs/event and
// bytes-encoded/event.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"cosoft/internal/attr"
	"cosoft/internal/client"
	"cosoft/internal/experiments"
	"cosoft/internal/faultnet"
	"cosoft/internal/server"
	"cosoft/internal/widget"
	"cosoft/internal/wire"
)

func main() {
	var (
		addr       = flag.String("addr", "", "drive an external server at this address (empty = start an in-process server)")
		groups     = flag.Int("groups", 2, "number of independent coupling groups")
		groupSize  = flag.Int("group-size", 64, "members per group (origin included); every member is one TCP client")
		duration   = flag.Duration("duration", 5*time.Second, "how long to generate load (ignored when -events > 0)")
		events     = flag.Int("events", 0, "dispatch exactly this many events per group instead of running for -duration")
		rate       = flag.Float64("rate", 0, "target events/sec per group (0 = as fast as floor control allows)")
		payload    = flag.Int("payload", 24, "event payload size in bytes")
		batchLimit = flag.Int("batch-limit", 32, "in-process server batch limit: envelopes packed into one frame (1 = one per frame)")
		shards     = flag.Int("shards", 0, "in-process server shard count: per-coupling-group state loops (0 = GOMAXPROCS, what cosoftd runs)")
		faultSpec  = flag.String("faultnet", "", `faultnet profile for in-process server conns, e.g. "drop=0.01,dup=0.01,dropnth=0,delay=1ms,jitter=1ms,seed=1"`)
		verbose    = flag.Bool("v", false, "log per-group progress")
	)
	flag.Parse()
	if *groups < 1 || *groupSize < 2 {
		fmt.Fprintln(os.Stderr, "cosoft-load: need -groups >= 1 and -group-size >= 2")
		os.Exit(2)
	}
	if err := run(config{
		addr: *addr, groups: *groups, groupSize: *groupSize,
		duration: *duration, events: *events, rate: *rate, payload: *payload,
		batchLimit: *batchLimit, shards: *shards,
		faultSpec: *faultSpec, verbose: *verbose,
	}); err != nil {
		fmt.Fprintf(os.Stderr, "cosoft-load: %v\n", err)
		os.Exit(1)
	}
}

type config struct {
	addr       string
	groups     int
	groupSize  int
	duration   time.Duration
	events     int
	rate       float64
	payload    int
	batchLimit int
	shards     int
	faultSpec  string
	verbose    bool
}

// groupResult is one group's share of the load: accepted events, floor
// rejections retried through, and the dispatch RTT samples.
type groupResult struct {
	events     int
	rejections int
	rtts       []time.Duration
}

func run(cfg config) error {
	var (
		srv  *server.Server
		wg   sync.WaitGroup
		dial func() (net.Conn, error)
	)
	if cfg.addr == "" {
		sched, err := parseFaultSpec(cfg.faultSpec)
		if err != nil {
			return err
		}
		srv = server.New(server.Options{
			BatchLimit: cfg.batchLimit,
			Shards:     cfg.shards,
		})
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		defer lis.Close()
		// Accept by hand rather than via srv.Serve so every server-side
		// connection can be wrapped in the fault injector.
		go func() {
			for {
				conn, err := lis.Accept()
				if err != nil {
					return
				}
				wg.Add(1)
				go func() {
					defer wg.Done()
					srv.HandleConn(wire.NewConn(faultnet.Wrap(conn, sched)))
				}()
			}
		}()
		dial = func() (net.Conn, error) { return net.Dial("tcp", lis.Addr().String()) }
		defer func() {
			srv.Close()
			wg.Wait()
		}()
	} else {
		if cfg.faultSpec != "" {
			return fmt.Errorf("-faultnet requires the in-process server (drop -addr)")
		}
		dial = func() (net.Conn, error) { return net.Dial("tcp", cfg.addr) }
	}

	// Build the topology: per group, member 0 is the origin owning /hub and
	// every other member couples its own /hub to it, so one event fans out
	// to groupSize-1 connections.
	start := time.Now()
	origins := make([]*client.Client, cfg.groups)
	var all []*client.Client
	defer func() {
		for _, c := range all {
			c.Close()
		}
	}()
	for g := 0; g < cfg.groups; g++ {
		for m := 0; m < cfg.groupSize; m++ {
			conn, err := dial()
			if err != nil {
				return fmt.Errorf("dial group %d member %d: %w", g, m, err)
			}
			wreg := widget.NewRegistry()
			widget.MustBuild(wreg, "/", `textfield hub value=""`)
			cl, err := client.New(conn, client.Options{
				AppType: "load", Host: "load",
				User:       fmt.Sprintf("g%dm%d", g, m),
				Registry:   wreg,
				RPCTimeout: 30 * time.Second,
			})
			if err != nil {
				return fmt.Errorf("handshake group %d member %d: %w", g, m, err)
			}
			all = append(all, cl)
			if err := cl.Declare("/hub"); err != nil {
				return err
			}
			if m == 0 {
				origins[g] = cl
			} else if err := origins[g].Couple("/hub", cl.Ref("/hub")); err != nil {
				return err
			}
		}
		if cfg.verbose {
			fmt.Printf("cosoft-load: group %d ready (%d members)\n", g, cfg.groupSize)
		}
	}
	setupTime := time.Since(start)

	// Generate: one driver goroutine per group origin.
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	results := make([]groupResult, cfg.groups)
	deadline := time.Now().Add(cfg.duration)
	loadStart := time.Now()
	var drivers sync.WaitGroup
	errc := make(chan error, cfg.groups)
	for g := 0; g < cfg.groups; g++ {
		drivers.Add(1)
		go func(g int) {
			defer drivers.Done()
			payload := attr.String(strings.Repeat("x", cfg.payload))
			var interval time.Duration
			if cfg.rate > 0 {
				interval = time.Duration(float64(time.Second) / cfg.rate)
			}
			next := time.Now()
			res := &results[g]
			for {
				if cfg.events > 0 {
					if res.events >= cfg.events {
						return
					}
				} else if !time.Now().Before(deadline) {
					return
				}
				if interval > 0 {
					if d := time.Until(next); d > 0 {
						time.Sleep(d)
					}
					next = next.Add(interval)
				}
				ev := &widget.Event{Path: "/hub", Name: widget.EventChanged, Args: []attr.Value{payload}}
				t0 := time.Now()
				rej, err := experiments.DispatchRetry(origins[g], ev)
				if err != nil {
					errc <- fmt.Errorf("group %d dispatch: %w", g, err)
					return
				}
				res.rtts = append(res.rtts, time.Since(t0))
				res.events++
				res.rejections += rej
			}
		}(g)
	}
	drivers.Wait()
	loadTime := time.Since(loadStart)
	select {
	case err := <-errc:
		return err
	default:
	}

	// Drain: wait for every pending event to resolve so the stats row
	// covers complete round trips, then check the shared-body leak oracle.
	if srv != nil {
		quiet := time.Now().Add(10 * time.Second)
		for time.Now().Before(quiet) {
			if srv.Stats().PendingEvents == 0 && wire.LiveSharedBodies() == 0 {
				break
			}
			time.Sleep(5 * time.Millisecond)
		}
		if n := wire.LiveSharedBodies(); n != 0 {
			return fmt.Errorf("leak check: %d shared bodies still referenced at quiescence", n)
		}
	}
	runtime.ReadMemStats(&ms1)

	// Aggregate.
	var total groupResult
	var rtts []time.Duration
	for _, r := range results {
		total.events += r.events
		total.rejections += r.rejections
		rtts = append(rtts, r.rtts...)
	}
	if total.events == 0 {
		return fmt.Errorf("no events were dispatched (duration too short?)")
	}
	sort.Slice(rtts, func(i, j int) bool { return rtts[i] < rtts[j] })
	quantile := func(q float64) time.Duration {
		if len(rtts) == 0 {
			return 0
		}
		i := int(q * float64(len(rtts)-1))
		return rtts[i]
	}
	p50, p99 := quantile(0.50), quantile(0.99)
	eps := float64(total.events) / loadTime.Seconds()
	bPerEvent := float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(total.events)
	allocsPerEvent := float64(ms1.Mallocs-ms0.Mallocs) / float64(total.events)

	name := fmt.Sprintf("cosoft-load/g%dx%d", cfg.groups, cfg.groupSize)
	fmt.Printf("%s: %d events in %.2fs (%.0f events/sec, %d floor rejections, setup %.3fs)\n",
		name, total.events, loadTime.Seconds(), eps, total.rejections, setupTime.Seconds())
	fmt.Printf("%s: dispatch RTT p50=%s p99=%s max=%s\n", name, p50, p99, quantile(1))
	if srv != nil {
		stats := srv.Stats()
		// No coupling changes once the load runs, so every link notice so
		// far was part of building the topology.
		fmt.Printf("%s: set-up cost %d link notices\n", name, stats.LinkNotices)
		fmt.Printf("%s: B/event=%.0f allocs/event=%.1f bytes-encoded/event=%.0f pool hit/miss=%d/%d\n",
			name, bPerEvent, allocsPerEvent,
			float64(stats.BytesEncoded)/float64(total.events),
			stats.BodyPoolHits, stats.BodyPoolMisses)
	}
	return nil
}

// parseFaultSpec parses the -faultnet profile: comma-separated key=value
// pairs matching faultnet.Schedule fields (drop, dup, dropnth, delay,
// jitter, seed). Empty means no injected faults.
func parseFaultSpec(s string) (faultnet.Schedule, error) {
	var sched faultnet.Schedule
	if s == "" {
		return sched, nil
	}
	for _, kv := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return sched, fmt.Errorf("faultnet: want key=value, got %q", kv)
		}
		var err error
		switch k {
		case "drop":
			sched.DropProb, err = strconv.ParseFloat(v, 64)
		case "dup":
			sched.DupProb, err = strconv.ParseFloat(v, 64)
		case "dropnth":
			sched.DropEveryNth, err = strconv.Atoi(v)
		case "delay":
			sched.Delay, err = time.ParseDuration(v)
		case "jitter":
			sched.Jitter, err = time.ParseDuration(v)
		case "seed":
			sched.Seed, err = strconv.ParseUint(v, 10, 64)
		default:
			return sched, fmt.Errorf("faultnet: unknown key %q (want drop, dup, dropnth, delay, jitter or seed)", k)
		}
		if err != nil {
			return sched, fmt.Errorf("faultnet: bad %s: %w", k, err)
		}
	}
	return sched, nil
}
