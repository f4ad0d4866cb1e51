# Development targets. `make verify` is the PR gate: vet plus race-checked
# tests over the packages whose correctness rests on the server's
# serialization invariants (the global lock and the event lock).

GO ?= go

.PHONY: all build test fmt race vet verify allocs bench chaos chaos-restart chaos-compact load-smoke lint-metrics

all: verify

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Fails, listing the files, when gofmt would rewrite any Go file in the tree
# (the bench module included).
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l:"; echo "$$out"; exit 1; fi

# Race-check the coupling core: the server (read goroutines run events and
# acks under the event lock and control-plane messages under the global
# lock, take a group's floor in the one lock table, and flush what they sent
# once they let the lock go), the
# lock table, the client runtime, the wire Conn (RPC callers, Pongs and acks
# write one Conn side by side, under the lock that also keeps its write error
# and its unsent tail; on the server a lock holder's attempts and the outbox
# writer's blocking writes hand one Conn back and forth), the test bed every
# suite runs on and the manual clock (Advance fires tickers and timers while
# the goroutines under test arm and stop them) are the packages with real
# goroutine interleavings.
race:
	$(GO) test -race ./internal/server/... ./internal/lock/... ./internal/client/... ./internal/wire/... ./internal/testbed/... ./internal/clock/...

# Cross-checks the metric names registered in code against the README's
# metric table, so the documented observability surface cannot drift.
lint-metrics:
	$(GO) run ./internal/tools/metriclint

# The allocation budgets of the event path: per-frame gates on wire.Conn, the
# broadcast's shared Exec and the relay of an Event's payload (Next, Seal and
# Release allocate nothing), a lock holder's attempted write (none either), a
# group's floor lock (lock.TryLockGroup plus UnlockGroup), the remote
# re-execution of an event (widget Deliver), a steady-state client RPC round
# trip and ack flush, and the end-to-end budget per member-event over
# loopback TCP. They skip themselves under the race
# detector (its bookkeeping allocates), so the race legs never run them — this
# target does, uncached.
allocs:
	$(GO) test -count=1 -run AllocBudget ./internal/wire/ ./internal/lock/ ./internal/widget/ ./internal/client/ ./internal/server/

verify: fmt vet lint-metrics race allocs

# Soak the fault-injection tests: hung, partitioned, evicted, resumed and
# duplicated connections, repeated under the race detector. Every harness
# server is the product configuration (one event lock, batching on, an event
# log that snapshots and compacts underneath, the clients cosoft.Dial ships),
# so one pass covers a departure's cleanup of pending events, the packed
# fan-out path and append-before-ack.
chaos:
	$(GO) test -race -run Chaos -count=3 ./...

# Kill-and-restart soak for the durable event log: a server with an always-sync
# log is restarted repeatedly under live traffic while the clients ride through
# on session resume; afterwards no event ID may have been issued twice across
# the restarts, and the log must hold a record of every acknowledged event
# (records are written behind their events, but each restart closes the
# server and then the log, which writes what is still queued).
chaos-restart:
	$(GO) test -race -run ChaosRestart -count=3 ./internal/server/

# Kill-and-restart soak with snapshots + compaction live underneath the
# traffic: a tight snapshot cadence and tiny segments force continuous
# snapshot writes and segment deletes while the server is killed repeatedly;
# afterwards the directory must fsck clean, every client must still work
# under its original identity, and the segment bytes left on disk must be
# bounded below everything appended.
chaos-compact:
	$(GO) test -race -run ChaosCompact -count=3 ./internal/server/

# The paper's tables, the locking ablation and the micro-benchmarks bench/
# does not cover; every figure is reported through b.ReportMetric and nothing
# is written. The numbers PRs are held to come from the benchmark module in
# bench/ (BENCHMARK.json).
bench:
	$(GO) test -run '^$$' -bench . -benchmem .

# Exercises the cosoft-load generator end to end against an in-process
# server — 64 clients in 2 groups for ~5 seconds — so the load harness
# itself cannot rot.
load-smoke:
	$(GO) run ./cmd/cosoft-load -groups 2 -group-size 32 -duration 5s
