# Development targets. `make verify` is the PR gate: vet plus race-checked
# tests over the packages whose correctness rests on the server's
# loop-serialization invariants.

GO ?= go

.PHONY: all build test race vet verify allocs bench chaos chaos-restart chaos-compact load-smoke lint-metrics

all: verify

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Race-check the coupling core: the server state loop, the lock table, and
# the client runtime are the packages with real goroutine interleavings.
race:
	$(GO) test -race ./internal/server/... ./internal/lock/... ./internal/client/...

# Cross-checks the metric names registered in code against the README's
# metric table, so the documented observability surface cannot drift.
lint-metrics:
	$(GO) run ./internal/tools/metriclint

# The allocation budgets of the event path: per-frame gates on wire.Conn and
# the end-to-end budget per member-event over loopback TCP. They skip
# themselves under the race detector (its bookkeeping allocates), so the race
# legs never run them — this target does, uncached.
allocs:
	$(GO) test -count=1 -run AllocBudget ./internal/wire/ ./internal/server/

verify: vet lint-metrics race allocs

# Soak the fault-injection tests: hung, partitioned, evicted, resumed and
# duplicated connections, repeated under the race detector. Every harness
# server is the product configuration (four shard loops, batching on, an event
# log that snapshots and compacts underneath, batching clients with plain
# peers mixed in), so one pass covers cross-shard cleanup, the packed fan-out
# path and append-before-ack.
chaos:
	$(GO) test -race -run Chaos -count=3 ./...

# Kill-and-restart soak for the durable event log: a server with an always-sync
# log is restarted repeatedly under live traffic while the clients ride through
# on session resume; afterwards the log must hold every acknowledged event.
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

# The paper's tables and the event-path benchmarks; every figure is reported
# through b.ReportMetric and nothing is written. The numbers PRs are held to
# come from the benchmark module in bench/ (BENCHMARK.json).
bench:
	$(GO) test -run '^$$' -bench . -benchmem .

# Exercises the cosoft-load generator end to end against an in-process
# server — 64 clients in 2 groups for ~5 seconds — so the load harness
# itself cannot rot.
load-smoke:
	$(GO) run ./cmd/cosoft-load -groups 2 -group-size 32 -duration 5s
