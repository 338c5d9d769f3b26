# Development entry points. CI (.github/workflows/ci.yml) runs `make ci`.

GO ?= go

.PHONY: all build test race vet fmt-check fuzz fuzz-wire bench bench-smoke bench-compare bench-loopback bench-check chaos chaos-socket replication-chaos migration-chaos serve-demo serve-replicated shard-smoke load-smoke load-chaos sweep-e15 sweep-e16 ci

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# Fails (with the offending file list) if any file is not gofmt-clean.
fmt-check:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# Short CP1 fuzzing burst beyond the checked-in seed corpus.
fuzz:
	$(GO) test -fuzz=FuzzTransformCP1 -fuzztime=30s ./internal/ot

# Short adversarial-input burst against the wire frame codec.
fuzz-wire:
	$(GO) test -fuzz=FuzzWireDecode -fuzztime=10s ./internal/wire

bench:
	$(GO) test -run xxx -bench=. -benchmem .

# One iteration of every benchmark: proves they all still compile and run.
# The checker benchmarks live beside the checkers, in internal/spec.
bench-smoke:
	$(GO) test -run NONE -bench . -benchtime=1x . ./internal/spec

# Compare two `go test -bench` output files (OLD=..., NEW=...) and fail on
# regressions past THRESHOLD (ratio) on METRIC. Example:
#   make bench > old.txt; ...change...; make bench > new.txt
#   make bench-compare OLD=old.txt NEW=new.txt THRESHOLD=1.20
METRIC ?= ns/op
THRESHOLD ?= 0
bench-compare:
	$(GO) run ./cmd/benchdiff -metric '$(METRIC)' -threshold $(THRESHOLD) $(OLD) $(NEW)

# The E10 loss sweep: CSS over the unreliable network at 0/1/5/20% drop.
chaos:
	$(GO) test -run xxx -bench=BenchmarkE10_ChaosLossSweep -benchtime=30x .

# Short seeded socket-chaos run: 4 real TCP clients through the
# fault-injecting proxy (internal/chaosproxy), convergence and the weak list
# spec checked per schedule. Raise CHAOS_SOCKET_SCHEDULES for longer sweeps.
chaos-socket:
	CHAOS_SOCKET_SCHEDULES=$${CHAOS_SOCKET_SCHEDULES:-6} $(GO) test -run 'TestSocket' -count=1 ./internal/server

# Loopback-TCP bench output for the nightly regression gate; pair with
# bench-compare against the checked-in BENCH_baseline.txt.
bench-loopback:
	$(GO) test -run NONE -bench 'BenchmarkE12_LoopbackTCP' -benchtime=3x -count=1 .

# bench/ is a Go module of its own (BENCHMARK.json's benchmark), so build,
# vet and test above never compile it: check it against the packages it
# imports (wire, client, server, css) whenever those change.
bench-check:
	cd bench && $(GO) vet . && $(GO) test .

# Short seeded leader-kill chaos run: a 3-node replicated cluster with 4 TCP
# clients through the fault proxy, the leader fail-stopped mid-edit, failover
# and the serialization-order property checked per schedule. Raise
# REPL_CHAOS_SCHEDULES for longer sweeps (the nightly pins 100).
replication-chaos:
	REPL_CHAOS_SCHEDULES=$${REPL_CHAOS_SCHEDULES:-6} $(GO) test -run 'TestReplicatedLeaderKillChaos' -count=1 ./internal/server

# Seeded migration-under-chaos run: two shards behind fault proxies, a
# placement service ping-ponging the doc between them mid-edit, exactly-once
# delivery and the weak list spec checked per schedule. Raise
# MIGRATION_CHAOS_SCHEDULES for longer sweeps (the nightly pins 50).
migration-chaos:
	MIGRATION_CHAOS_SCHEDULES=$${MIGRATION_CHAOS_SCHEDULES:-4} $(GO) test -run 'TestMigration|TestWrongShard' -count=1 ./internal/placement

# End-to-end sharded-cluster smoke: jupiterplace + 2 shards, a document
# migrated between them mid-edit, clients reroute and converge, the move
# visible in the table and metrics.
shard-smoke:
	sh scripts/serve_sharded.sh

# The E16 shard-scaling sweep: placement-routed open load over thousands of
# zipf docs at 1 and 4 shards; writes BENCH_e16.json, the nightly gate's
# baseline.
sweep-e16:
	scripts/sweep_shards.sh

# End-to-end jupiterd smoke: two TCP clients, a forced reconnect, metrics,
# convergence assertion. Exits non-zero on divergence.
serve-demo:
	sh scripts/serve_demo.sh

# End-to-end replicated-cluster smoke: 3 nodes, leader SIGKILLed mid-session,
# clients fail over and converge, promotion visible in metrics.
serve-replicated:
	sh scripts/serve_replicated.sh

# Deterministic ~30s open-loop load smoke against a live jupiterd: seeded
# Poisson arrivals, drain barriers, sampled weak-spec check, SLO gate.
# jupiterload exits non-zero on any failure (EXPERIMENTS.md, E15).
load-smoke:
	sh scripts/load_smoke.sh

# Seeded chaos-under-load sweep: open load through the fault proxy at a
# 3-node cluster, leader fail-stopped mid-measure. Raise LOAD_CHAOS_SCHEDULES
# for longer sweeps (the nightly pins 50, the acceptance floor).
load-chaos:
	LOAD_CHAOS_SCHEDULES=$${LOAD_CHAOS_SCHEDULES:-4} $(GO) test -run 'TestChaosUnderLoad' -count=1 ./internal/loadgen

# Full E15 rate sweep; writes BENCH_e15.json, the nightly gate's baseline.
sweep-e15:
	scripts/sweep_load.sh

ci: fmt-check vet build test bench-check bench-smoke race fuzz-wire chaos-socket replication-chaos migration-chaos serve-demo serve-replicated shard-smoke load-smoke
