# cachecloud — Cache Clouds (ICDCS 2005) reproduction

GO ?= go

.PHONY: all build vet test race bench bench-json bench-smoke figures figures-fast examples golden fuzz simsweep shield-sweep storm restart-chaos tenant-sweep clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Full benchmark sweep: figure reproductions, ablations, micro-benchmarks.
bench:
	$(GO) test -bench=. -benchmem ./...

# Machine-readable benchmark report: every figure's series, the hot-path
# micro-benchmark timings (ns/op, allocs/op) and the scale benchmarks
# (parallel lookups, seedref contention, the two-million-document replay
# and the shield fetch replay), written to BENCH_<N>.json. N is required
# so an existing baseline is never overwritten by accident:
#   make bench-json N=4
bench-json:
	@test -n "$(N)" || { echo "usage: make bench-json N=<k> (writes BENCH_<k>.json)" >&2; exit 2; }
	$(GO) run ./cmd/cloudsim -all -json -microbench -scalebench -scale 0.08 > BENCH_$(N).json

# CI smoke for the lock-free read path: one iteration of the parallel
# lookup and contention benchmarks under the race detector. Catches data
# races the unit tests' interleavings miss, without benchmark runtimes.
# Also one iteration of the tenant-quota eviction benchmark at each
# residency size, so its setup and sub-benchmark names stay runnable.
bench-smoke:
	$(GO) test -race -run NoTestsJustBench -bench 'BenchmarkCloudLookupParallel|BenchmarkCloudContention' -benchtime 1x .
	$(GO) test -race -run NoTestsJustBench -bench 'BenchmarkPutTenantQuota' -benchtime 1x ./internal/cache

# Reproduce every paper figure at full scale (several minutes).
figures:
	$(GO) run ./cmd/cloudsim -all -scale 1

# Fast pass over every figure (reduced workload scale).
figures-fast:
	$(GO) run ./cmd/cloudsim -all -scale 0.2

# Regenerate the byte-identical determinism golden for the figure suite
# (TestGoldenAllJSON). Run after an intentional result change and commit
# the new file.
golden:
	$(GO) run ./cmd/cloudsim -all -json -scale 0.02 -seed 1 > cmd/cloudsim/testdata/golden_all.json

# Short randomized fuzzing of the trace parser and the node wire protocol
# (the committed seed corpora run on every plain `go test`).
fuzz:
	$(GO) test -fuzz=FuzzTraceParse -fuzztime=30s ./internal/trace
	$(GO) test -fuzz=FuzzProtocolDecode -fuzztime=30s ./internal/node
	$(GO) test -fuzz=FuzzScheduleDecode -fuzztime=30s ./internal/simnet

# Deterministic simulation sweep: run SEEDS generated fault schedules
# against the production node code on a virtual clock, checking every
# protocol invariant between events. Prints the first failing seed and a
# minimized reproducing schedule on failure.
SEEDS ?= 200
simsweep:
	$(GO) run ./cmd/simnet -seeds $(SEEDS)

# Two-tier gate: the shield node end-to-ends and the cross-tier model
# tests under the race detector, then a simulation sweep whose generated
# schedules add a shield-tier fault phase to every round (shield crash,
# failover, publishes and scoped/global purges past the crashed shield)
# with the cross-tier invariants armed.
shield-sweep:
	$(GO) test -race -run 'TestShield' ./internal/node ./internal/shield ./internal/experiments
	$(GO) run ./cmd/simnet -seeds $(SEEDS) -shields 2

# Overload-resilience gate: the storm chaos end-to-end and the admission
# primitives under the race detector, then a simulation sweep whose
# generated schedules include burst and hot-document miss-storm events.
storm:
	$(GO) test -race -count=2 -run 'TestChaosStorm|TestStorm' ./internal/node
	$(GO) test -race ./internal/admit/...
	$(GO) run ./cmd/simnet -seeds $(SEEDS)

# Durability gate: the restart-under-load chaos end-to-end and the durable
# store's torn-write/crash-safety suites under the race detector, then a
# simulation sweep whose generated schedules recover every crash with a
# warm process restart (heal-warm) under the origin-fetch bound invariant.
restart-chaos:
	$(GO) test -race -count=2 -run 'TestChaosRestart|TestRestartCold' ./internal/node
	$(GO) test -race ./internal/durable/...
	$(GO) test -race -run 'TestEvictionTombstonesDurable|TestRemoveAndUpdateMirrorDurable' ./internal/cache
	$(GO) run ./cmd/simnet -seeds $(SEEDS) -warm

# Tenancy gate: the cross-tenant isolation property test and the
# noisy-neighbor chaos end-to-end under the race detector, the tenant
# quota-law unit suites, the tenantsweep experiment's shape checks, then
# a simulation sweep whose generated schedules land a multi-tenant storm
# each round with the per-tenant byte-quota invariant armed between
# events and per-tenant conservation at quiescence.
tenant-sweep:
	$(GO) test -race -count=2 -run 'TestTenantIsolationProperty|TestChaosNoisyNeighborTenantStorm|TestTenantHeaderValidation' ./internal/node
	$(GO) test -race ./internal/tenant/...
	$(GO) test -race -run 'TestTenant' ./internal/cache ./internal/experiments
	$(GO) run ./cmd/simnet -seeds $(SEEDS) -tenants 3

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/flashcrowd
	$(GO) run ./examples/newsfeed
	$(GO) run ./examples/livecluster
	$(GO) run ./examples/edgenetwork

clean:
	$(GO) clean ./...
