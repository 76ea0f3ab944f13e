# Developer entry points. `make check` is the full gate: vet, the
# race-enabled test suite, the replay-determinism check, and the
# benchmark module's vet and tests. CI and pre-commit should run exactly
# that. The focused race-* targets are strict subsets of `race`, kept
# for quick local iteration on one plane.

GO ?= go

.PHONY: all build test vet race race-observability race-transport race-alerts race-store race-tenant race-tsdb race-qos replay-determinism perfbench fuzz-kernels fuzz-wire check bench bench-readpath bench-telemetry bench-mux bench-tenant bench-archive bench-qos bench-paper clean

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

# Focused race gate for the observability stack: the telemetry sampler,
# trace recorder, metrics registry and decision-audit ring are the
# packages mutated from every goroutine, so they fail first and fastest
# under -race. The wire package rides along for the decode fuzz
# (testing/quick) suite, and the inspect plane's sweep, provider and
# fuzz-corpus tests for how all of them are read.
race-observability:
	$(GO) test -race ./internal/telemetry/ ./internal/trace/ ./internal/metrics/ ./internal/wire/ ./internal/audit/
	$(GO) test -race -run 'Inspect|Sweep|Meta' ./internal/pfs/

# Focused race gate for the transport stack: the mux writer's write
# token, the per-connection demux read loops, and the pool's shared-
# connection management are the RPC layer's concurrency hot spots. Runs
# the framing fuzz (testing/quick) suites under -race as well.
race-transport:
	$(GO) test -race ./internal/wire/ ./internal/transport/ ./internal/pfs/

# Focused race gate for the storage layer: the extent store's size cache
# and refcounted fd cache are hit concurrently by reads, writes,
# truncates, and in-flight zero-copy payloads pinning descriptors; the
# cross-validation suite churns all of them under -race.
race-store:
	$(GO) test -race -run 'TestExtent|TestFDCache|TestStore' ./internal/pfs/

# Focused race gate for the operational plane: the event-log ring is
# written from every subsystem while dosasctl events tails it, and the
# SLO engine's state machines advance on the sampler goroutine while
# alert fetches read them. The OpenMetrics renderer reads all three. The
# follow-cursor regression runs ten times: a writer racing the tail is
# what loses events.
race-alerts:
	$(GO) test -race ./internal/eventlog/ ./internal/slo/ ./internal/openmetrics/
	$(GO) test -race -count=10 -run TestEventsFollowNeverSkips ./internal/pfs/

# Focused race gate for the tenant attribution plane: the per-tenant
# LRU table is bumped on every request from every connection goroutine
# while the telemetry tick reads wait shares and dosasctl sweeps
# snapshots; the queue instrumentation feeding it rides along.
race-tenant:
	$(GO) test -race ./internal/tenant/ ./internal/ioqueue/

# Focused race gate for the telemetry archive: chunk files are appended
# from the sampler tick while queries, pruning, and downsample sealing
# walk the same state; the crash-reopen property tests churn it all
# under -race. The range-query plane (wire codec property checks,
# cluster sweep) rides along.
race-tsdb:
	$(GO) test -race ./internal/tsdb/ ./internal/telemetry/ ./internal/wire/
	$(GO) test -race -run 'TestQuery|TestFSQuery|TestIncidentReport|TestClusterReport|TestAggregateNodes' .

# Focused race gate for the tail-latency isolation plane: the QoS gate's
# dispatcher binds WDRR elections to slots while cancels withdraw queued
# tickets, the cancel registry races CancelReqs against registration and
# the mux writer's mid-frame zero-fill, and hedged reads race two replica
# streams (plus server death) over one destination buffer. The latency
# tracker's EWMA/decay state rides along.
race-qos:
	$(GO) test -race -run 'TestQoS|TestCancel|TestServerCancel|TestHedge|TestPrimary|TestReplicaOrder|TestLatency|TestHedgeDelay|TestSizeClass|TestWDRR|TestMetaStorm|TestNoCredit' ./internal/pfs/ ./internal/ioqueue/
	$(GO) test -race -run 'TestWaitShare|TestReadReqReqID|TestNamespaceTenant' ./internal/tenant/ ./internal/wire/

# Counterfactual replay must be byte-deterministic: the same decision log
# and policy set produce the same report JSON on every run (no map
# iteration, no wall clock in the scoring path). Replays the committed
# golden log twice and diffs the outputs byte for byte.
replay-determinism:
	$(GO) run ./cmd/dosasctl whatif -log internal/audit/testdata/golden_log.json -json > /tmp/dosas-replay-a.json
	$(GO) run ./cmd/dosasctl whatif -log internal/audit/testdata/golden_log.json -json > /tmp/dosas-replay-b.json
	cmp /tmp/dosas-replay-a.json /tmp/dosas-replay-b.json
	@echo "replay-determinism: OK (byte-identical reports)"

# The benchmark (perfbench/) is its own Go module, so the root ./...
# never compiles it: removing a public method it calls would pass every
# other target. Vet and test it offline against this checkout.
perfbench:
	cd perfbench && GOFLAGS=-mod=mod GOPROXY=off $(GO) vet ./... && GOFLAGS=-mod=mod GOPROXY=off $(GO) test ./...

check: vet race replay-determinism perfbench

# Native fuzzing of the gaussian2d kernel against its scalar reference
# (internal/kernels/reference_test.go), for a bounded time. `make check`
# already replays the committed corpus (internal/kernels/testdata/fuzz)
# through `race`; a failing input the fuzzer finds is written there too.
fuzz-kernels:
	$(GO) test ./internal/kernels/ -run '^$$' -fuzz '^FuzzGaussianMatchesReference$$' -fuzztime 30s

# Native fuzzing of the mux reader, the decoder that parses the first
# byte of every connection: no input may panic it, and every message it
# returns must round-trip through MuxWriter/MuxReader unchanged. `make
# check` replays the committed corpus (internal/wire/testdata/fuzz).
fuzz-wire:
	$(GO) test ./internal/wire/ -run '^$$' -fuzz '^FuzzMuxReader$$' -fuzztime 30s

# Data-path microbenchmarks (fixed iteration count so runs compare
# across commits) plus the window-vs-serial matrix (writes BENCH_pr2.json).
bench:
	$(GO) test ./internal/pfs/ -run '^$$' -bench 'ReadPath|WritePath' -benchtime 15x -benchmem
	$(GO) run ./cmd/dosas-bench -exp readpath
	$(GO) run ./cmd/dosas-bench -exp noisy-neighbor

# User-space copies per served byte for the two stores a node can run
# on: in-memory (staged through pooled buffers) vs extent (sendfile),
# both over mux (writes BENCH_readpath_zerocopy.json).
bench-readpath:
	$(GO) run ./cmd/dosas-bench -exp readpath-zerocopy

# Telemetry overhead: active read path with samplers off, at the default
# 100ms tick, and at a pathological 1ms tick. The acceptance bar is <1%
# delta between Off and On.
bench-telemetry:
	$(GO) test . -run '^$$' -bench ReadPathTelemetry -benchtime 50x

# Control-message latency under bulk load on a shaped link, plus windowed
# bulk throughput on a 250 µs link, both over mux (writes
# BENCH_mux.json).
bench-mux:
	$(GO) run ./cmd/dosas-bench -exp mux

# Tenant attribution under contention: aggressor/victim queue-wait
# split, the noisy-neighbor alert, and the attribution plane's A/B
# overhead (writes BENCH_tenant.json).
bench-tenant:
	$(GO) run ./cmd/dosas-bench -exp noisy-neighbor

# Durable telemetry archive: A/B overhead of archiving every sampler
# tick (budget <1%) and restart continuity of the stitched range query
# (writes BENCH_archive.json).
bench-archive:
	$(GO) run ./cmd/dosas-bench -exp archive

# Tail-latency isolation: weighted-fair admission A/B (victim p99 gated
# vs ungated vs uncontended) and the hedged-read/replica-selection
# straggler experiments (writes BENCH_qos.json).
bench-qos:
	$(GO) run ./cmd/dosas-bench -exp qos-isolation
	$(GO) run ./cmd/dosas-bench -exp straggler

# Regenerate the paper's tables/figures (simulated experiments) and the
# live per-scheme decision metrics (BENCH_live.json).
bench-paper:
	$(GO) run ./cmd/dosas-bench

clean:
	$(GO) clean ./...
	rm -f BENCH_*.json
