# Development and CI entry points. `make ci` is the gate: it runs vet,
# a full build, the race-enabled test suite in -short mode (checking the
# concurrency claims of internal/obs and the sharded fault simulator),
# the plain tier-1 suite, the parallel-vs-serial differential suite under
# both a single-core and a multi-core scheduler, short native-fuzz
# smokes, the checkpoint/resume kill-and-restart smoke, the chaos sweep
# (every checkpoint I/O operation failure-injected in turn), the
# performance-observability smoke (profiles, ledger, regression gate),
# a freshly measured pattern-parallel kernel speed gate, the
# campaign-service smoke (a real
# limscand: submit, cache hit, byte-identical reports, graceful stop),
# the distributed-dispatch chaos suite (fake-clock lease/epoch fencing
# scenarios), and the distributed-dispatch smoke (a real coordinator
# and worker fleet with a SIGKILLed worker mid-unit).

GO ?= go

.PHONY: ci vet build test race tier1 paradiff fuzz cksmoke chaos perfsmoke tracesmoke benchgate servesmoke chaosdispatch dispatchsmoke benchall

ci: vet build race tier1 paradiff fuzz cksmoke chaos perfsmoke tracesmoke benchgate servesmoke chaosdispatch dispatchsmoke

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# race runs in -short mode: the full s35932 kernel differential takes
# about 8 minutes under the race detector on two cores, and it runs in
# full in paradiff's GOMAXPROCS=4 step instead.
race:
	$(GO) test -race -short ./...

# tier1 is the repo's seed gate: build + test must stay green.
tier1:
	$(GO) build ./... && $(GO) test ./...

# paradiff runs every parallel-vs-serial differential test (all contain
# "Parallel" in their name) under the race detector, once with a
# single-core scheduler and once with a multi-core one, so
# scheduler-dependent merge bugs surface in the gate. The multi-core
# step is the full sweep, s35932 included, so it carries its own
# timeout.
paradiff:
	GOMAXPROCS=1 $(GO) test -race -run Parallel -count=1 -short ./internal/fsim ./internal/baseline ./internal/core
	GOMAXPROCS=4 $(GO) test -race -run Parallel -count=1 -timeout 30m ./internal/fsim ./internal/baseline ./internal/core

# fuzz runs the native fuzz targets briefly: long enough to exercise the
# mutator beyond the checked-in corpus, short enough for a CI gate.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzDifferential -fuzztime 10s ./internal/fsim
	$(GO) test -run '^$$' -fuzz FuzzPPSFP -fuzztime 10s ./internal/fsim
	$(GO) test -run '^$$' -fuzz FuzzBenchParse -fuzztime 10s ./internal/bench
	$(GO) test -run '^$$' -fuzz FuzzBenchHostile -fuzztime 10s ./internal/bench
	$(GO) test -run '^$$' -fuzz FuzzCheckpointRoundTrip -fuzztime 10s ./internal/checkpoint

# cksmoke interrupts a real checkpointed limscan process with SIGINT,
# resumes it, and requires the final report to match an uninterrupted
# run byte for byte.
cksmoke:
	sh scripts/checkpoint_smoke.sh

# chaos sweeps deterministic I/O fault injection (short writes, torn
# renames, fsync errors, disk-full, ...) across EVERY checkpoint I/O
# operation of a checkpointed campaign, plus the panic-containment
# tests, under the race detector. LIMSCAN_CHAOS_FULL=1 upgrades the
# default bounded sweep to every injection point.
chaos:
	LIMSCAN_CHAOS_FULL=1 $(GO) test -race -count=1 -run 'Chaos|Panic' ./internal/core ./internal/fsim ./internal/baseline ./internal/iofault

# perfsmoke is the performance-observability end-to-end gate: a tiny
# profiled s298 campaign run twice, per-phase pprof files checked with
# `go tool pprof`, two ledger records compared with `perf diff`, and the
# latest gated with `perf check` against the committed generous-tolerance
# baseline (scripts/perf_baseline.json).
perfsmoke:
	sh scripts/perf_smoke.sh

# tracesmoke is the execution-tracing end-to-end gate: a tiny s298
# campaign recorded with -trace at -workers 4, the trace checked for one
# named track per worker and analyzed with `perf trace`, and the
# campaign report verified byte-identical with tracing on and off.
tracesmoke:
	sh scripts/trace_smoke.sh

# benchgate measures the fault simulator's two kernels afresh — the
# in-package benchmark pair on one TS0 session at one worker — and
# fails unless the pattern-parallel kernel is at least 2x faster.
benchgate:
	sh scripts/bench_gate.sh

# servesmoke boots a real limscand on a random port, submits the same
# s298 campaign twice, and requires: the first run's report
# byte-identical to the limscan CLI's, the resubmission served as a
# cache hit with identical bytes, the ledger showing one run plus one
# cache-hit record, and SIGTERM exiting 0.
servesmoke:
	sh scripts/serve_smoke.sh

# chaosdispatch runs the distributed-dispatch chaos suite under the race
# detector: a fake-clock fleet through clean drain, worker crash, zombie
# worker with stale-epoch fencing, duplicate delivery, network partition
# with local fallback, and a coordinator crash resumed from checkpoint —
# every scenario requiring a report byte-identical to the straight run.
chaosdispatch:
	$(GO) test -race -count=1 -run 'Chaos' ./internal/dispatch

# dispatchsmoke boots a real limscand coordinator with -distributed plus
# a real two-worker limsworker fleet, SIGKILLs one worker while it
# provably holds a lease (confirmed via /v1/dispatch/stats), and
# requires the reassigned campaign's report byte-identical to the
# limscan CLI's, crash evidence in the ledger's dispatch stats, the
# stitched fleet trace downloadable mid-run with one process group per
# contacted worker (and a perf fleet verdict over the final trace),
# dispatch latency histograms in /metrics, and clean SIGTERM shutdowns.
dispatchsmoke:
	sh scripts/dispatch_smoke.sh

# benchall is the full benchmark sweep (paper tables + ablations).
benchall:
	$(GO) test -bench=. -benchmem ./...
