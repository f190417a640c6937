#!/bin/sh
# Kernel speed gate for `make ci`: run the in-package kernel benchmark
# pair (internal/fsim/bench_test.go) afresh and fail unless the
# pattern-parallel kernel's ns/op is at least 2x better than the
# fault-parallel kernel's on the same TS0 session at one worker.
set -eu

GO=${GO:-go}
out=$($GO test -run '^$' -bench '^BenchmarkKernel(FaultParallel|PatternParallel)$' -count 1 ./internal/fsim)
echo "$out"
echo "$out" | awk '
/^BenchmarkKernelFaultParallel/   { fp = $3 }
/^BenchmarkKernelPatternParallel/ { pp = $3 }
END {
	if (fp == "" || pp == "" || pp == 0) {
		print "benchgate: kernel benchmark results missing" > "/dev/stderr"
		exit 1
	}
	r = fp / pp
	printf "benchgate: pattern-parallel %.2fx faster than fault-parallel (gate: >= 2x)\n", r
	if (r < 2) {
		print "benchgate: FAIL: pattern-parallel kernel below the 2x bound" > "/dev/stderr"
		exit 1
	}
}'
