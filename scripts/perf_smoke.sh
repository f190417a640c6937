#!/bin/sh
# perf_smoke.sh — the performance-observability end-to-end gate behind
# `make perfsmoke`.
#
# It runs a tiny s298 campaign twice with the full stack on (profiling,
# runtime sampling, ledger append), then requires:
#   1. per-phase pprof files that `go tool pprof` can read, exactly one
#      cpu/heap/allocs triple per phase bracket,
#   2. two ledger records that `perf list` and `perf diff` can compare,
#   3. `perf check` passing against the committed baseline
#      (scripts/perf_baseline.json — tolerances are deliberately
#      generous: this gate catches order-of-magnitude regressions and
#      broken plumbing, not CI-runner jitter).
#
# Exit 0 on success, 1 with a diagnostic otherwise.
set -eu

GO=${GO:-go}
dir=$(mktemp -d "${TMPDIR:-/tmp}/limscan-perfsmoke.XXXXXX")
trap 'rm -rf "$dir"' EXIT INT TERM

say() { echo "perfsmoke: $*"; }
die() { echo "perfsmoke: FAIL: $*" >&2; exit 1; }

say "building limscan and perf"
$GO build -o "$dir/limscan" ./cmd/limscan
$GO build -o "$dir/perf" ./cmd/perf

args="-circuit s298 -la 10 -lb 5 -n 2 -seed 5"
ledger="$dir/ledger.jsonl"

say "run 1/2 (with -profile-dir)"
"$dir/limscan" $args -profile-dir "$dir/prof" -ledger "$ledger" >"$dir/run1.out" \
    || die "run 1 exited nonzero"
say "run 2/2"
"$dir/limscan" $args -ledger "$ledger" >"$dir/run2.out" \
    || die "run 2 exited nonzero"

# 1. The profiler produced loadable per-phase captures.
for p in ts0_gen ts0_sim classify search; do
    f="$dir/prof/$p.cpu.pprof"
    [ -s "$f" ] || die "missing profile $f"
    $GO tool pprof -top "$f" >/dev/null 2>&1 || die "go tool pprof cannot read $f"
done
got=$(cd "$dir/prof" && LC_ALL=C ls | tr '\n' ' ')
want=""
for p in classify search ts0_gen ts0_sim; do
    want="$want$p.allocs.pprof $p.cpu.pprof $p.heap.pprof "
done
[ "$got" = "$want" ] || die "profile files changed: got $got, want $want"
say "per-phase profiles load in go tool pprof; file set unchanged"

# 2. Two records, listable and diffable.
n=$(wc -l < "$ledger")
[ "$n" -eq 2 ] || die "expected 2 ledger records, found $n"
"$dir/perf" list -ledger "$ledger" >/dev/null || die "perf list failed"
"$dir/perf" diff -ledger "$ledger" >"$dir/diff.out" || die "perf diff failed"
grep -q wall_seconds "$dir/diff.out" || die "perf diff output missing wall_seconds"
say "perf list/diff over 2 records ok"

# 3. The committed baseline gates the latest record.
"$dir/perf" check -ledger "$ledger" -baseline scripts/perf_baseline.json \
    || die "perf check regressed against scripts/perf_baseline.json"
say "perf check against committed baseline: PASS"

say "PASS"
