#!/bin/sh
# trace_smoke.sh — the execution-tracing end-to-end gate behind
# `make tracesmoke`.
#
# It runs a tiny s298 campaign with -trace, -v and -workers 4, then
# requires:
#   1. the trace file parses as Chrome trace-event JSON (via
#      `perf trace -json`, which uses the same internal/trace parser
#      Perfetto-bound files go through),
#   2. one named track per worker ("fsim worker 0" .. "fsim worker 3"),
#   3. `perf trace` exits 0 and prints a non-empty diagnosis with the
#      scaling numbers (serial fraction, dominant limiter),
#   4. the -v phase summary and the trace file are one record: the rows
#      printed under "phases:" are the campaign track's phase, quiet and
#      fsim-run span names in first-seen order.
#
# It also re-runs the same campaign without -trace and diffs the
# exported test programs: tracing must not change a single byte of
# campaign output.
#
# Exit 0 on success, 1 with a diagnostic otherwise.
set -eu

GO=${GO:-go}
dir=$(mktemp -d "${TMPDIR:-/tmp}/limscan-tracesmoke.XXXXXX")
trap 'rm -rf "$dir"' EXIT INT TERM

say() { echo "tracesmoke: $*"; }
die() { echo "tracesmoke: FAIL: $*" >&2; exit 1; }

say "building limscan and perf"
$GO build -o "$dir/limscan" ./cmd/limscan
$GO build -o "$dir/perf" ./cmd/perf

args="-circuit s298 -la 10 -lb 5 -n 2 -seed 5 -workers 4"
tracef="$dir/trace.json"

say "traced run (workers=4, -v)"
"$dir/limscan" $args -v -trace "$tracef" -export "$dir/program-traced.json" \
    >"$dir/run-traced.out" 2>"$dir/run-traced.err" \
    || die "traced run exited nonzero"
[ -s "$tracef" ] || die "trace file $tracef missing or empty"

say "untraced run (same parameters)"
"$dir/limscan" $args -export "$dir/program-plain.json" >"$dir/run-plain.out" \
    || die "untraced run exited nonzero"
cmp -s "$dir/program-traced.json" "$dir/program-plain.json" \
    || die "exported test program differs with tracing on — tracing perturbed the run"
say "exported test program byte-identical with tracing on and off"

# 1 + 2. The trace parses, and every worker got a named track.
"$dir/perf" trace -json "$tracef" >"$dir/analysis.json" \
    || die "perf trace -json cannot parse the recorded trace"
for w in 0 1 2 3; do
    grep -q "fsim worker $w" "$tracef" || die "trace has no track for fsim worker $w"
done
say "trace parses; one track per worker present"

# 3. The human report diagnoses scaling.
"$dir/perf" trace "$tracef" >"$dir/report.out" || die "perf trace exited nonzero"
[ -s "$dir/report.out" ] || die "perf trace printed nothing"
grep -q "serial fraction" "$dir/report.out" || die "report missing serial fraction"
grep -q "dominant limiter" "$dir/report.out" || die "report missing diagnosis"
say "perf trace report: $(grep 'dominant limiter' "$dir/report.out" | head -1)"

# 4. One span store: the printed phase summary is the trace file's
#    campaign track (tid 0), read back by name.
sed -n '/^phases:/,$p' "$dir/run-traced.err" | awk '/ run\(s\) / {print $1}' >"$dir/summary.names"
grep '"tid":0,' "$tracef" | grep -E '"cat":"(phase|quiet|run)"' \
    | sed 's/.*"name":"\([^"]*\)".*/\1/' | awk '!seen[$0]++' >"$dir/trace.names"
[ -s "$dir/summary.names" ] || die "-v printed no phases: summary"
grep -q '"cat":"phase"' "$tracef" || die "trace file has no phase spans"
cmp -s "$dir/summary.names" "$dir/trace.names" \
    || die "phases: rows ($(tr '\n' ' ' <"$dir/summary.names")) differ from the trace's span names ($(tr '\n' ' ' <"$dir/trace.names"))"
say "phases: summary matches the trace file ($(tr '\n' ' ' <"$dir/summary.names"))"

say "PASS"
