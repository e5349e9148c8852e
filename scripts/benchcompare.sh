#!/usr/bin/env bash
# benchcompare.sh — backend speed regression guard.
#
# Runs the BenchmarkBackendFullScan suite (the same warm full-scan
# workload on the cycle-accurate, event-driven, and bit-parallel lanes
# backends, the last at pack widths 64/128/256), emits a
# machine-readable BENCH_backends.json with each backend's ns/op and
# speedup over the reference, and fails if a fast backend drops below
# its floor: the event backend must be at least MIN_SPEEDUP_EVENT
# (default 1.5) times faster than cycle, the lanes backend at least
# MIN_SPEEDUP_LANES (default 8) times, and the wide packs must not be
# slower than the 64-lane pack beyond MIN_SPEEDUP_W128 /
# MIN_SPEEDUP_W256 (default 0.95, i.e. within noise of parity).  The
# differential suite proves the backends agree bit for bit; this script
# guards the reason the fast backends exist at all.
#
# Every ratio is computed from per-sub-benchmark medians of five
# samples.  The test binary is built once and run five times, each run
# timing all five sub-benchmarks in turn, so the samples interleave and
# a slow moment of the host lands in one sample of every backend rather
# than in all samples of one.  (go test -count would run each
# sub-benchmark's samples back to back.)
#
# Usage: scripts/benchcompare.sh [benchtime]
set -euo pipefail
cd "$(dirname "$0")/.."

SAMPLES=5
BENCHTIME="${1:-3x}"
MIN_SPEEDUP_EVENT="${MIN_SPEEDUP_EVENT:-${MIN_SPEEDUP:-1.5}}"
MIN_SPEEDUP_LANES="${MIN_SPEEDUP_LANES:-8}"
MIN_SPEEDUP_W128="${MIN_SPEEDUP_W128:-0.95}"
MIN_SPEEDUP_W256="${MIN_SPEEDUP_W256:-0.95}"
JSON_OUT="${JSON_OUT:-BENCH_backends.json}"

bindir="$(mktemp -d)"
trap 'rm -rf "$bindir"' EXIT
go test -c -o "$bindir/bench.test" .
out=""
for ((i = 1; i <= SAMPLES; i++)); do
    round="$("$bindir/bench.test" -test.run=NONE -test.bench='BenchmarkBackendFullScan' -test.benchtime="$BENCHTIME")"
    echo "$round"
    out+="$round"$'\n'
done

# median NAME prints the median ns/op of sub-benchmark NAME over all
# samples, or nothing unless exactly SAMPLES were parsed.  The name is
# anchored, with an optional "-<GOMAXPROCS>" suffix (Go appends it only
# when GOMAXPROCS > 1), so "lanes" never also matches lanes128/256.
median() {
    echo "$out" |
        awk -v re="^BenchmarkBackendFullScan/$1(-[0-9]+)?\$" '$1 ~ re {print $3}' |
        sort -g |
        awk -v n="$SAMPLES" '{v[NR] = $1} END {if (NR == n) print v[int((n + 1) / 2)]}'
}
cycle_ns="$(median cycle)"
event_ns="$(median event)"
lanes_ns="$(median lanes)"
lanes128_ns="$(median lanes128)"
lanes256_ns="$(median lanes256)"

if [[ -z "$cycle_ns" || -z "$event_ns" || -z "$lanes_ns" ||
      -z "$lanes128_ns" || -z "$lanes256_ns" ]]; then
    echo "benchcompare: could not parse benchmark output" >&2
    exit 1
fi

ratio() { awk -v a="$1" -v b="$2" 'BEGIN {printf "%.2f", a / b}'; }
event_speedup="$(ratio "$cycle_ns" "$event_ns")"
lanes_speedup="$(ratio "$cycle_ns" "$lanes_ns")"
lanes128_speedup="$(ratio "$cycle_ns" "$lanes128_ns")"
lanes256_speedup="$(ratio "$cycle_ns" "$lanes256_ns")"
# Wide packs measured against the 64-lane pack, not cycle: the per-width
# floor asserts raising -lanewidth never costs per-candidate throughput.
w128_vs_64="$(ratio "$lanes_ns" "$lanes128_ns")"
w256_vs_64="$(ratio "$lanes_ns" "$lanes256_ns")"

cat > "$JSON_OUT" <<EOF
{
  "benchmark": "BenchmarkBackendFullScan",
  "benchtime": "$BENCHTIME",
  "samples": $SAMPLES,
  "statistic": "median ns/op per sub-benchmark",
  "backends": {
    "cycle": {"ns_per_op": $cycle_ns, "speedup": 1.00},
    "event": {"ns_per_op": $event_ns, "speedup": $event_speedup},
    "lanes": {"ns_per_op": $lanes_ns, "speedup": $lanes_speedup}
  },
  "lane_widths": {
    "64":  {"ns_per_op": $lanes_ns, "speedup": $lanes_speedup, "vs_width64": 1.00},
    "128": {"ns_per_op": $lanes128_ns, "speedup": $lanes128_speedup, "vs_width64": $w128_vs_64},
    "256": {"ns_per_op": $lanes256_ns, "speedup": $lanes256_speedup, "vs_width64": $w256_vs_64}
  },
  "floors": {"event": $MIN_SPEEDUP_EVENT, "lanes": $MIN_SPEEDUP_LANES,
             "width128_vs_64": $MIN_SPEEDUP_W128, "width256_vs_64": $MIN_SPEEDUP_W256}
}
EOF
echo "benchcompare: wrote $JSON_OUT"
echo "benchcompare: medians of $SAMPLES interleaved samples"
echo "benchcompare: event ${event_speedup}x, lanes ${lanes_speedup}x over cycle (${cycle_ns} ns/op)"
echo "benchcompare: lane width 128 ${w128_vs_64}x, 256 ${w256_vs_64}x vs width 64"

fail=0
check() { # name speedup floor message
    local ok
    ok="$(awk -v s="$2" -v m="$3" 'BEGIN {print (s >= m) ? 1 : 0}')"
    if [[ "$ok" != 1 ]]; then
        echo "benchcompare: FAIL — $4" >&2
        fail=1
    fi
}
check event "$event_speedup" "$MIN_SPEEDUP_EVENT" \
    "event backend is only ${event_speedup}x the cycle backend (minimum ${MIN_SPEEDUP_EVENT}x)"
check lanes "$lanes_speedup" "$MIN_SPEEDUP_LANES" \
    "lanes backend is only ${lanes_speedup}x the cycle backend (minimum ${MIN_SPEEDUP_LANES}x)"
check w128 "$w128_vs_64" "$MIN_SPEEDUP_W128" \
    "128-lane packs are ${w128_vs_64}x the 64-lane packs (minimum ${MIN_SPEEDUP_W128}x)"
check w256 "$w256_vs_64" "$MIN_SPEEDUP_W256" \
    "256-lane packs are ${w256_vs_64}x the 64-lane packs (minimum ${MIN_SPEEDUP_W256}x)"
exit "$fail"
