#!/usr/bin/env bash
# benchcompare.sh — backend speed regression guard.
#
# Runs the BenchmarkBackendFullScan suite (the same warm full-scan
# workload on the cycle-accurate reference and on the bit-parallel
# lanes backend, the latter at pack widths 64/128/256), emits a
# machine-readable BENCH_backends.json with each backend's ns/op and
# speedup over the reference, and fails if the lanes backend drops
# below its floors: at least MIN_SPEEDUP_LANES (default 8) times faster
# than cycle on the full scan, with the wide packs no slower than the
# 64-lane pack beyond MIN_SPEEDUP_W128 / MIN_SPEEDUP_W256 (default
# 0.95, i.e. within noise of parity).  The differential suite proves
# the backends agree bit for bit; this script guards the reason the
# fast backend exists at all.
#
# Each sample round also times single races and one-word lane packs from
# internal/race's BenchmarkAlignLanesMulti (0.2 s a sub-benchmark): one
# 24×24 DNA pair raced alone on the cycle reference, and 24×24 lanes
# packs of 1, 36 and 64 lanes in one 64-lane word.  A single pair on
# lanes races as the one-lane pack, so the script also fails unless that
# pack is at least MIN_SPEEDUP_EVENT (default 10) times faster than the
# cycle single race.  The JSON reports the one-word pack medians too.
#
# Every ratio is computed from per-sub-benchmark medians of five
# samples.  The test binaries are built once and run five times, each
# run timing every sub-benchmark in turn, so the samples interleave and
# a slow moment of the host lands in one sample of every backend rather
# than in all samples of one.  (go test -count would run each
# sub-benchmark's samples back to back.)
#
# Usage: scripts/benchcompare.sh [benchtime]
set -euo pipefail
cd "$(dirname "$0")/.."

SAMPLES=5
BENCHTIME="${1:-3x}"
MIN_SPEEDUP_EVENT="${MIN_SPEEDUP_EVENT:-${MIN_SPEEDUP:-10}}"
MIN_SPEEDUP_LANES="${MIN_SPEEDUP_LANES:-8}"
MIN_SPEEDUP_W128="${MIN_SPEEDUP_W128:-0.95}"
MIN_SPEEDUP_W256="${MIN_SPEEDUP_W256:-0.95}"
PACK_BENCHTIME=0.2s
JSON_OUT="${JSON_OUT:-BENCH_backends.json}"

bindir="$(mktemp -d)"
trap 'rm -rf "$bindir"' EXIT
go test -c -o "$bindir/bench.test" .
go test -c -o "$bindir/race.test" ./internal/race
out=""
for ((i = 1; i <= SAMPLES; i++)); do
    round="$("$bindir/bench.test" -test.run=NONE -test.bench='BenchmarkBackendFullScan' -test.benchtime="$BENCHTIME")"
    round+=$'\n'"$("$bindir/race.test" -test.run=NONE \
        -test.bench='BenchmarkAlignLanesMulti/^24x24(-cycle)?$/^(1|36|64)of(1|64)$' \
        -test.benchtime="$PACK_BENCHTIME")"
    echo "$round"
    out+="$round"$'\n'
done

# median NAME [BENCH] prints the median ns/op of sub-benchmark NAME of
# BENCH (default BenchmarkBackendFullScan) over all samples, or nothing
# unless exactly SAMPLES were parsed.  The name is anchored, with an
# optional "-<GOMAXPROCS>" suffix (Go appends it only when GOMAXPROCS >
# 1), so "lanes" never also matches lanes128/256.
median() {
    echo "$out" |
        awk -v re="^${2:-BenchmarkBackendFullScan}/$1(-[0-9]+)?\$" '$1 ~ re {print $3}' |
        sort -g |
        awk -v n="$SAMPLES" '{v[NR] = $1} END {if (NR == n) print v[int((n + 1) / 2)]}'
}
pack() { median "$1" BenchmarkAlignLanesMulti; }
cycle_ns="$(median cycle)"
lanes_ns="$(median lanes)"
lanes128_ns="$(median lanes128)"
lanes256_ns="$(median lanes256)"
race_cycle_ns="$(pack 24x24-cycle/1of1)"
pack1_ns="$(pack 24x24/1of64)"
pack36_ns="$(pack 24x24/36of64)"
pack64_ns="$(pack 24x24/64of64)"

if [[ -z "$cycle_ns" || -z "$lanes_ns" || -z "$lanes128_ns" ||
      -z "$lanes256_ns" || -z "$race_cycle_ns" || -z "$pack1_ns" ||
      -z "$pack36_ns" || -z "$pack64_ns" ]]; then
    echo "benchcompare: could not parse benchmark output" >&2
    exit 1
fi

ratio() { awk -v a="$1" -v b="$2" 'BEGIN {printf "%.2f", a / b}'; }
lanes_speedup="$(ratio "$cycle_ns" "$lanes_ns")"
lanes128_speedup="$(ratio "$cycle_ns" "$lanes128_ns")"
lanes256_speedup="$(ratio "$cycle_ns" "$lanes256_ns")"
# Wide packs measured against the 64-lane pack, not cycle: the per-width
# floor asserts raising -lanewidth never costs per-candidate throughput.
w128_vs_64="$(ratio "$lanes_ns" "$lanes128_ns")"
w256_vs_64="$(ratio "$lanes_ns" "$lanes256_ns")"
# The one-lane lanes pack against the cycle reference's single race of
# the same pair: the speed a single query gets from the fast backend.
single_speedup="$(ratio "$race_cycle_ns" "$pack1_ns")"

cat > "$JSON_OUT" <<EOF
{
  "benchmark": "BenchmarkBackendFullScan",
  "benchtime": "$BENCHTIME",
  "samples": $SAMPLES,
  "statistic": "median ns/op per sub-benchmark",
  "backends": {
    "cycle": {"ns_per_op": $cycle_ns, "speedup": 1.00},
    "lanes": {"ns_per_op": $lanes_ns, "speedup": $lanes_speedup}
  },
  "lane_widths": {
    "64":  {"ns_per_op": $lanes_ns, "speedup": $lanes_speedup, "vs_width64": 1.00},
    "128": {"ns_per_op": $lanes128_ns, "speedup": $lanes128_speedup, "vs_width64": $w128_vs_64},
    "256": {"ns_per_op": $lanes256_ns, "speedup": $lanes256_speedup, "vs_width64": $w256_vs_64}
  },
  "floors": {"lanes": $MIN_SPEEDUP_LANES, "single_race": $MIN_SPEEDUP_EVENT,
             "width128_vs_64": $MIN_SPEEDUP_W128, "width256_vs_64": $MIN_SPEEDUP_W256},
  "single_race": {
    "benchmark": "BenchmarkAlignLanesMulti",
    "benchtime": "$PACK_BENCHTIME",
    "shape": "24x24 DNA",
    "cycle_ns_per_op": $race_cycle_ns,
    "lanes_1of64_ns_per_op": $pack1_ns,
    "lanes_1of64_speedup": $single_speedup
  },
  "one_word_packs": {
    "1of64":  {"ns_per_op": $pack1_ns},
    "36of64": {"ns_per_op": $pack36_ns},
    "64of64": {"ns_per_op": $pack64_ns}
  }
}
EOF
echo "benchcompare: wrote $JSON_OUT"
echo "benchcompare: medians of $SAMPLES interleaved samples"
echo "benchcompare: lanes ${lanes_speedup}x over cycle (${cycle_ns} ns/op)"
echo "benchcompare: lane width 128 ${w128_vs_64}x, 256 ${w256_vs_64}x vs width 64"
echo "benchcompare: 24x24 single race: cycle ${race_cycle_ns}, one-lane lanes pack ${pack1_ns} ns/op (${single_speedup}x)"
echo "benchcompare: one-word packs: 1of64 ${pack1_ns}, 36of64 ${pack36_ns}, 64of64 ${pack64_ns} ns/op"

fail=0
check() { # name speedup floor message
    local ok
    ok="$(awk -v s="$2" -v m="$3" 'BEGIN {print (s >= m) ? 1 : 0}')"
    if [[ "$ok" != 1 ]]; then
        echo "benchcompare: FAIL — $4" >&2
        fail=1
    fi
}
check lanes "$lanes_speedup" "$MIN_SPEEDUP_LANES" \
    "lanes backend is only ${lanes_speedup}x the cycle backend (minimum ${MIN_SPEEDUP_LANES}x)"
check single "$single_speedup" "$MIN_SPEEDUP_EVENT" \
    "the one-lane lanes pack is only ${single_speedup}x the cycle single race (minimum ${MIN_SPEEDUP_EVENT}x)"
check w128 "$w128_vs_64" "$MIN_SPEEDUP_W128" \
    "128-lane packs are ${w128_vs_64}x the 64-lane packs (minimum ${MIN_SPEEDUP_W128}x)"
check w256 "$w256_vs_64" "$MIN_SPEEDUP_W256" \
    "256-lane packs are ${w256_vs_64}x the 64-lane packs (minimum ${MIN_SPEEDUP_W256}x)"
exit "$fail"
