#!/usr/bin/env bash
# crashtest.sh — end-to-end crash-recovery smoke for raceserve -wal.
#
# Starts the server with a durable state directory, inserts entries and
# deletes one over HTTP, SIGKILLs the process mid-flight (no shutdown
# handler runs, no snapshot is saved), restarts it on the same
# directory, and asserts /stats reports every acknowledged mutation.  It
# then stops the recovered server cleanly with SIGTERM and starts it a
# third time: the shutdown checkpoint must keep the recovered journal
# tails, and it captures the tombstone into a snapshot rather than
# compacting it away.  Run from the repo root:
#
#   ./scripts/crashtest.sh
set -euo pipefail

ADDR="127.0.0.1:8471"
DIR="$(mktemp -d)"
LOG="$DIR/raceserve.log"
trap 'kill -9 $PID 2>/dev/null || true; rm -rf "$DIR"' EXIT

go build -o "$DIR/raceserve" ./cmd/raceserve

entries() {
    curl -sf "http://$ADDR/stats" | grep -o '"entries":[0-9]*' | head -1 | cut -d: -f2
}

tombstones() {
    curl -sf "http://$ADDR/stats" | grep -o '"tombstones":[0-9]*' | head -1 | cut -d: -f2
}

# check_shards asserts /stats holds 4 per-shard gauge sets whose entries
# sum to the global count given.
check_shards() {
    local stats shards arr objs sum
    stats=$(curl -sf "http://$ADDR/stats")
    shards=$(echo "$stats" | grep -o '"shard_count":[0-9]*' | cut -d: -f2)
    [ "$shards" = 4 ] || { echo "$1: shard_count = $shards, want 4" >&2; exit 1; }
    arr=$(echo "$stats" | sed -n 's/.*"shards":\[\(.*\)\].*/\1/p')
    [ -n "$arr" ] || { echo "$1: /stats has no shards[] gauges" >&2; exit 1; }
    objs=$(echo "$arr" | grep -o '"shard":[0-9]*' | wc -l)
    [ "$objs" = 4 ] || { echo "$1: shards[] holds $objs gauge sets, want 4" >&2; exit 1; }
    sum=$(echo "$arr" | grep -o '"entries":[0-9]*' | cut -d: -f2 | awk '{s+=$1} END{print s}')
    if [ "$sum" != "$2" ]; then
        echo "$1: per-shard entries sum to $sum, global says $2" >&2
        exit 1
    fi
}

wait_up() {
    for _ in $(seq 1 100); do
        if curl -sf "http://$ADDR/healthz" >/dev/null 2>&1; then return 0; fi
        sleep 0.1
    done
    echo "raceserve never came up; log:" >&2
    cat "$LOG" >&2
    exit 1
}

# Cold start: bootstrap the durable directory from a generated corpus,
# partitioned into 4 shards (each with its own snapshot + WAL chain).
# Background snapshots are disabled so recovery exercises the WALs alone.
"$DIR/raceserve" -addr "$ADDR" -gen 50 -genlen 10 -seedk 4 -shards 4 \
    -wal "$DIR/state" -snapshot-interval 0 -snapshot-every 0 >"$LOG" 2>&1 &
PID=$!
wait_up
BASE=$(entries)
[ "$BASE" = 50 ] || { echo "expected 50 generated entries, got $BASE" >&2; exit 1; }

# Acknowledged mutations: a JSON insert, a bulk FASTA upload, and the
# removal of one generated entry, which leaves a tombstone.
curl -sf -XPOST "http://$ADDR/entries" \
    -d '{"entries":["ACGTACGTACGT","TTTTCCCCGGGG"]}' >/dev/null
printf '>u1\nAAAATTTTCCCC\n>u2\nGGGGTTTTAAAA\n' |
    curl -sf -XPOST "http://$ADDR/entries/bulk" --data-binary @- >/dev/null
curl -sf -XDELETE "http://$ADDR/entries/7" >/dev/null
PRE=$(entries)
[ "$PRE" = 53 ] || { echo "expected 53 entries before the kill, got $PRE" >&2; exit 1; }

# Crash hard: SIGKILL, no handler runs, nothing is saved.
kill -9 "$PID"
wait "$PID" 2>/dev/null || true

# Recover on the same directory: the journal tail must restore all 53.
"$DIR/raceserve" -addr "$ADDR" -wal "$DIR/state" >>"$LOG" 2>&1 &
PID=$!
wait_up
POST=$(entries)
if [ "$POST" != "$PRE" ]; then
    echo "crash recovery lost entries: $POST after kill -9, want $PRE; log:" >&2
    cat "$LOG" >&2
    exit 1
fi

# The per-shard gauges must be coherent after recovery: 4 shards whose
# entries sum to the global count, each shard recovered from its own
# snapshot + journal tail.
check_shards "after recovery" "$POST"
# The journal tails that performed the recovery must be visible per shard.
WAL_RECS=$(curl -sf "http://$ADDR/stats" | sed -n 's/.*"shards":\[\(.*\)\].*/\1/p' |
    grep -o '"wal_records":[0-9]*' | cut -d: -f2 | awk '{s+=$1} END{print s}')
[ "$WAL_RECS" -gt 0 ] || { echo "no journal records after WAL-only recovery" >&2; exit 1; }

# And the recovered database still answers searches.
curl -sf -XPOST "http://$ADDR/search" -d '{"query":"ACGTACGTACGT","top_k":3}' |
    grep -q '"ACGTACGTACGT"' || { echo "recovered database lost the inserted entry" >&2; exit 1; }

# The recovery must be visible on /metrics: the WAL-replay counter
# counts the journal records the restart folded back in, and the build
# info series identifies the serving binary.
METRICS=$(curl -sf "http://$ADDR/metrics")
REPLAYED=$(echo "$METRICS" | awk '/^racelogic_wal_replayed_records_total/ {print $2}')
if ! [ "${REPLAYED:-0}" -gt 0 ] 2>/dev/null; then
    echo "racelogic_wal_replayed_records_total = '$REPLAYED' after WAL-only recovery, want > 0" >&2
    exit 1
fi
echo "$METRICS" | grep -q '^racelogic_build_info{' ||
    { echo "/metrics is missing racelogic_build_info" >&2; exit 1; }
echo "$METRICS" | grep -q '^racelogic_shard_entries{shard="3"}' ||
    { echo "/metrics is missing the per-shard entry gauges" >&2; exit 1; }

# Stop cleanly: SIGTERM runs the shutdown path, whose final checkpoint
# must fold the replayed journal tails into the shard snapshots rather
# than truncate them away.  A third start must still see every entry,
# and the tombstone the checkpoint captured.
kill -TERM "$PID"
if ! wait "$PID"; then
    echo "raceserve did not stop cleanly on SIGTERM; log:" >&2
    cat "$LOG" >&2
    exit 1
fi
"$DIR/raceserve" -addr "$ADDR" -wal "$DIR/state" >>"$LOG" 2>&1 &
PID=$!
wait_up
FINAL=$(entries)
if [ "$FINAL" != "$PRE" ]; then
    echo "clean stop after recovery lost entries: $FINAL after restart, want $PRE; log:" >&2
    cat "$LOG" >&2
    exit 1
fi
check_shards "after the third start" "$FINAL"
DEAD=$(tombstones)
[ "$DEAD" = 1 ] || { echo "third start holds $DEAD tombstones, want the 1 the checkpoint captured" >&2; exit 1; }

kill "$PID" 2>/dev/null || true
wait "$PID" 2>/dev/null || true
echo "crashtest: OK — $PRE entries and a tombstone survived kill -9 and a clean stop across 4 shards"
