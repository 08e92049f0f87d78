#!/usr/bin/env bash
# Soak test for `clumsy serve`: the acceptance gate for the sharded
# service. Serves a bounded but large stream (default 1M packets)
# across >=4 shards with panic injection mid-stream, then asserts:
#
#   * clean exit 0 and "accounting ok" (no packet lost or double-run),
#   * every generated packet processed, dropped, or abandoned,
#   * bounded queues: telemetry high-water never exceeds the depth,
#   * zero wedged shards: the injected panic became exactly one
#     supervised restart and the run still drained.
#
#   CLUMSY_BIN       clumsy binary (default target/release/clumsy)
#   SOAK_PACKETS     packets to serve (default 1000000)
#   SOAK_SHARDS      shard count (default 4)
set -euo pipefail

BIN="${CLUMSY_BIN:-target/release/clumsy}"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

PACKETS="${SOAK_PACKETS:-1000000}"
SHARDS="${SOAK_SHARDS:-4}"
DEPTH=1024

# One integer from the metrics file, through the typed reader: exits
# nonzero when the schema marker or the key is missing.
metric() { "$BIN" metrics "$WORK/metrics.json" "$1"; }

echo "== soak: $PACKETS packets over $SHARDS shards (panic injected mid-stream) =="
"$BIN" serve --app crc --shards "$SHARDS" --queue-depth "$DEPTH" \
    --shed-timeout-ms 60000 --packets "$PACKETS" \
    --inject-panic "$((PACKETS / 2))" \
    --metrics "$WORK/metrics.json" --metrics-interval 5 --progress \
    > "$WORK/soak.out" \
    || { echo "FAIL: soak exited nonzero"; tail "$WORK/soak.out"; exit 1; }

grep -q 'accounting ok' "$WORK/soak.out" \
    || { echo "FAIL: accounting broken"; cat "$WORK/soak.out"; exit 1; }
grep -q "served $PACKETS packets" "$WORK/soak.out" \
    || { echo "FAIL: did not generate the full budget"; cat "$WORK/soak.out"; exit 1; }

INGESTED="$(metric packets_ingested)"
PROCESSED="$(metric packets_processed)"
DROPPED="$(metric packets_dropped)"
ABANDONED="$(metric packets_abandoned)"
SHED="$(metric packets_shed)"
RESTARTS="$(metric shard_restarts)"
PANICS="$(metric shard_panics)"
HIGHWATER="$(metric queue_highwater)"

echo "processed=$PROCESSED shed=$SHED dropped=$DROPPED abandoned=$ABANDONED restarts=$RESTARTS queue_hw=$HIGHWATER"

[ $((INGESTED + SHED)) -eq "$PACKETS" ] \
    || { echo "FAIL: $INGESTED ingested + $SHED shed != $PACKETS generated"; exit 1; }
[ "$INGESTED" -eq $((PROCESSED + DROPPED + ABANDONED)) ] \
    || { echo "FAIL: $INGESTED ingested != $PROCESSED + $DROPPED + $ABANDONED"; exit 1; }
[ "$HIGHWATER" -ge 1 ] && [ "$HIGHWATER" -le "$DEPTH" ] \
    || { echo "FAIL: queue high-water $HIGHWATER outside (0, $DEPTH]"; exit 1; }
[ "$PANICS" -eq 1 ] && [ "$RESTARTS" -eq 1 ] && [ "$ABANDONED" -eq 1 ] \
    || { echo "FAIL: expected exactly one supervised panic/restart/abandon"; exit 1; }

echo "serve soak passed: $PROCESSED packets across $SHARDS shards, bounded queues, zero wedged shards"
