#!/usr/bin/env bash
# Smoke test for `clumsy serve`: the never-wedge contract end to end.
#
# Serves an unbounded stream on >=2 shards for a few seconds with
# periodic metrics flushes, sends SIGTERM, and asserts the drain
# protocol: exit 0, "accounting ok" in the summary, and a schema-stable
# final metrics snapshot whose serve counters satisfy the accounting
# identity (ingested = processed + dropped + abandoned). A second,
# bounded pass injects a shard panic and requires the supervisor to
# restart the shard without failing the run.
#
#   CLUMSY_BIN       clumsy binary (default target/release/clumsy)
#   SERVE_SECONDS    how long to serve before SIGTERM (default 3)
#   SERVE_SHARDS     shard count (default 2)
set -euo pipefail

BIN="${CLUMSY_BIN:-target/release/clumsy}"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

SECS="${SERVE_SECONDS:-3}"
SHARDS="${SERVE_SHARDS:-2}"
# A shed timeout far beyond any CI hiccup: smoke runs must never shed,
# so the accounting below is exact.
ARGS=(serve --app crc --shards "$SHARDS" --queue-depth 64 --shed-timeout-ms 60000)

# One integer from the metrics file, through the typed reader: exits
# nonzero when the schema marker or the key is missing.
metric() { "$BIN" metrics "$WORK/metrics.json" "$1"; }

echo "== serve for ${SECS}s on ${SHARDS} shards, then SIGTERM =="
"$BIN" "${ARGS[@]}" --metrics "$WORK/metrics.json" --metrics-interval 1 \
    > "$WORK/serve.out" &
PID=$!
sleep "$SECS"
kill -TERM "$PID"
if wait "$PID"; then
    echo "exit 0: drained cleanly"
else
    echo "FAIL: serve exited $? on SIGTERM (must drain and exit 0)"
    cat "$WORK/serve.out"
    exit 1
fi

echo "== summary reports a clean drain =="
grep -q 'accounting ok' "$WORK/serve.out" \
    || { echo "FAIL: accounting line missing/broken"; cat "$WORK/serve.out"; exit 1; }
grep -q 'drained all queues and exited cleanly' "$WORK/serve.out" \
    || { echo "FAIL: drain message missing"; cat "$WORK/serve.out"; exit 1; }

echo "== final metrics snapshot is schema-stable =="
grep -q '"schema": "clumsy-metrics-v1"' "$WORK/metrics.json" \
    || { echo "FAIL: schema marker missing"; exit 1; }
SERVE_KEYS=(
  packets_ingested packets_shed packets_processed packets_erroneous
  packets_dropped packets_abandoned shard_panics shard_restarts
  shard_setup_retries queue_highwater
)
"$BIN" metrics "$WORK/metrics.json" "${SERVE_KEYS[@]}" > /dev/null \
    || { echo "FAIL: metrics JSON is missing a serve key"; exit 1; }
echo "all ${#SERVE_KEYS[@]} serve keys present"

echo "== drain accounting holds in the snapshot =="
INGESTED="$(metric packets_ingested)"
PROCESSED="$(metric packets_processed)"
DROPPED="$(metric packets_dropped)"
ABANDONED="$(metric packets_abandoned)"
HIGHWATER="$(metric queue_highwater)"
[ "$INGESTED" -gt 0 ] || { echo "FAIL: served nothing in ${SECS}s"; exit 1; }
[ "$INGESTED" -eq $((PROCESSED + DROPPED + ABANDONED)) ] \
    || { echo "FAIL: $INGESTED ingested != $PROCESSED + $DROPPED + $ABANDONED"; exit 1; }
[ "$HIGHWATER" -ge 1 ] && [ "$HIGHWATER" -le 64 ] \
    || { echo "FAIL: queue high-water $HIGHWATER outside (0, depth]"; exit 1; }
echo "ok: $INGESTED ingested = $PROCESSED processed + $DROPPED dropped + $ABANDONED abandoned (queue hw $HIGHWATER)"

echo "== an injected shard panic is supervised, not fatal =="
"$BIN" "${ARGS[@]}" --packets 400 --inject-panic 200 > "$WORK/panic.out" \
    || { echo "FAIL: panic injection crashed the service"; cat "$WORK/panic.out"; exit 1; }
grep -q '1 restarts' "$WORK/panic.out" \
    || { echo "FAIL: supervisor did not restart the shard"; cat "$WORK/panic.out"; exit 1; }
grep -q 'accounting ok' "$WORK/panic.out" \
    || { echo "FAIL: accounting broken after restart"; cat "$WORK/panic.out"; exit 1; }
echo "ok: shard restarted, accounting still holds"

echo "serve smoke passed"
