#!/usr/bin/env bash
# Class-aware SLO smoke test for `clumsy serve`: admission classes and
# the latency-SLO shed trigger end to end.
#
# Drives a bounded elephant-mix stream through an undersized service
# with a slice of the flow population marked control class and an
# unmeetable 1 us p99 budget, so the SLO trigger must arm and the
# flow-cap overload must land entirely on the data class. Asserts the
# class contract:
#
#   * exit 0 and "accounting ok" — overload is not an error;
#   * the p99 trigger observably fired (slo_trigger_activations > 0 in
#     the clumsy-metrics-v1 JSON, and the summary's slo: line agrees);
#   * zero control-class sheds, on both the summary and the metrics
#     ledger (the queue depth exceeds the run's whole control packet
#     count, so a control shed is structurally a bug, not bad luck);
#
# The flow population (256) is deliberately large relative to the
# queue depth (256): the aggregate of the per-flow caps exceeds the
# queue, so the ingress queues actually fill and backpressure paces
# the pump against the shards. That makes the trigger deterministic —
# every p99 window observes real queueing delay — instead of racing a
# fast release build to the end of the bounded stream.
#   * both class accounting identities are exact:
#       control_offered + data_offered = generated
#       control_shed    + data_shed    = shed
#   * zero wedged shards and zero invariant repairs.
#
#   CLUMSY_BIN    clumsy binary (default target/release/clumsy)
#   PACKETS       bounded stream length (default 4000)
set -euo pipefail

BIN="${CLUMSY_BIN:-target/release/clumsy}"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

PACKETS="${PACKETS:-4000}"
SHARDS=2

# One integer from the metrics file, through the typed reader: exits
# nonzero when the schema marker or the key is missing.
metric() { "$BIN" metrics "$WORK/metrics.json" "$1"; }

# Pulls `key=N` off a summary line.
field() { # field <key> <file>
    grep -o "$1=[0-9]*" "$2" | head -n1 | grep -o '[0-9]*$'
}

echo "== serve $PACKETS class-tagged elephant-mix packets under a 1us p99 budget =="
"$BIN" serve --app crc --shards "$SHARDS" --queue-depth 256 \
    --packets "$PACKETS" --flows 256 --pattern elephant \
    --flow-queue-cap 4 \
    --shed-timeout-ms 60000 \
    --control-flows 6 --slo-p99-us 1 \
    --metrics "$WORK/metrics.json" > "$WORK/serve.out" \
    || { echo "FAIL: class-aware run exited non-zero"; cat "$WORK/serve.out"; exit 1; }
grep -q 'accounting ok' "$WORK/serve.out" \
    || { echo "FAIL: accounting line missing/broken"; cat "$WORK/serve.out"; exit 1; }

echo "== the p99 trigger fired =="
grep -q 'slo: budget_us=1' "$WORK/serve.out" \
    || { echo "FAIL: slo summary line missing"; cat "$WORK/serve.out"; exit 1; }
ACTIVATIONS="$(metric slo_trigger_activations)"
[ "$ACTIVATIONS" -gt 0 ] \
    || { echo "FAIL: slo_trigger_activations is $ACTIVATIONS under an unmeetable budget"; exit 1; }
SUM_ACT="$(field activations "$WORK/serve.out")"
[ "$SUM_ACT" -eq "$ACTIVATIONS" ] \
    || { echo "FAIL: summary says $SUM_ACT activations, metrics say $ACTIVATIONS"; exit 1; }
LAST_P99="$(metric slo_last_p99_us)"
[ "$LAST_P99" -gt 1 ] \
    || { echo "FAIL: last p99 estimate $LAST_P99 never exceeded the 1us budget"; exit 1; }
echo "ok: trigger fired $ACTIVATIONS time(s); last windowed p99 ${LAST_P99}us"

echo "== zero control-class sheds; data absorbed the overload =="
grep -q 'class: control_offered=' "$WORK/serve.out" \
    || { echo "FAIL: class summary line missing"; cat "$WORK/serve.out"; exit 1; }
C_OFF="$(field control_offered "$WORK/serve.out")"
C_SHED="$(field control_shed "$WORK/serve.out")"
D_OFF="$(field data_offered "$WORK/serve.out")"
D_SHED="$(field data_shed "$WORK/serve.out")"
[ "$C_OFF" -gt 0 ] \
    || { echo "FAIL: no control traffic was generated"; cat "$WORK/serve.out"; exit 1; }
[ "$C_SHED" -eq 0 ] \
    || { echo "FAIL: $C_SHED control packet(s) shed — the class guarantee broke"; exit 1; }
[ "$(metric packets_shed_control)" -eq 0 ] \
    || { echo "FAIL: metrics ledger counted control sheds"; exit 1; }
[ "$D_SHED" -gt 0 ] \
    || { echo "FAIL: an undersized service shed no data — not an overload run"; exit 1; }
echo "ok: control $C_SHED/$C_OFF shed; data $D_SHED/$D_OFF shed"

echo "== both class accounting identities are exact =="
# served G packets in ...: P processed, S shed, D dropped, A abandoned, ...
HEAD="$(head -n1 "$WORK/serve.out")"
num() { echo "$HEAD" | grep -o "[0-9]* $1" | grep -o '^[0-9]*'; }
GENERATED="$(echo "$HEAD" | grep -o 'served [0-9]*' | grep -o '[0-9]*')"
SHED="$(num shed)"
[ "$GENERATED" -eq $((C_OFF + D_OFF)) ] \
    || { echo "FAIL: $GENERATED generated != $C_OFF control + $D_OFF data offered"; exit 1; }
[ "$SHED" -eq $((C_SHED + D_SHED)) ] \
    || { echo "FAIL: $SHED shed != $C_SHED control + $D_SHED data shed"; exit 1; }
INGESTED="$(metric packets_ingested)"
PROCESSED="$(metric packets_processed)"
DROPPED="$(metric packets_dropped)"
ABANDONED="$(metric packets_abandoned)"
[ "$GENERATED" -eq $((INGESTED + SHED)) ] \
    || { echo "FAIL: $GENERATED generated != $INGESTED ingested + $SHED shed"; exit 1; }
[ "$INGESTED" -eq $((PROCESSED + DROPPED + ABANDONED)) ] \
    || { echo "FAIL: $INGESTED ingested != $PROCESSED + $DROPPED + $ABANDONED"; exit 1; }
echo "ok: $GENERATED = $C_OFF+$D_OFF offered = $INGESTED ingested + $SHED shed"

echo "== zero wedged shards, zero invariant repairs =="
WEDGED="$(awk 'NF == 10 && $1 ~ /^[0-9]+$/ && $2 == 0 { n++ } END { print n + 0 }' "$WORK/serve.out")"
ROWS="$(awk 'NF == 10 && $1 ~ /^[0-9]+$/ { n++ } END { print n + 0 }' "$WORK/serve.out")"
[ "$ROWS" -eq "$SHARDS" ] \
    || { echo "FAIL: expected $SHARDS shard rows, got $ROWS"; cat "$WORK/serve.out"; exit 1; }
[ "$WEDGED" -eq 0 ] \
    || { echo "FAIL: $WEDGED shard(s) processed nothing"; cat "$WORK/serve.out"; exit 1; }
[ "$(metric queue_invariant_repairs)" -eq 0 ] \
    || { echo "FAIL: the ingress queues repaired invariant damage in a clean run"; exit 1; }
echo "ok: all $ROWS shards made progress"

echo "serve slo smoke passed"
