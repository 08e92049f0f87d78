#!/usr/bin/env bash
# Overload smoke test for `clumsy serve`: skew-hardening end to end.
#
# Drives a bounded elephant-mix stream (one flow carries ~half of the
# traffic) through a deliberately undersized service — small queues and
# a tight per-flow cap — so the ingress sustains roughly 2x what the
# shards can absorb without shedding. Asserts the overload contract:
#
#   * exit 0 and "accounting ok" — overload is not an error;
#   * both accounting identities hold:
#       generated = ingested + shed
#       ingested  = processed + dropped + abandoned
#   * zero wedged shards (every shard processed packets);
#   * the shed lands on the elephant: its shed *rate* is at least the
#     mice's (integer cross-multiplication, no float ratios);
#   * both overload mechanisms fired: the per-flow cap shed packets and
#     the DRR scheduler topped up deficits;
#   * the enqueue->verdict latency histogram reached the metrics file.
#
#   CLUMSY_BIN    clumsy binary (default target/release/clumsy)
#   PACKETS       bounded stream length (default 8000)
set -euo pipefail

BIN="${CLUMSY_BIN:-target/release/clumsy}"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

PACKETS="${PACKETS:-8000}"
SHARDS=2

# One integer from the metrics file, through the typed reader: exits
# nonzero when the schema marker or the key is missing.
metric() { "$BIN" metrics "$WORK/metrics.json" "$1"; }

# Pulls `key=N` off a summary line.
field() { # field <key> <file>
    grep -o "$1=[0-9]*" "$2" | head -n1 | grep -o '[0-9]*$'
}

echo "== serve $PACKETS elephant-mix packets through an undersized service =="
"$BIN" serve --app crc --shards "$SHARDS" --queue-depth 32 \
    --packets "$PACKETS" --flows 1024 --pattern elephant \
    --flow-queue-cap 4 \
    --shed-timeout-ms 60000 \
    --metrics "$WORK/metrics.json" > "$WORK/serve.out" \
    || { echo "FAIL: overload run exited non-zero"; cat "$WORK/serve.out"; exit 1; }
grep -q 'accounting ok' "$WORK/serve.out" \
    || { echo "FAIL: accounting line missing/broken"; cat "$WORK/serve.out"; exit 1; }

echo "== both accounting identities hold =="
# served G packets in ...: P processed, S shed, D dropped, A abandoned, ...
HEAD="$(head -n1 "$WORK/serve.out")"
num() { echo "$HEAD" | grep -o "[0-9]* $1" | grep -o '^[0-9]*'; }
GENERATED="$(echo "$HEAD" | grep -o 'served [0-9]*' | grep -o '[0-9]*')"
SHED="$(num shed)"
INGESTED="$(metric packets_ingested)"
PROCESSED="$(metric packets_processed)"
DROPPED="$(metric packets_dropped)"
ABANDONED="$(metric packets_abandoned)"
[ "$GENERATED" -eq "$PACKETS" ] \
    || { echo "FAIL: generated $GENERATED != budget $PACKETS"; exit 1; }
[ "$GENERATED" -eq $((INGESTED + SHED)) ] \
    || { echo "FAIL: $GENERATED generated != $INGESTED ingested + $SHED shed"; exit 1; }
[ "$INGESTED" -eq $((PROCESSED + DROPPED + ABANDONED)) ] \
    || { echo "FAIL: $INGESTED ingested != $PROCESSED + $DROPPED + $ABANDONED"; exit 1; }
[ "$SHED" -gt 0 ] \
    || { echo "FAIL: an undersized service shed nothing — not an overload run"; exit 1; }
echo "ok: $GENERATED = $INGESTED ingested + $SHED shed; $INGESTED = $PROCESSED + $DROPPED + $ABANDONED"

echo "== zero wedged shards =="
# Shard rows are the only 10-field lines; field 2 is processed.
WEDGED="$(awk 'NF == 10 && $1 ~ /^[0-9]+$/ && $2 == 0 { n++ } END { print n + 0 }' "$WORK/serve.out")"
ROWS="$(awk 'NF == 10 && $1 ~ /^[0-9]+$/ { n++ } END { print n + 0 }' "$WORK/serve.out")"
[ "$ROWS" -eq "$SHARDS" ] \
    || { echo "FAIL: expected $SHARDS shard rows, got $ROWS"; cat "$WORK/serve.out"; exit 1; }
[ "$WEDGED" -eq 0 ] \
    || { echo "FAIL: $WEDGED shard(s) processed nothing"; cat "$WORK/serve.out"; exit 1; }
echo "ok: all $ROWS shards made progress"

echo "== the shed lands on the elephant, not the mice =="
grep -q 'flow shed: elephant=' "$WORK/serve.out" \
    || { echo "FAIL: flow shed line missing"; cat "$WORK/serve.out"; exit 1; }
E_SHED="$(field elephant_shed "$WORK/serve.out")"
E_OFF="$(field elephant_offered "$WORK/serve.out")"
M_SHED="$(field mice_shed "$WORK/serve.out")"
M_OFF="$(field mice_offered "$WORK/serve.out")"
[ "$E_SHED" -gt 0 ] \
    || { echo "FAIL: the elephant was never shed under overload"; cat "$WORK/serve.out"; exit 1; }
# elephant_shed/elephant_offered >= mice_shed/mice_offered, in integers.
[ $((E_SHED * M_OFF)) -ge $((M_SHED * E_OFF)) ] \
    || { echo "FAIL: mice shed rate exceeds the elephant's ($M_SHED/$M_OFF vs $E_SHED/$E_OFF)"; exit 1; }
echo "ok: elephant shed $E_SHED/$E_OFF offered; mice shed $M_SHED/$M_OFF offered"

echo "== the flow cap and the DRR scheduler fired =="
FLOW_CAP_SHED="$(metric packets_shed_flow_cap)"
TOPUPS="$(metric drr_deficit_topups)"
[ "$FLOW_CAP_SHED" -gt 0 ] \
    || { echo "FAIL: the per-flow cap never shed a packet"; exit 1; }
[ "$TOPUPS" -gt 0 ] \
    || { echo "FAIL: the DRR scheduler never topped up a deficit"; exit 1; }
echo "ok: $FLOW_CAP_SHED flow-cap sheds, $TOPUPS DRR top-ups"

echo "== latency histogram reached the serve metrics group =="
grep -q '"schema": "clumsy-metrics-v1"' "$WORK/metrics.json" \
    || { echo "FAIL: schema marker missing"; exit 1; }
grep -q '"serve_latency_us_buckets":' "$WORK/metrics.json" \
    || { echo "FAIL: metrics JSON is missing \"serve_latency_us_buckets\""; exit 1; }
LAT_COUNT="$(metric serve_latency_us_count)"
[ "$LAT_COUNT" -gt 0 ] \
    || { echo "FAIL: latency histogram is empty"; exit 1; }
[ "$LAT_COUNT" -eq "$PROCESSED" ] \
    || { echo "FAIL: timed $LAT_COUNT packets but processed $PROCESSED"; exit 1; }
echo "ok: $LAT_COUNT enqueue->verdict samples recorded"

echo "serve overload smoke passed"
