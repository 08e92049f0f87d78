#!/usr/bin/env bash
# Telemetry smoke test for the campaign path.
#
# Runs one tiny durable campaign with --progress and --metrics, asserts
# the metrics JSON carries every schema-v1 key the dashboard contract
# promises, then re-runs the same grid with telemetry off and requires
# the CSV to be byte-for-byte identical — the telemetry-is-passive
# guarantee, checked end to end through the real binary.
#
#   CLUMSY_BIN       clumsy binary (default target/release/clumsy)
#   SMOKE_PACKETS    trace length (default 200)
#   METRICS_OUT      where to leave the metrics JSON for artifact upload
#                    (default: not kept)
set -euo pipefail

BIN="${CLUMSY_BIN:-target/release/clumsy}"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

ARGS=(campaign --app crc --packets "${SMOKE_PACKETS:-200}" --trials 1 --jobs 2)

echo "== durable campaign with --progress and --metrics =="
"$BIN" "${ARGS[@]}" --durable --progress --journal "$WORK/campaign.jsonl" \
    --metrics "$WORK/metrics.json" --csv "$WORK/with.csv" > /dev/null

echo "== metrics JSON carries every schema-v1 key =="
grep -q '"schema": "clumsy-metrics-v1"' "$WORK/metrics.json" \
    || { echo "FAIL: schema marker missing"; exit 1; }
REQUIRED_KEYS=(
  elapsed_ms
  jobs_total jobs_completed jobs_replayed jobs_retried jobs_abandoned
  jobs_failed abandoned_live abandoned_peak abandoned_cap_hits
  faults_injected tag_faults_injected parity_faults_injected
  l2_faults_injected faults_detected faults_corrected strike_retries
  recovery_failures
  outcome_masked outcome_corrected outcome_detected_recovered
  outcome_detected_fatal outcome_sdc outcome_recovery_failed
  journal_records journal_fsyncs journal_fsync_us_total journal_fsync_us_max
  engine_jobs engine_us_total fast_forward_accesses slow_path_accesses
  job_us_count job_us_total job_us_max
)
# The typed reader exits nonzero when the file lacks any requested key.
"$BIN" metrics "$WORK/metrics.json" "${REQUIRED_KEYS[@]}" > /dev/null \
    || { echo "FAIL: metrics JSON is missing a required key"; exit 1; }
# The bucket array is not an integer leaf: check its presence directly.
grep -q '"job_us_buckets":' "$WORK/metrics.json" \
    || { echo "FAIL: metrics JSON is missing \"job_us_buckets\""; exit 1; }
echo "all $((${#REQUIRED_KEYS[@]} + 1)) required keys present"

echo "== sanity: the counters saw the run =="
metric() { "$BIN" metrics "$WORK/metrics.json" "$1"; }
[ "$(metric jobs_total)" -gt 0 ] \
    || { echo "FAIL: jobs_total is zero"; exit 1; }
[ "$(metric journal_records)" -gt 0 ] \
    || { echo "FAIL: durable run journaled nothing"; exit 1; }

echo "== telemetry-off run must produce an identical CSV =="
"$BIN" "${ARGS[@]}" --csv "$WORK/without.csv" > /dev/null
cmp "$WORK/with.csv" "$WORK/without.csv"
echo "ok: CSV is bitwise identical with telemetry on and off"

if [ -n "${METRICS_OUT:-}" ]; then
    cp "$WORK/metrics.json" "$METRICS_OUT"
    echo "kept metrics JSON at $METRICS_OUT"
fi
