#!/usr/bin/env bash
# Serving and fleet simulator gate.
#
#   serving_gate.sh <path/to/souffle_cli> [python3]
#
# 1. Serving-simulator smoke: serve-sim on BERT at two arrival rates
#    completes requests at a positive throughput.
# 2. Fleet-simulator smoke: fleet-sim under two router policies and a
#    bursty trace completes requests, meets some SLOs and compiles.
# 3. Fleet-report determinism: with a fixed seed the fleet report is
#    byte-identical across repeated runs, jobs=1 vs jobs=8, and a
#    replay of the saved trace.
set -euo pipefail

cli=${1:?usage: serving_gate.sh <souffle_cli> [python3]}
python=${2:-python3}
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work"

# Serving-simulator smoke (BERT, two arrival rates)
for rate in 500 5000; do
  echo "== serve-sim zoo:BERT --rate=$rate =="
  "$cli" serve-sim zoo:BERT --rate="$rate" \
    --duration-ms=100 --buckets=1,8 --format=json \
    | "$python" -c '
import json, sys
report = json.load(sys.stdin)
assert report["throughput_rps"] > 0, report
assert report["completed"] > 0, report
print("throughput_rps =", report["throughput_rps"])
'
done

# Fleet-simulator smoke (two policies, bursty trace)
for policy in round-robin cache-affinity; do
  echo "== fleet-sim --policy=$policy =="
  "$cli" fleet-sim zoo:BERT,EfficientNet --policy="$policy" \
    --rate=3000 --duration-ms=100 \
    --burst-mult=3 --burst-prob=0.4 --format=json \
    | "$python" -c '
import json, sys
report = json.load(sys.stdin)
assert report["completed"] > 0, report
assert report["slo_attainment"] > 0, report
assert report["compile_count"] > 0, report
assert len(report["replicas"]) >= 2, report
print(report["policy"], "rps =", report["throughput_rps"],
      "attainment =", report["slo_attainment"])
'
done

# Fleet-report determinism (fixed seed; runs, jobs=1/8, trace replay)
flags="zoo-tiny:BERT,MMoE --rate=4000 --duration-ms=60
       --burst-mult=3 --burst-prob=0.4 --mtbf-ms=40 --mttr-ms=10
       --autoscale --format=json"
# shellcheck disable=SC2086
"$cli" fleet-sim $flags --jobs=1 --trace-out=fleet_trace.json > fleet_a.json
# shellcheck disable=SC2086
"$cli" fleet-sim $flags --jobs=1 > fleet_b.json
# shellcheck disable=SC2086
"$cli" fleet-sim $flags --jobs=8 > fleet_c.json
# shellcheck disable=SC2086
"$cli" fleet-sim $flags --jobs=1 --trace-in=fleet_trace.json > fleet_d.json
diff fleet_a.json fleet_b.json   # repeated run
diff fleet_a.json fleet_c.json   # jobs=1 vs jobs=8
diff fleet_a.json fleet_d.json   # generated vs replayed trace
echo "fleet report byte-identical across runs, thread counts and trace replay"
