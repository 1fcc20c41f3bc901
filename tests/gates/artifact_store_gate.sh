#!/usr/bin/env bash
# Offline compile -> online serve gate for the compiled-artifact store.
#
#   artifact_store_gate.sh <path/to/souffle_cli> [python3]
#
# 1. Stores written at jobs=1 and jobs=8 are byte-identical (V4 and
#    V5 artifacts).
# 2. Reloading every stored model runs zero candidate evaluations.
# 3. serve-sim fed from the store compiles nothing online
#    (compile_ms == 0, schedule_misses == 0).
# 4. fleet-sim fed from the store fills buckets (compile_count > 0)
#    without a single fleet-cold compile (fleet_compiles == 0).
set -euo pipefail

cli=${1:?usage: artifact_store_gate.sh <souffle_cli> [python3]}
python=${2:-python3}
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
store1="$work/store1"
store8="$work/store8"
models="BERT ResNeXt LSTM EfficientNet SwinTransformer MMoE"

for model in $models; do
    for level in 4 5; do
        "$cli" compile "zoo-tiny:$model" --level=$level --jobs=1 \
            --save="$store1" > /dev/null
        "$cli" compile "zoo-tiny:$model" --level=$level --jobs=8 \
            --save="$store8" > /dev/null
    done
done
for model in BERT EfficientNet; do   # the batchable zoo models
    "$cli" compile "zoo-tiny:$model" --batch=8 --jobs=1 --save="$store1" > /dev/null
    "$cli" compile "zoo-tiny:$model" --batch=8 --jobs=8 --save="$store8" > /dev/null
done
# The store itself is deterministic: byte-identical trees at any
# thread count (meta, program, schedules, plan, IR, src).
diff -r "$store1" "$store8"

# Online reload pays zero candidate evaluations.
for model in $models; do
    "$cli" run "zoo-tiny:$model" --load="$store1" > "$work/load.log"
    if ! grep -q "(0 candidate evaluations)" "$work/load.log"; then
        cat "$work/load.log"
        echo "FAIL: reload of zoo-tiny:$model evaluated candidates" >&2
        exit 1
    fi
done

# A serving process fed from the store never compiles online.
"$cli" serve-sim zoo-tiny:BERT --load="$store1" --rate=2000 \
    --duration-ms=100 --buckets=1,8 --format=json \
    | "$python" -c '
import json, sys
report = json.load(sys.stdin)
cache = report["compile_cache"]
assert report["completed"] > 0, report
assert cache["compile_ms"] == 0, cache
assert cache["schedule_misses"] == 0, cache
print("serve-sim from artifacts:", cache)
'

# Fleet-wide: artifact loads count as warm, not fleet-cold.
"$cli" fleet-sim zoo-tiny:BERT,MMoE --load="$store1" \
    --devices=a100 --rate=2000 --duration-ms=100 --buckets=1 \
    --format=json | "$python" -c '
import json, sys
report = json.load(sys.stdin)
assert report["completed"] > 0, report
# Buckets fill (compile_count) but every fill is an artifact load, so
# no fleet-cold compile runs the schedule search.
assert report["compile_count"] > 0, report
assert report["fleet_compiles"] == 0, report
print("fleet-sim from artifacts: fills =", report["compile_count"],
      "fleet_compiles =", report["fleet_compiles"])
'
echo "artifact store gate: OK"
