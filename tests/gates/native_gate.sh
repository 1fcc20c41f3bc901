#!/usr/bin/env bash
# Native execution gate for the C backend, over the tiny zoo.
#
#   native_gate.sh <path/to/souffle_cli>
#
# 1. Simplifier differential: native CPU outputs are identical with
#    the algebraic simplifier on and off.
# 2. V5 sweep: every model runs at V5 through both backends, and the
#    C backend executes natively.
# 3. Native smoke: BERT runs through the C backend from a loaded
#    native module.
set -euo pipefail

cli=${1:?usage: native_gate.sh <souffle_cli>}
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work"

# Simplifier differential (zoo, default vs --no-simplify)
for model in BERT ResNeXt LSTM EfficientNet SwinTransformer MMoE; do
  echo "== simplify differential zoo-tiny:$model =="
  "$cli" run "zoo-tiny:$model" --backend=c > on.log
  "$cli" run "zoo-tiny:$model" --backend=c --no-simplify > off.log
  # Native CPU execution must be numerically identical with
  # the algebraic simplifier on and off.
  diff <(grep "^output " on.log) <(grep "^output " off.log)
done

# V5 zoo sweep (run both backends; native execution at V5)
for model in BERT ResNeXt LSTM EfficientNet SwinTransformer MMoE; do
  echo "== run zoo-tiny:$model --level=5 =="
  "$cli" run "zoo-tiny:$model" --level=5 --backend=cuda > /dev/null
  "$cli" run "zoo-tiny:$model" --level=5 --backend=c | tee v5_native.log
  grep -q "(native)" v5_native.log
done

# Native execution smoke (BERT through the C backend)
"$cli" run zoo-tiny:BERT --backend=c | tee native.log
grep -q "native module:" native.log
grep -q "(native)" native.log
echo "native gate: OK"
