#!/usr/bin/env bash
# Static-analysis gate over the full-size zoo.
#
#   static_gate.sh <path/to/souffle_cli>
#
# 1. Lint: every model at every level (V5 megakernel included) has
#    no error-severity lint finding.
# 2. Verify: every model's memory plan and fence streams verify at
#    every level, through both codegen backends.
set -euo pipefail

cli=${1:?usage: static_gate.sh <souffle_cli>}

# Lint zoo models (all levels, incl. V5 megakernel)
for model in BERT ResNeXt LSTM EfficientNet SwinTransformer MMoE; do
  for level in 0 1 2 3 4 5; do
    echo "== lint zoo:$model --level=$level =="
    "$cli" lint "zoo:$model" --level="$level" --fail-on=error
  done
done

# Verify memory plans and fence streams (zoo, all levels, both backends)
for model in BERT ResNeXt LSTM EfficientNet SwinTransformer MMoE; do
  for level in 0 1 2 3 4 5; do
    for backend in cuda c; do
      echo "== verify zoo:$model --level=$level --backend=$backend =="
      "$cli" verify "zoo:$model" --level="$level" \
        --backend="$backend" --fail-on=error
    done
  done
done
