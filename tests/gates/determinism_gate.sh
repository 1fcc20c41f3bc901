#!/usr/bin/env bash
# Thread-count determinism gate over the tiny zoo.
#
#   determinism_gate.sh <path/to/souffle_cli>
#
# 1. Byte-identical artifacts across thread counts: every model at
#    V0..V5 compiles to the same program hash and CUDA text at jobs=1
#    and jobs=8.
# 2. V5 megakernel determinism: module text on both backends, and the
#    V5 fleet report JSON, are byte-identical at jobs=1 and jobs=8.
set -euo pipefail

cli=${1:?usage: determinism_gate.sh <souffle_cli>}
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work"

# Byte-identical artifacts across thread counts (jobs=1 vs jobs=8)
for model in BERT ResNeXt LSTM EfficientNet SwinTransformer MMoE; do
  for level in 0 1 2 3 4 5; do
    "$cli" compile "zoo-tiny:$model" --level="$level" --jobs=1 \
      --emit-cuda=serial.cu > serial.log
    "$cli" compile "zoo-tiny:$model" --level="$level" --jobs=8 \
      --emit-cuda=parallel.cu > parallel.log
    diff <(grep "program hash:" serial.log) \
         <(grep "program hash:" parallel.log)
    diff serial.cu parallel.cu
    echo "zoo-tiny:$model V$level byte-identical at jobs=1/8"
  done
done

# V5 megakernel determinism gate (jobs=1 vs jobs=8)
# Module text: byte-identical V5 compiles at any thread count,
# both backends.
for model in BERT ResNeXt LSTM EfficientNet SwinTransformer MMoE; do
  for backend in cuda c; do
    rm -rf v5-serial v5-parallel
    "$cli" compile "zoo-tiny:$model" --level=5 --backend="$backend" \
      --jobs=1 --emit-dir=v5-serial > serial.log
    "$cli" compile "zoo-tiny:$model" --level=5 --backend="$backend" \
      --jobs=8 --emit-dir=v5-parallel > parallel.log
    diff <(grep "program hash:" serial.log) \
         <(grep "program hash:" parallel.log)
    diff -r v5-serial v5-parallel
    echo "zoo-tiny:$model V5 $backend byte-identical at jobs=1/8"
  done
done
# FleetReport JSON: byte-identical V5 fleet simulation.
flags="zoo-tiny:BERT,MMoE --level=5 --rate=4000 --duration-ms=60
       --burst-mult=3 --burst-prob=0.4 --format=json"
# shellcheck disable=SC2086
"$cli" fleet-sim $flags --jobs=1 > fleet_v5_a.json
# shellcheck disable=SC2086
"$cli" fleet-sim $flags --jobs=8 > fleet_v5_b.json
diff fleet_v5_a.json fleet_v5_b.json
echo "V5 fleet report byte-identical at jobs=1/8"
