#!/bin/sh
# Write the outputs that the determinism checks compare, each file named
# with LABEL, into DIR (default: $RUNNER_TEMP):
#   datagen-DGP-LABEL.csv           `cfsurv datagen` for the synthetic and
#                                   twins-like generators
#   KIND-LABEL.csv                  `cfsurv estimate` for each of the five kinds
#   KIND-n1600-LABEL.csv            `cfsurv estimate` for balance and dr on an
#                                   n=1600 CSV, whose large risk sets take
#                                   the hazard fits' conjugate-gradient steps
#   dr-LABEL.jsonl                  `cfsurv estimate --format jsonl`
#   truth-LABEL.csv                 `cfsurv truth`
#   sim-STUDY-LABEL.csv, raw-STUDY-LABEL.csv
#                                   `cfsurv simulate` for the synthetic and
#                                   twins-like presets
# The synthetic CSVs the estimates read, DIR/data.csv and DIR/data-n1600.csv,
# are generated on the first call and reused after, so every label reads
# the same bytes.
#
#     scripts/ci_outputs.sh first
#     OPENBLAS_NUM_THREADS=2 scripts/ci_outputs.sh two
set -eu
label=${1:?usage: scripts/ci_outputs.sh LABEL [DIR]}
dir=${2:-${RUNNER_TEMP:?set RUNNER_TEMP or pass DIR}}

if [ ! -f "$dir/data.csv" ]; then
  cfsurv datagen --dgp synthetic --n 400 --xi 0.3 --seed 3 --out "$dir/data.csv"
fi
if [ ! -f "$dir/data-n1600.csv" ]; then
  cfsurv datagen --dgp synthetic --n 1600 --xi 0.3 --seed 3 --out "$dir/data-n1600.csv"
fi
cfsurv datagen --dgp synthetic --n 400 --xi 0.3 --seed 3 \
  --out "$dir/datagen-synthetic-$label.csv"
cfsurv datagen --dgp twins-like --n 200 --seed 3 \
  --out "$dir/datagen-twins-like-$label.csv"
for kind in or ipw dr dr-clip balance; do
  cfsurv estimate --data "$dir/data.csv" --estimator "$kind" \
    --t 5,10,15,20,25 --arm diff --seed 3 --out "$dir/$kind-$label.csv"
done
cfsurv estimate --data "$dir/data.csv" --estimator dr --t 5,10,15,20,25 \
  --arm diff --seed 3 --format jsonl --out "$dir/dr-$label.jsonl"
for kind in balance dr; do
  cfsurv estimate --data "$dir/data-n1600.csv" --estimator "$kind" \
    --t 5,10,15,20,25 --arm diff --seed 3 --out "$dir/$kind-n1600-$label.csv"
done
cfsurv truth --out "$dir/truth-$label.csv"
for study in synthetic twins-like; do
  if [ "$study" = synthetic ]; then
    flags="--estimators or,ipw,dr,dr-clip,balance"
  else
    flags="--estimators or,dr,balance"
  fi
  # shellcheck disable=SC2086  # flags holds several arguments
  cfsurv simulate --dgp "$study" --q 2 --n 80 $flags \
    --out "$dir/sim-$study-$label.csv" --raw "$dir/raw-$study-$label.csv"
done
