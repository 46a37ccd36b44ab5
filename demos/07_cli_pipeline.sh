#!/bin/sh
# The whole pipeline through the command line: synthesize, featurize, tune,
# train, predict, evaluate. Everything is seeded, so reruns are byte-identical.
set -e
workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT
cd "$workdir"

tehier synth --shape 2,3,2 --per-node 40 --length 300 --separability 0.9 \
    --internal-fraction 0.15 --seed 17 --out train.fasta

tehier featurize train.fasta --out train.csv --seed 17

printf '{"c_values": [1, 16, 256], "gamma_values": [1, 8, 64]}' > grid.json
tehier gridsearch train.csv --grid grid.json --folds 3 --seed 17 --out grid.csv
echo "--- grid report ---"; cat grid.csv

tehier train train.csv --base svm --C 16 --gamma 8 --seed 17 --out model.json
echo "--- feature CSV and model file checksums ---"; cksum train.csv model.json

tehier synth --shape 2,3,2 --per-node 10 --length 300 --separability 0.9 \
    --internal-fraction 0.15 --seed 18 --out held_out.fasta
tehier predict held_out.fasta --model model.json --strategy lcpnb --out pred.csv

tehier evaluate pred.csv held_out.fasta --out metrics.csv
echo "--- metrics row ---"; cat metrics.csv

tehier cv train.csv --base svm --C 16 --gamma 8 --strategy lcpnb --folds 5 \
    --seed 17 --out cv.csv
tehier compare train.csv --folds 3 --C 16 --gamma 8 --seed 17 --out compare.csv
echo "--- comparison ---"; cat compare.csv
