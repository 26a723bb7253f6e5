#!/usr/bin/env bash
# One-shot demonstration on a single generated dataset: export the data,
# then compute the simultaneous band and the difference-screened set on
# that same dataset as JSON.
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

python3 -m cvconf gen  --config scripts/configs/band_coverage.ini --out results/quickstart
python3 -m cvconf band --config scripts/configs/band_coverage.ini --out results/quickstart
python3 -m cvconf cvc  --config scripts/configs/band_coverage.ini --out results/quickstart

echo "wrote results/quickstart/{dataset_n500.csv,band.json,cvc.json}"
