#!/usr/bin/env bash
# Desk-scale coverage and set-size campaigns (300 replications each).
# Campaigns are resumable: rerunning skips completed replications.
# One full run took 86 s at commit 7fa1eff on a 2-core x86_64 host with 2
# workers; set the per-config threads key or pass --threads to cap workers.
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

python3 -m cvconf coverage --config scripts/configs/band_coverage.ini
python3 -m cvconf fwd      --config scripts/configs/fwd_pointwise.ini
python3 -m cvconf cvc-size --config scripts/configs/cvc_size.ini

python3 scripts/summarize.py \
    results/band_coverage/band_coverage_manifest.json \
    results/fwd_pointwise/fwd_pointwise_manifest.json \
    results/cvc_size/cvc_size_manifest.json
