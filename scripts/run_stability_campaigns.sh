#!/usr/bin/env bash
# SGD replace-one/replace-two stability campaigns, the first-order slope
# at tail-placed replacements, plus the hold-out variance trajectory.
# Artifacts are skipped when already present.
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

python3 -m cvconf stability --config scripts/configs/stability.ini
python3 -m cvconf stability --config scripts/configs/stability_tail.ini
python3 -m cvconf phi       --config scripts/configs/phi_trajectory.ini

python3 scripts/summarize.py \
    results/stability/stability_manifest.json \
    results/stability_tail/stability_manifest.json \
    results/phi_trajectory/phi_manifest.json
