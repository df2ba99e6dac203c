#!/usr/bin/env bash
# Runs every example under examples/ and asserts each exits 0.
#
# The examples are executable documentation: quickstart is the
# front-door API walkthrough, hunt_defects reproduces the §5.3 defect
# families, cross_isa runs the same instruction on both simulated
# ISAs, and the rest walk one layer each. Any panic or nonzero exit
# means the documented entry points regressed even if the unit tests
# still pass. The list is the directory, so a new example is run
# without editing this script.
#
# Usage: ci/run_examples.sh [--release]
set -euo pipefail

cd "$(dirname "$0")/.."

profile=()
if [ "${1:-}" = "--release" ]; then
    profile=(--release)
fi

for path in examples/*.rs; do
    example=$(basename "$path" .rs)
    echo "=== example: $example ==="
    cargo run "${profile[@]}" --example "$example"
    echo "=== example: $example exited 0 ==="
done
echo "all examples passed"
