#!/usr/bin/env bash
# Corpus smoke: warm replay must be invisible in every output, and a
# fully warm run must do none of the sweep's work.
#
# Runs the Table 2 harness three times in a scratch directory:
#
#   1. baseline   — no corpus, sequential (the reference rows);
#   2. cold       — fresh corpus file attached (records + saves);
#   3. warm       — same corpus file (replays the saved outcomes);
#
# and then asserts, via the `table2.metrics.json` each run writes:
#
#   * row identity — all three runs print byte-identical Table 2 rows
#     (a corpus may only ever change the wall clock);
#   * full warm coverage — the warm run serves every instruction from
#     the corpus (hits == tested instructions, misses == 0) while the
#     cold run serves none;
#   * unchanged re-save — the fully warm run leaves the corpus file
#     byte-identical to what the cold run saved;
#   * no work — the warm run solves nothing, looks nothing up in the
#     code or exploration cache, and charges nothing to the explore,
#     materialize, compile, simulate and hash stages. These are exact
#     counts, so the check holds on any runner; how fast the corpus
#     codec is stays `perf`'s job (its `sweep_warm` workload);
#   * totals — every run matches the committed Table 2 expectations.
#
# It also prints the warm run's end-to-end speedup over the cold one
# (the rows' wall clock plus the corpus load and save times table2
# records), for information only.
#
# Usage: ci/corpus_smoke_check.sh [--release]
set -euo pipefail

ci_dir="$(cd "$(dirname "$0")" && pwd)"
expect="$ci_dir/perf_expectations.json"

profile=()
build_dir=debug
if [ "${1:-}" = "--release" ]; then
    profile=(--release)
    build_dir=release
fi
cargo build --quiet "${profile[@]}" --manifest-path "$ci_dir/../Cargo.toml" \
    -p igjit-bench --bin table2
table2=("${CARGO_TARGET_DIR:-$ci_dir/../target}/$build_dir/table2")

scratch="$(mktemp -d "${TMPDIR:-/tmp}/igjit-corpus-smoke.XXXXXX")"
trap 'rm -rf "$scratch"' EXIT

# The harness writes table2.metrics.json in its cwd, so each run goes
# in the scratch dir and its metrics file is copied aside as
# NAME.metrics.json next to its stdout NAME.out.
run_table2() {
    local name="$1"
    shift
    (cd "$scratch" && "$@" > "$name.out" && mv table2.metrics.json "$name.metrics.json")
}

echo "=== corpus-smoke: baseline (no corpus) ==="
IGJIT_THREADS=1 run_table2 baseline "${table2[@]}"
echo "=== corpus-smoke: cold run (fresh corpus) ==="
IGJIT_THREADS=1 IGJIT_CORPUS="$scratch/smoke.corpus" run_table2 cold "${table2[@]}"
cp "$scratch/smoke.corpus" "$scratch/cold.corpus"
echo "=== corpus-smoke: warm run (saved corpus) ==="
IGJIT_THREADS=1 IGJIT_CORPUS="$scratch/smoke.corpus" run_table2 warm "${table2[@]}"
if ! cmp "$scratch/cold.corpus" "$scratch/smoke.corpus"; then
    echo "corpus-smoke: a fully warm run rewrote the corpus file" >&2
    exit 1
fi
echo "corpus-smoke: the warm run left the corpus file byte-identical"

# Row identity across all three runs, on the printed table itself.
rows() {
    grep -E "Native Methods|BC Compiler|Meta-Compiled|meta tier coverage|^Total" "$scratch/$1"
}
rows baseline.out > "$scratch/baseline.rows"
for other in cold warm; do
    rows "$other.out" > "$scratch/$other.rows"
    if ! diff -u "$scratch/baseline.rows" "$scratch/$other.rows"; then
        echo "corpus-smoke: $other run printed different Table 2 rows" >&2
        exit 1
    fi
done
echo "corpus-smoke: all three runs print identical Table 2 rows"

python3 - "$scratch" "$expect" <<'PY'
import json
import os
import sys

scratch, expect_path = sys.argv[1:3]
with open(expect_path) as f:
    expect = json.load(f)
baseline, cold, warm = (
    json.load(open(os.path.join(scratch, f"{name}.metrics.json")))
    for name in ("baseline", "cold", "warm")
)

for label, rec in (("baseline", baseline), ("cold", cold), ("warm", warm)):
    for key in ("tested_instructions", "interpreter_paths",
                "curated_paths", "differences"):
        if rec["table2"][key] != expect[key]:
            sys.exit(
                f"corpus-smoke: {label} run drifted: {key} expected "
                f"{expect[key]}, got {rec['table2'][key]}"
            )

instructions = expect["tested_instructions"]
cold_corpus = cold["total"]["corpus"]
warm_corpus = warm["total"]["corpus"]
if cold_corpus["hits"] != 0 or cold_corpus["misses"] != instructions:
    sys.exit(f"corpus-smoke: cold run should miss everything: {cold_corpus}")
if warm_corpus["hits"] != instructions or warm_corpus["misses"] != 0:
    sys.exit(f"corpus-smoke: warm run should replay everything: {warm_corpus}")

total = warm["total"]
work = {
    "solver.solves": total["solver"]["solves"],
    "compile_cache lookups": total["compile_cache"]["hits"] + total["compile_cache"]["misses"],
    "exploration cache lookups": total["cache"]["hits"] + total["cache"]["misses"],
}
for stage in ("explore", "materialize", "compile", "simulate", "hash"):
    work[f"stages_ms.{stage}"] = total["stages_ms"][stage]
done = {name: value for name, value in work.items() if value != 0}
if done:
    sys.exit(f"corpus-smoke: the fully warm run did sweep work: {done}")
print("corpus-smoke: the warm run solved, looked up, explored, compiled and simulated nothing")


def end_to_end(rec):
    """Rows plus the corpus I/O around them: what a re-check waits for."""
    return (rec["total"]["wall_clock_ms"] + rec["corpus_load_ms"]
            + rec["corpus_save_ms"])


cold_ms = end_to_end(cold)
warm_ms = end_to_end(warm)
speedup = cold_ms / warm_ms if warm_ms > 0 else float("inf")
print(
    f"corpus-smoke: (information) warm re-check {speedup:.1f}x faster end to end "
    f"({cold_ms:.1f} ms cold vs {warm_ms:.1f} ms warm: rows "
    f"{warm['total']['wall_clock_ms']:.1f} + load {warm['corpus_load_ms']:.1f} "
    f"+ save {warm['corpus_save_ms']:.1f} ms), "
    f"{warm_corpus['hits']}/{instructions} instructions corpus-served"
)
PY
