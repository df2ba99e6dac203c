#!/usr/bin/env bash
# Perf-smoke drift check.
#
# Compares the metrics files of Table 2 runs (`table2.metrics.json`,
# copied aside per run) and the testgen output against
# ci/perf_expectations.json. The campaign is deterministic, so any
# drift in the Table 2 totals, the work counters or the generated-test
# count means a behaviour change slipped into a perf-motivated PR —
# exactly what this check exists to catch.
#
# From the testgen output it checks the generated-test count and the
# replay split (passed / failed / skipped): replaying the suite is the
# one end-to-end run of `GeneratedTest::run` through the differential
# step the campaign uses.
#
# Per metrics file, the check enforces:
#
#   * rows — the Table 2 totals match the committed ones;
#   * meta row — the meta-compiled tier (row 5) adds no differences: a
#     compiler partially evaluated out of the interpreter agrees with
#     the interpreter by construction;
#   * work counters — solver solves/sat/nodes/pushes, code-cache
#     hits/misses, per-model heap seals, heap restores/dirty words and
#     exploration-cache hits/misses equal `work_counters` exactly. They repeat
#     to the last digit at any worker count, so a change that does more
#     (or less) work fails here on any runner; slowdowns that keep them
#     constant are `perf`'s job, not CI's;
#   * sub-stage layout — the stage buckets are exactly the expected set
#     (a silently added or dropped bucket breaks every downstream
#     consumer of the metrics);
#   * honest stage accounting — at 1 thread, the per-stage sum
#     (including the `other` bucket) lands within 10% of the wall clock;
#   * residual budget — at 1 thread, the unattributed `other` bucket
#     stays within 15% of the wall clock;
#   * explore sub-slices — `walk_run` and `probe_solve` re-attribute
#     time already inside `explore`, so their sum never exceeds it;
#   * sampled stage clock — the stage shares come from sampled checks,
#     so `stage_clock` must record some (0 < sampled_checks <= checks),
#     and the short sampled stages `setup`, `hash` and `report` must
#     still be non-zero.
#
# Usage: ci/perf_smoke_check.sh TESTGEN_OUT METRICS_JSON...
set -euo pipefail

expect="$(dirname "$0")/perf_expectations.json"
if [ "$#" -lt 2 ]; then
    echo "usage: $0 TESTGEN_OUT METRICS_JSON..." >&2
    exit 2
fi

python3 - "$expect" "$@" <<'PY'
import json
import re
import sys

expect_path, testgen_path, *runs = sys.argv[1:]
with open(expect_path) as f:
    expect = json.load(f)

with open(testgen_path) as f:
    testgen = f.read()
m = re.search(r"generated (\d+) tests", testgen)
if not m:
    sys.exit(f"perf-smoke: no 'generated N tests' line in {testgen_path}")
generated = int(m.group(1))
m = re.search(r"(\d+) passed, (\d+) failed .*?, (\d+) skipped", testgen)
if not m:
    sys.exit(f"perf-smoke: no 'N passed, N failed, N skipped' line in {testgen_path}")
replay = dict(zip(("passed", "failed", "skipped"), map(int, m.groups())))

records = []
for path in runs:
    with open(path) as f:
        records.append((path, json.load(f)))

drifted = []
if generated != expect["generated_tests"]:
    drifted.append(f"generated_tests: expected {expect['generated_tests']}, got {generated}")
if replay != expect["replay"]:
    drifted.append(f"replay: expected {expect['replay']}, got {replay}")
for path, doc in records:
    for key in ("tested_instructions", "interpreter_paths", "curated_paths", "differences"):
        if doc["table2"][key] != expect[key]:
            drifted.append(f"{key} ({path}): expected {expect[key]}, got {doc['table2'][key]}")
    meta = doc["rows"][4]
    if meta["label"] != "Meta-Compiled (tier 5)" or meta["table2"]["differences"] != 0:
        drifted.append(
            f"meta row ({path}): expected 0 differences in 'Meta-Compiled (tier 5)', "
            f"got {meta['table2']['differences']} in {meta['label']!r}"
        )
    for section, counters in expect["work_counters"].items():
        for key, value in counters.items():
            got = doc["total"][section][key]
            if got != value:
                drifted.append(f"{section}.{key} ({path}): expected {value}, got {got}")
if drifted:
    print("perf-smoke: campaign outputs drifted from ci/perf_expectations.json:")
    for line in drifted:
        print(f"  {line}")
    print("If the drift is intentional, update ci/perf_expectations.json in the same PR.")
    sys.exit(1)

SUB_SLICES = {"walk_run", "probe_solve"}
for path, doc in records:
    metrics = doc["total"]
    stages = metrics["stages_ms"]
    got = sorted(k for k in stages if k != "total")
    if got != sorted(expect["stage_layout"]):
        sys.exit(
            f"perf-smoke: stage layout drifted ({path}): "
            f"expected {sorted(expect['stage_layout'])}, got {got}"
        )
    clock = metrics["stage_clock"]
    if not 0 < clock["sampled_checks"] <= clock["checks"]:
        sys.exit(
            f"perf-smoke: the stage clock sampled no checks or too many ({path}): "
            f"{clock['sampled_checks']} sampled of {clock['checks']}"
        )
    for stage in ("setup", "hash", "report"):
        if stages[stage] <= 0:
            sys.exit(f"perf-smoke: the sampled stage `{stage}` reads zero ({path})")
    sub = stages["walk_run"] + stages["probe_solve"]
    if sub > 1.05 * stages["explore"] + 0.5:
        sys.exit(
            f"perf-smoke: explore sub-slices overflow the stage ({path}): "
            f"walk_run + probe_solve = {sub:.1f} ms vs explore {stages['explore']:.1f} ms"
        )
    if metrics["threads"] != 1:
        continue
    # At 1 thread the stage sum (with the `other` bucket, without the
    # explore sub-slices) must track the wall clock within 10%.
    total = stages.get(
        "total", sum(v for k, v in stages.items() if k != "total" and k not in SUB_SLICES)
    )
    wall = metrics["wall_clock_ms"]
    if wall > 0 and abs(total - wall) > 0.10 * wall:
        sys.exit(
            f"perf-smoke: stage accounting drifted ({path}): stages sum "
            f"{total:.1f} ms vs wall {wall:.1f} ms (>10% apart)"
        )
    if wall > 0 and stages["other"] > 0.15 * wall:
        sys.exit(
            f"perf-smoke: residual `other` bucket exceeds its budget ({path}): "
            f"{stages['other']:.1f} ms of {wall:.1f} ms wall "
            f"({100 * stages['other'] / wall:.1f}%, expected <= 15%)"
        )

print(
    f"perf-smoke: {len(records)} metrics file(s) match expectations: rows, "
    f"meta row, work counters, stage layout, stage clock and accounting; {generated} generated tests, "
    f"replayed {replay['passed']} passed / {replay['failed']} failed / {replay['skipped']} skipped"
)
PY
