#!/usr/bin/env bash
# Mutation-smoke drift check.
#
# Compares the record a mutation_campaign run writes
# (mutation.metrics.json) against ci/mutation_expectations.json. The
# pinned set is eight mutants spanning all five injected JIT layers:
# seven the harness demonstrably kills plus one designed-equivalent
# survivor. Three regressions fail the check:
#
#   * a kill/survive flip — a pinned killable mutant surviving means
#     the harness lost bug-finding power (a new blind spot); a pinned
#     survivor being "killed" means nondeterminism or an unsound
#     comparison crept into the driver;
#   * a planted-defect regression — the record's disarmed-baseline
#     Table 2 totals drifting from the expected rows means real
#     defects were gained/lost while every mutant was disarmed;
#   * a kill-rate regression — on a full-catalog record
#     (`mutants_run == mutation_full_catalog`, 44), the kill count must
#     stay at or above `mutation_kill_floor` (35/44). CI's pinned smoke
#     set runs 8 mutants, so the gate notes a skip there and bites on
#     full-matrix records.
#
# Usage: ci/mutation_smoke_check.sh [mutation.metrics.json]
set -euo pipefail

record="${1:-mutation.metrics.json}"
expect="$(dirname "$0")/mutation_expectations.json"

for f in "$record" "$expect"; do
    if [ ! -f "$f" ]; then
        echo "mutation-smoke: missing $f" >&2
        exit 1
    fi
done

python3 - "$record" "$expect" <<'PY'
import json
import sys

record_path, expect_path = sys.argv[1:3]
with open(expect_path) as f:
    expect = json.load(f)
with open(record_path) as f:
    rec = json.load(f)

failures = []

# Planted-defect regression: the disarmed baseline must still produce
# exactly the pinned Table 2 totals.
for key, want in expect["baseline"].items():
    got = rec.get("baseline", {}).get(key)
    if got != want:
        failures.append(f"baseline {key}: expected {want}, got {got}")

# Kill/survive flips on the pinned mutant set.
verdicts = {m["id"]: m for m in rec.get("mutants", [])}
for pin in expect["mutants"]:
    got = verdicts.get(pin["id"])
    if got is None:
        failures.append(f"mutant {pin['id']} ({pin['name']}): not in the record")
    elif got["killed"] != pin["killed"]:
        want = "killed" if pin["killed"] else "survival (designed equivalent)"
        have = "killed" if got["killed"] else "SURVIVED — new blind spot"
        failures.append(f"mutant {pin['id']} ({pin['name']}): expected {want}, got {have}")

# Kill-rate floor over the full catalog.
killed = sum(1 for m in rec["mutants"] if m["killed"])
full_catalog = expect["mutation_full_catalog"]
if rec["mutants_run"] == full_catalog:
    if killed < expect["mutation_kill_floor"]:
        failures.append(
            f"mutation kill rate regressed: {killed}/{full_catalog} killed, "
            f"expected >= {expect['mutation_kill_floor']}"
        )
else:
    print(
        f"mutation-smoke: {rec['mutants_run']} of {full_catalog} mutants run — "
        "kill-rate floor skipped"
    )

if failures:
    print("mutation-smoke: outputs drifted from ci/mutation_expectations.json:")
    for line in failures:
        print(f"  {line}")
    print("If the drift is intentional, update ci/mutation_expectations.json in the same PR.")
    sys.exit(1)

print(
    "mutation-smoke: all pinned verdicts match "
    f"({killed}/{rec['mutants_run']} killed, "
    f"baseline {rec['baseline']['differences']} differences, "
    f"wall {rec['wall_clock_ms']:.0f} ms)"
)
PY
