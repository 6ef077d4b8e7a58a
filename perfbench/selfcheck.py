"""Quick check of the benchmark harness itself, at tiny sizes (about 15 s).

    python3 perfbench/selfcheck.py

For each workload in workloads.SMALL (trees n=3, table to n=4, verify n=4
with 50 samples, realize n=6): one untraced and two traced calls must pass
the pinned-answer check; every span the workload names must fire; every
target must be found; the self times of all spans must account for the
traced wall time; and every count must repeat exactly between the two
traced calls.  BENCHMARK.json must list the same workloads, metrics and
units as the code.  A trace target that does not exist must be reported in a note
and leave its metrics out, without an error.  Then a short run of the trees
workload against a deliberately wrong pinned hash must count every call as
failed.  Exits 0 when all of this holds, 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import time

import run
import tracing
from workloads import PER_LAYER_UNITS, SMALL, WORKLOADS, layer_metrics, trees

ACCOUNTED_TOLERANCE = 0.01


def check_workload(workload, deadline: float) -> list[str]:
    problems = []
    plain = run.one_call(workload, "plain", 1, deadline)
    first = run.one_call(workload, "trace", 2, deadline)
    second = run.one_call(workload, "trace", 3, deadline)
    for call in (plain, first, second):
        problems += [f"{call.mode} call: {p}" for p in call.problems]
        problems += [f"{call.mode} call: {note}" for note in call.notes]
    if problems:
        return problems
    for span in workload.spans:
        if first.spans.get(span, {}).get("calls", 0) == 0:
            problems.append(f"span {span} never fired")
    share = first.accounted_s / first.wall_s
    if abs(share - 1) > ACCOUNTED_TOLERANCE:
        problems.append(f"self times cover {share:.4f} of the traced wall time")
    for metric, unit in PER_LAYER_UNITS.items():
        if unit == "count" and first.layers.get(metric) != second.layers.get(metric):
            problems.append(
                f"{metric} differs between calls: "
                f"{first.layers.get(metric)} vs {second.layers.get(metric)}"
            )
    return problems


def check_benchmark_json() -> list[str]:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []
    if {w["name"]: w["why"] for w in spec["workloads"]} != {w.name: w.why for w in WORKLOADS.values()}:
        problems.append("workloads differ from workloads.WORKLOADS")
    if {m["name"]: m["unit"] for m in spec["end_to_end"]} != run.END_TO_END_UNITS:
        problems.append("end_to_end differs from run.END_TO_END_UNITS")
    if {m["name"]: m["unit"] for m in spec["per_layer"]} != PER_LAYER_UNITS:
        problems.append("per_layer differs from workloads.PER_LAYER_UNITS")
    return problems


def check_missing_target() -> list[str]:
    sys.path.insert(0, str(run.ROOT / "src"))
    gone = {"core.renamed": (("cubenets.core", "no_such_function", "call"),)}
    installed, notes = tracing.install(tracing.Tracer(), gone)
    problems = []
    if installed or not notes:
        problems.append(f"missing target not reported: installed {installed}, notes {notes}")
    if "core.orbit_s" in layer_metrics({}, installed, {}):
        problems.append("a metric of an uninstalled span was reported")
    return problems


def main() -> int:
    run.OUT.mkdir(exist_ok=True)
    deadline = time.monotonic() + run.CALL_DEADLINE_S
    failures = 0
    for workload in SMALL:
        problems = check_workload(workload, deadline)
        print(f"{workload.name:<8} {'ok' if not problems else 'FAILED'}  ({workload.why})")
        for p in problems:
            print(f"  - {p}")
        failures += bool(problems)

    for label, check in (
        ("BENCHMARK.json matches the code", check_benchmark_json),
        ("missing trace target noted", check_missing_target),
    ):
        problems = check()
        print(f"{label}: {'ok' if not problems else 'FAILED'}")
        for p in problems:
            print(f"  - {p}")
        failures += bool(problems)

    small_trees = SMALL[0]
    wrong = dataclasses.replace(small_trees, check=trees(3, 11, "0" * 64).check)
    result = run.run(wrong, seed=1, seconds=1, trace=False)
    caught = not result["correct"] and result["failed"] == result["attempted"] >= 1
    print(f"wrong pin {'counted as failure' if caught else 'NOT caught'}: {result['failed']}/{result['attempted']} failed")
    failures += not caught
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
