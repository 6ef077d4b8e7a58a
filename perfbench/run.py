"""Benchmark runner for the cubenets CLI.

    python3 perfbench/run.py --workload trees --seed 1 --seconds 25 --trace 0

Runs one workload from workloads.py for about ``--seconds`` seconds (at
least three calls), one fresh interpreter (perfbench/child.py) at a time,
each calling ``cubenets.cli.main`` once with ``--jobs 1`` where the
subcommand takes it.
Every call's output is checked against the workload's pinned answer; a call
that exits non-zero, raises, or gives a different answer counts as failed
and is left out of the timings.

With ``--trace 0`` the result holds the end-to-end metrics, each the median
over the run's successful calls:

- ``wall_s``: duration of the ``cli.main`` call;
- ``peak_rss_mb``: the call's own peak RSS, from its rusage as reaped by
  this runner (which stays far smaller than any call, so the value inherited
  through fork/exec never shows);
- ``setup_s``: from spawning the interpreter until ``cubenets.cli`` is
  imported (extra import-only calls top the samples up to nine);
- ``success_rate``: calls that passed the check over calls attempted.

With ``--trace 1`` traced and untraced calls alternate, and the result holds
the per-layer metrics of workloads.PER_LAYER_UNITS, each the median over the
traced calls.  Before the calls, one import-only call compiles bytecode and is
discarded.  Call outputs, a full record of the run and the last traced call's
raw spans go to ``.perfbench_out/``.  The last line of standard output is the
result as one JSON object.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

from workloads import PER_LAYER_UNITS, WORKLOADS, Workload, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

MIN_CALLS = 3
MIN_SETUPS = 9
CALL_DEADLINE_S = 170.0  # from the start of the run; a run must end within 180 s

END_TO_END_UNITS = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s", "success_rate": "ratio"}


@dataclass
class Call:
    mode: str
    argv: list[str]
    ok: bool = False
    problems: list[str] = field(default_factory=list)
    setup_s: float | None = None
    wall_s: float | None = None
    rss_mb: float | None = None
    layers: dict[str, float] = field(default_factory=dict)
    spans: dict[str, dict] = field(default_factory=dict)
    accounted_s: float | None = None
    notes: list[str] = field(default_factory=list)


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("CUBENETS_JOBS", None)
    env["PYTHONHASHSEED"] = "0"
    return env


def _reap(proc: subprocess.Popen, deadline: float):
    """Wait for proc, killing it past deadline; return (exit code, rusage)."""
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            os.kill(proc.pid, signal.SIGKILL)  # not proc.kill(): that may reap it
            _, status, usage = os.wait4(proc.pid, 0)
            break
        time.sleep(0.01)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


def _spawn(tag: str, mode: str, cli_argv: list[str], deadline: float, spans: str = "-"):
    """Start one child, wait for it; return (exit code, rusage, result doc,
    spawn time, path of the CLI output, path of the child's stderr)."""
    result = OUT / f"{tag}.result.json"
    output = OUT / f"{tag}.out"
    errors = OUT / f"{tag}.stderr"
    for stale in (result, output):
        stale.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "child.py"), str(result), mode, spans]
    if mode != "probe":
        cmd += [*cli_argv, "--output", str(output)]
    with open(errors, "wb") as err:
        spawned = time.monotonic()
        proc = subprocess.Popen(
            cmd, cwd=ROOT, env=_env(), stdin=subprocess.DEVNULL, stdout=err, stderr=err
        )
        code, usage = _reap(proc, deadline)
    doc = json.loads(result.read_text()) if result.exists() else None
    return code, usage, doc, spawned, output, errors


def one_call(workload: Workload, mode: str, seed: int, deadline: float) -> Call:
    """Run the workload once in a fresh interpreter and check its output."""
    call = Call(mode, workload.argv(seed))
    code, usage, doc, spawned, output, errors = _spawn(
        f"{workload.name}-call", mode, call.argv, deadline, str(OUT / f"{workload.name}-spans.json")
    )
    if code != 0 or doc is None:
        call.problems.append(f"child exited with {code}")
    elif "error" in doc:
        call.problems.append(doc["error"].strip().splitlines()[-1])
    elif doc["rc"] != 0:
        call.problems.append(f"cli.main returned {doc['rc']}")
    else:
        try:
            problems, facts = workload.check(output.read_bytes())
        except (OSError, ValueError, KeyError, TypeError) as exc:
            problems, facts = [f"output unreadable: {exc!r}"], {}
        call.problems.extend(problems)
        if mode == "trace":
            call.spans = doc["spans"]
            call.layers = layer_metrics(call.spans, set(doc["installed"]), facts)
            call.accounted_s = sum(row["self_s"] for row in call.spans.values())
            call.notes = doc["notes"]
    if doc is not None:
        call.setup_s = doc["imported"] - spawned
        call.wall_s = doc.get("wall_s")
    call.rss_mb = usage.ru_maxrss / 1024.0
    call.ok = not call.problems
    if call.ok:
        errors.unlink(missing_ok=True)
    else:
        tail = errors.read_text(errors="replace").strip().splitlines()[-5:]
        print(f"{workload.name} call (seed {seed}) failed: {call.problems}", file=sys.stderr)
        for line in tail:
            print(f"  | {line}", file=sys.stderr)
    return call


def _probe(workload: Workload, deadline: float) -> float | None:
    code, _, doc, spawned, _, errors = _spawn(f"{workload.name}-probe", "probe", [], deadline)
    if code != 0 or doc is None:
        return None
    errors.unlink(missing_ok=True)
    return doc["imported"] - spawned


def _stats(values: list[float]) -> dict:
    if not values:
        return {"median": 0.0, "q1": 0.0, "q3": 0.0, "n": 0}
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def run(workload: Workload, seed: int, seconds: int, trace: bool) -> dict:
    OUT.mkdir(exist_ok=True)
    deadline = time.monotonic() + CALL_DEADLINE_S
    _probe(workload, deadline)  # warm-up: compiles bytecode, discarded

    rng = random.Random(seed)
    calls: list[Call] = []
    t0 = time.monotonic()
    longest = 0.0
    while time.monotonic() < deadline:
        now = time.monotonic()
        # past the minimum, start a call only if it should end within --seconds
        if len(calls) >= MIN_CALLS and now - t0 + longest > seconds:
            break
        mode = "trace" if trace and len(calls) % 2 else "plain"
        calls.append(one_call(workload, mode, rng.randrange(1 << 31), deadline))
        longest = max(longest, time.monotonic() - now)
    measured_s = time.monotonic() - t0

    good = [c for c in calls if c.ok]
    plain = [c for c in good if c.mode == "plain"]
    traced = [c for c in good if c.mode == "trace"]
    stats: dict[str, dict] = {}
    if not trace:
        setups = [c.setup_s for c in plain]
        while len(setups) < MIN_SETUPS and time.monotonic() < deadline:
            probe = _probe(workload, deadline)
            if probe is None:
                break
            setups.append(probe)
        stats["wall_s"] = _stats([c.wall_s for c in plain])
        stats["peak_rss_mb"] = _stats([c.rss_mb for c in plain])
        stats["setup_s"] = _stats(setups)
        stats["success_rate"] = {"median": len(good) / len(calls), "n": len(calls)}
        units = END_TO_END_UNITS
    else:
        for metric in PER_LAYER_UNITS:
            values = [c.layers[metric] for c in traced if metric in c.layers]
            if values:
                stats[metric] = _stats(values)
        plain_wall = _stats([c.wall_s for c in plain])["median"]
        traced_wall = _stats([c.wall_s for c in traced])["median"]
        if plain_wall and traced_wall:
            stats["trace.overhead_frac"] = {"median": traced_wall / plain_wall - 1, "n": len(traced)}
        stats["trace.accounted_frac"] = _stats([c.accounted_s / c.wall_s for c in traced])
        units = PER_LAYER_UNITS
    notes = sorted({note for c in calls for note in c.notes})
    for note in notes:
        print(f"trace note: {note}", file=sys.stderr)

    record = {
        "workload": workload.name,
        "why": workload.why,
        "seed": seed,
        "seconds": seconds,
        "measured_s": measured_s,
        "trace": int(trace),
        "commit": _commit(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "nproc": os.cpu_count(),
        "runner_peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "stats": stats,
        "notes": notes,
        "calls": [asdict(c) for c in calls],
    }
    path = OUT / f"{workload.name}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=1))
    _print_summary(record, units, path)
    return {
        "correct": len(good) == len(calls),
        "attempted": len(calls),
        "failed": len(calls) - len(good),
        "metrics": {
            name: {"value": row["median"], "unit": units[name]}
            for name, row in stats.items()
        },
    }


def _print_summary(record: dict, units: dict, path: Path) -> None:
    calls = record["calls"]
    failed = sum(1 for c in calls if not c["ok"])
    print(
        f"perfbench {record['workload']}: seed {record['seed']}, {len(calls)} calls "
        f"({failed} failed) in {record['measured_s']:.1f} s; python {record['python']}, "
        f"numpy {record['numpy']}, {record['nproc']} CPUs, commit {record['commit']}"
    )
    for name, row in record["stats"].items():
        spread = f"q1 {row['q1']:.6g}  q3 {row['q3']:.6g}  " if "q1" in row else ""
        print(f"  {name:<32} {row['median']:>12.6g} {units[name]:<6} {spread}n={row['n']}")
    print(f"  record: {path.relative_to(ROOT)}")


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
    )
    return done.stdout.strip() or None


def _version(package: str) -> str | None:
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "cubenets" / "cli.py").is_file():
        print(f"no cubenets sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
