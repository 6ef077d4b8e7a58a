"""Every command line the benchmark runs parses.

`perfbench/workloads.py` builds each workload's `cubenets` argv.  A CLI
change that refuses one of them would show in the benchmark only as a
success rate of 0; this test names the workload instead.  The workloads are
loaded by path, with `perfbench/` on `sys.path` for their `from tracing
import` line, and parsed by the CLI's own parser at seed 0; nothing runs.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from cubenets import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _workloads():
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec = importlib.util.spec_from_file_location(
            "perfbench_workloads", PERFBENCH / "workloads.py"
        )
        workloads = importlib.util.module_from_spec(spec)
        # its dataclasses look their module up by name
        sys.modules[spec.name] = workloads
        spec.loader.exec_module(workloads)
    finally:
        sys.path.remove(str(PERFBENCH))
    return [*workloads.WORKLOADS.values(), *workloads.SMALL]


CASES = [w.argv(0) for w in _workloads()]


def test_workloads_listed():
    # four workloads, each at its benchmark size and its self-check size
    assert len(CASES) == 8


@pytest.mark.parametrize("argv", CASES, ids=[" ".join(argv) for argv in CASES])
def test_workload_argv_parses(argv):
    args = cli._build_parser().parse_args(argv)
    assert args.func.__name__.startswith("_cmd_")
