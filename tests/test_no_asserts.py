"""No output rests on an assert, because python -O strips asserts."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cubenets

SRC = Path(cubenets.__file__).resolve().parent


def test_no_assert_statements_in_package():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert not found, f"assert statements in src/cubenets: {', '.join(found)}"


def test_tree_counts_under_python_O():
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    for dim, count in (("3", 11), ("4", 261)):
        run = subprocess.run(
            [sys.executable, "-O", "-m", "cubenets.cli", "enumerate",
             "--dim", dim, "--kind", "trees", "--count-only"],
            capture_output=True, text=True, env=env, check=True,
        )
        assert run.stdout == f'{{"n": {dim}, "kind": "trees", "count": {count}}}\n'


# A fault injected into the 4-cube's (4, 3, 3) board, as the slide word
# and middle range that a wrong split into towers, singletons and middles
# gives, with the exit code and stderr of `partitions --dim 4 --realize`
REFUSALS = {
    # towers 1 and 4, singleton 3, two middles on 1
    "direction out of range": (
        "[1, 4, 1, 3, 1, 1, 4], range(2, 5)", 2,
        "direction 4 out of range\n",
    ),
    # towers 2 and 3, three middles on 1
    "phase": (
        "[2, 3, 1, 1, 1, 2, 3], range(2, 5)", 1,
        "phase discipline broken at slide 2: transfer must be occupied\n",
    ),
}

INJECT = """
import sys
from cubenets import cli, partitions
real = partitions._schedules
word, middle = ({schedule})

def schedules(rows):
    words, start, stop = real(rows)
    b = rows.tolist().index([4, 3, 3])
    words[b], start[b], stop[b] = word, middle.start, middle.stop
    return words, start, stop

partitions._schedules = schedules
sys.exit(cli.main(["partitions", "--dim", "4", "--realize"]))
"""


@pytest.mark.parametrize("fault", sorted(REFUSALS))
def test_realize_refusals_under_python_O(fault):
    schedule, code, err = REFUSALS[fault]
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    for flags in ([], ["-O"]):
        run = subprocess.run(
            [sys.executable, *flags, "-c", INJECT.format(schedule=schedule)],
            capture_output=True, text=True, env=env,
        )
        assert (run.returncode, run.stdout, run.stderr) == (code, "", err)


REFUSE = """
from cubenets.partitions import realization_block
try:
    realization_block([(6, 2, 2), (6, 3, 1)])
except ValueError as e:
    print(e)
"""


def test_realization_block_refuses_a_row_under_python_O():
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    for flags in ([], ["-O"]):
        run = subprocess.run(
            [sys.executable, *flags, "-c", REFUSE],
            capture_output=True, text=True, env=env, check=True,
        )
        assert run.stdout == (
            "(6, 3, 1) is not a descending partition of 3n-2 = 10 into parts of at least 2\n"
        )
