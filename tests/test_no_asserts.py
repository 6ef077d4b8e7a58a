"""No output rests on an assert, because python -O strips asserts."""

import ast
import os
import subprocess
import sys
from pathlib import Path

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
