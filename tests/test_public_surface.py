"""The top-level package exports what the README documents, and the README's
library example runs."""

import re
from pathlib import Path

import cubenets

README = Path(__file__).resolve().parents[1] / "README.md"


def test_exports_are_documented_and_example_runs():
    text = README.read_text(encoding="utf-8")
    undocumented = [
        name for name in cubenets.__all__ if not re.search(rf"\b{name}\b", text)
    ]
    assert undocumented == []
    (block,) = re.findall(r"```python\n(.*?)```", text, re.DOTALL)
    exec(compile(block, str(README), "exec"), {})
