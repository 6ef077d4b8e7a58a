"""Every call site the benchmark traces exists in the package.

`perfbench/tracing.py` wraps functions by module and attribute name.  A
target that a refactor renames or deletes is only reported as a note there,
and the benchmark's self-check then fails every workload; this test names
the missing site instead.  The tracer is loaded by path and never installed,
so nothing in the package is wrapped.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.TARGETS


SITES = [
    (span, module, path)
    for span, sites in _targets().items()
    for module, path, _how in sites
]


def test_targets_listed():
    assert SITES


@pytest.mark.parametrize(
    "span,module,path", SITES, ids=[f"{span}:{path}" for span, _, path in SITES]
)
def test_trace_target_resolves(span, module, path):
    owner = importlib.import_module(module)
    for part in path.split("."):
        owner = getattr(owner, part, None)
    assert callable(owner), f"{span}: {module}.{path} not found"
