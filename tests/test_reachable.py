"""The library holds only code that something runs.

Every top-level function and class in `src/cubenets`, and every method of
those classes, must be reachable by name from the roots: `cli.main`, the
names in `cubenets.__all__`, the identifiers of the README's python blocks
and the call sites `perfbench/tracing.py` wraps.  Oracles that only tests
read live in `tests/oracles.py`.

Reachability is by name, so it over-approximates: every `Name` and
`Attribute` in a reached body reaches each definition of that name.  A
reached class reaches its dunder methods and its class-body statements, a
reached method its class, and module-level statements are always reached.
So a name collision hides dead code: `args.loops` in `cli._cmd_chords`
reaches any method named `loops`, and such a definition needs a grep for
its call sites instead.
"""

import ast
import importlib.util
import re
from pathlib import Path

import cubenets

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "cubenets"
TRACING = ROOT / "perfbench" / "tracing.py"


def _trace_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return [(module, path) for sites in tracing.TARGETS.values() for module, path, _how in sites]


def _names(nodes) -> set:
    """Every Name id and Attribute attr under the given nodes."""
    out = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                out.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                out.add(sub.attr)
    return out


def _definitions(sources: dict):
    """Every definition as (module, qualname) -> (body nodes, owning class or
    None), and the statements reached with no root: the module-level ones."""
    defs, module_stmts = {}, []
    for module, text in sources.items():
        for node in ast.parse(text).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defs[module, node.name] = ([node], None)
            elif isinstance(node, ast.ClassDef):
                key = (module, node.name)
                # bases, keywords, decorators and class-body statements
                stmts = node.bases + node.keywords + node.decorator_list
                defs[key] = (stmts, None)
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        defs[module, f"{node.name}.{item.name}"] = ([item], key)
                    else:
                        stmts.append(item)
            else:
                module_stmts.append(node)
    return defs, module_stmts


def unreachable(sources: dict) -> list:
    """Sorted `module.qualname` of every definition no root reaches."""
    defs, module_stmts = _definitions(sources)
    by_name, dunders = {}, {}
    for key, (_body, cls) in defs.items():
        name = key[1].rsplit(".", 1)[-1]
        by_name.setdefault(name, []).append(key)
        if cls is not None and name.startswith("__") and name.endswith("__"):
            dunders.setdefault(cls, []).append(key)

    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", readme, re.DOTALL)
    todo = [("cli", "main")]
    todo += [(m.removeprefix("cubenets."), p) for m, p in _trace_targets()]
    seen = set()

    def reach(names):
        for name in names - seen:
            seen.add(name)
            todo.extend(by_name.get(name, ()))

    reach(_names(module_stmts) | _names(ast.parse(b) for b in blocks) | set(cubenets.__all__))
    reached = set()
    while todo:
        key = todo.pop()
        if key in reached or key not in defs:
            continue
        reached.add(key)
        body, cls = defs[key]
        reach(_names(body))
        todo.extend(dunders.get(key, ()))
        if cls is not None:
            todo.append(cls)
    return sorted(f"{m}.{q}" for m, q in defs.keys() - reached)


def _sources() -> dict:
    return {p.stem: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}


def test_every_library_definition_is_reachable():
    dead = unreachable(_sources())
    assert dead == [], "unreachable from cli.main, __all__, the README and perfbench: " + ", ".join(dead)


def test_guard_names_a_planted_helper():
    sources = _sources()
    sources["nets"] += "\n\ndef _planted_helper():\n    ...\n"
    assert unreachable(sources) == ["nets._planted_helper"]
