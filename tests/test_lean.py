"""No test-only code in ``src/``: every name a ``dpboost`` module exports is used by
the package itself, a demo or a benchmark, not only by the tests.

A use is a load of the name (``name`` or ``module.name``) in the Python files under
``src``, ``demos``, ``bench`` and ``benchmarks``.  A name's own definition, the
strings of an ``__all__`` and the import lines that re-export it are not loads, so
they do not count.
"""

import ast
import importlib
from pathlib import Path


REPO = Path(__file__).resolve().parents[1]


def _uses() -> dict[str, int]:
    counts: dict[str, int] = {}
    for root in ("src", "demos", "bench", "benchmarks"):
        for path in sorted((REPO / root).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    counts[node.id] = counts.get(node.id, 0) + 1
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    counts[node.attr] = counts.get(node.attr, 0) + 1
    return counts


def test_every_export_is_used_outside_the_tests():
    uses, unused, checked = _uses(), {}, 0
    for path in sorted((REPO / "src" / "dpboost").glob("*.py")):
        exported = getattr(importlib.import_module(f"dpboost.{path.stem}"), "__all__", None)
        if exported is None or path.stem == "__init__":
            continue
        checked += 1
        unused[path.stem] = [name for name in exported if not uses.get(name)]
    assert checked == 6  # dataset, ensemble, harness, losses, privacy, tree
    assert {module: names for module, names in unused.items() if names} == {}
