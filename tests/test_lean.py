"""No test-only code in ``src/``: every name a ``dpboost`` module exports, and every
public method, property and dataclass field of an exported class, is used by the
package itself, a demo or a benchmark, not only by the tests.

A use is a load of the name (``name`` or ``module.name``) in the Python files under
``src``, ``demos``, ``bench`` and ``benchmarks``.  A name's own definition, the
strings of an ``__all__`` and the import lines that re-export it are not loads, so
they do not count.  A member is matched by its name alone, so a load of another
object's member of the same name counts as a use too.
"""

import ast
import dataclasses
import importlib
import inspect
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


def _exports() -> dict[str, list[str]]:
    """The names each ``dpboost`` module exports, and ``Class.member`` for the public
    members of its exported classes."""
    exports = {}
    for path in sorted((REPO / "src" / "dpboost").glob("*.py")):
        module = importlib.import_module(f"dpboost.{path.stem}")
        exported = getattr(module, "__all__", None)
        if exported is None or path.stem == "__init__":
            continue
        exports[path.stem] = names = list(exported)
        for name in exported:
            cls = getattr(module, name)
            if not inspect.isclass(cls):
                continue
            members = [m for m in vars(cls) if not m.startswith("_")]
            if dataclasses.is_dataclass(cls):  # a field without a default is no attribute
                members += [f.name for f in dataclasses.fields(cls) if f.name not in members]
            names += [f"{name}.{m}" for m in members]
    return exports


def test_every_export_is_used_outside_the_tests():
    uses, exports = _uses(), _exports()
    assert len(exports) == 6  # dataset, ensemble, harness, losses, privacy, tree
    unused = {
        module: [name for name in names if not uses.get(name.rpartition(".")[2])]
        for module, names in exports.items()
    }
    assert {module: names for module, names in unused.items() if names} == {}
