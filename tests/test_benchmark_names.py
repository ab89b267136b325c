"""Every name the benchmark relies on still exists.

The benchmark reads `<module>.<function>.{calls,s}` from spans recorded
around the public functions of each ``rbmpo`` module; a metric whose
function was renamed or made private has nothing behind it.  Its fit
checker (``bench/check.py``) imports ``rbmpo`` names directly, and a
removed one would break every benchmark run.
"""

import ast
import importlib
import inspect
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TRACED = sorted({
    name.rsplit(".", 1)[0]
    for name in (m["name"] for m in SPEC["per_layer"])
    if name.count(".") == 2 and name.rsplit(".", 1)[1] in ("calls", "s")
})


def test_per_layer_metrics_name_functions():
    assert len(TRACED) > 10


@pytest.mark.parametrize("name", TRACED)
def test_traced_function_is_public(name):
    module, function = name.split(".")
    mod = importlib.import_module(f"rbmpo.{module}")
    obj = getattr(mod, function, None)
    assert not function.startswith("_")
    assert inspect.isfunction(obj), f"rbmpo.{module} has no function {function!r}"
    assert obj.__module__ == mod.__name__, f"{name} is defined in {obj.__module__}"


def _rbmpo_imports(path: Path) -> list[tuple[str, str]]:
    """(module, name) for every ``from rbmpo.<module> import <name>`` in `path`."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("rbmpo.")
        for alias in node.names
    ]


CHECKER_IMPORTS = _rbmpo_imports(ROOT / "bench" / "check.py")


def test_checker_imports_found():
    assert len(CHECKER_IMPORTS) >= 8


@pytest.mark.parametrize("module,name", CHECKER_IMPORTS)
def test_checker_import_resolves(module, name):
    mod = importlib.import_module(module)
    assert hasattr(mod, name), f"bench/check.py imports {name!r} from {module}, which lacks it"
