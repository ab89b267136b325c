"""Every function that BENCHMARK.json's per-layer metrics time still exists.

The benchmark reads `<module>.<function>.{calls,s}` from spans recorded
around the public functions of each ``rbmpo`` module; a metric whose
function was renamed or made private has nothing behind it.
"""

import importlib
import inspect
import json
from pathlib import Path

import pytest

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
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
