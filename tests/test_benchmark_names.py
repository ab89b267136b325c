"""Every name the benchmark relies on still exists.

The benchmark reads `<module>.<function>.{calls,s}` from spans recorded
around the public functions of each ``rbmpo`` module; a metric whose
function was renamed or made private has nothing behind it.  Its fit
checker (``bench/check.py``) imports ``rbmpo`` names directly, and a
removed one would break every benchmark run, as would a changed signature
of one it calls: a tiny run of the checker catches that.
"""

import ast
import importlib
import inspect
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from rbmpo.cli import EXIT_OK, main
from rbmpo.serialize import dump_json

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


def test_checker_runs_on_tiny_outputs(tmp_path):
    """bench/check.py, run from src/ as the benchmark runs it, on a 5-length
    phase-flip curve and a fit of it with one departure round and no sweep."""
    cfg = tmp_path / "pf.json"
    dump_json({"schema_version": 1, "kind": "rb_experiment", "seed": 5, "m_max": 5,
               "n_samples": 20, "noise": {"kind": "phase_flip", "p": 0.06},
               "rho_sys": "zero", "povm": "zero"}, cfg)
    lcfg = tmp_path / "learner.json"
    dump_json({"schema_version": 1, "kind": "learner", "d_env": 2, "max_iterations": 0,
               "departure_rounds": 1, "convergence_divisor": 1.0,
               "optimizer": {"kind": "adagrad", "rate": 1e-5, "epsilon": 1e-8}}, lcfg)
    csv = tmp_path / "data" / "asf.csv"
    assert main(["generate", str(cfg), "-o", str(csv.parent)]) == EXIT_OK
    assert main(["learn", str(csv), str(lcfg), "-o", str(tmp_path / "fit")]) == EXIT_OK
    request = tmp_path / "request.json"
    dump_json({"asf": [{"config": str(cfg), "seed": 5, "csv": str(csv)}], "fit": [str(csv)],
               "learn": [{"result": str(tmp_path / "fit" / "result.json"), "data": str(csv)}]},
              request)
    run = subprocess.run([sys.executable, str(ROOT / "bench" / "check.py"), str(request)],
                         cwd=ROOT / "src", capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    answer = json.loads(run.stdout)
    assert math.isfinite(answer["asf"][0]["max_abs_z"])
    assert [fit["csv"] for fit in answer["fit"]] == [str(csv)]
    (learned,) = answer["learn"]
    assert learned["defect"] < 1e-9
    assert learned["fit_l1_over_sigma"] <= learned["identity_l1_over_sigma"]
