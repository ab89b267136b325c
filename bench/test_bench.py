"""Tests of the benchmark itself, on a tiny experiment (seconds to run).

Run from the repository root::

    python -m pytest -q bench
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from run import BENCH, ROOT, SRC, WORKLOADS, aggregate_spans, layer_value

sys.path.insert(0, str(SRC))

from rbmpo.serialize import experiment_config_from_dict, learner_config_from_dict, load_json  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
LAYERS = json.loads((BENCH / "layers.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")

TINY_EXPERIMENT = {
    "kind": "rb_experiment", "schema_version": 1, "seed": 5, "m_max": 3, "n_samples": 8,
    "noise": {"kind": "phase_flip", "p": 0.1}, "rho_sys": "zero", "povm": "zero",
}
TINY_LEARNER = {
    "kind": "learner", "schema_version": 1, "seed": 1, "d_env": 2,
    "optimizer": {"kind": "adagrad", "rate": 1e-3, "epsilon": 1e-8},
    "convergence_divisor": 1e6, "sweep_order": "ascending", "unitarity_tol": 1e-9,
    "update_jitter": 0.0,
}


def test_metric_names_are_plain():
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [m["name"] for m in metrics] + [w["name"] for w in SPEC["workloads"]]
    assert all(NAME.fullmatch(n) for n in names), names
    assert len(set(names)) == len(names)
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


def test_prediction_table_covers_per_layer_metrics():
    predicted = {m for layer in LAYERS["layers"] for m in layer["metrics"]}
    assert predicted == {m["name"] for m in SPEC["per_layer"]}
    for layer in LAYERS["layers"]:
        assert set(layer["dominates_on"]) | set(layer["unmoved_on"]) <= set(WORKLOADS)


def test_bench_configs_parse():
    for path in sorted((BENCH / "configs").glob("*.json")):
        d = load_json(path)
        if d["kind"] == "learner":
            learner_config_from_dict(d)
        else:
            experiment_config_from_dict(d)


def _traced(tmp_path: Path, tag: str, args: list[str]) -> Path:
    spans = tmp_path / f"spans-{tag}.json"
    proc = subprocess.run(
        [sys.executable, str(BENCH / "traced.py"), str(spans), tag, "--", *args],
        cwd=SRC, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return spans


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    """Tiny data set plus a departure-only and a sweep-only learner config."""
    tmp = tmp_path_factory.mktemp("tiny")
    (tmp / "exp.json").write_text(json.dumps(TINY_EXPERIMENT))
    (tmp / "departure.json").write_text(json.dumps(
        {**TINY_LEARNER, "departure_rounds": 1, "max_iterations": 0}))
    (tmp / "sweep.json").write_text(json.dumps(
        {**TINY_LEARNER, "departure_rounds": 0, "max_iterations": 5}))
    gen = _traced(tmp, "gen", ["generate", str(tmp / "exp.json"), "-o", str(tmp / "data")])
    return tmp, gen


def _learn(tiny, config: str, tag: str) -> Path:
    tmp, _ = tiny
    return _traced(tmp, tag, ["learn", str(tmp / "data" / "asf.csv"), str(tmp / config),
                              "-o", str(tmp / tag)])


def _callers(spans: Path, name: str) -> dict:
    """How often each traced function called `name` directly."""
    rec = json.loads(spans.read_text())
    names = rec["names"]
    out = {}
    for n, parent in zip(rec["name"], rec["parent"]):
        if names[n] == name and parent >= 0:
            caller = names[rec["name"][parent]]
            out[caller] = out.get(caller, 0) + 1
    return out


def test_traced_counts_repeat_exactly(tiny):
    first = aggregate_spans([_learn(tiny, "departure.json", "dep-a")])
    second = aggregate_spans([_learn(tiny, "departure.json", "dep-b")])
    assert first["calls"] == second["calls"]
    assert first["calls"]["learner.cost"] > 0


def test_sweep_counters(tiny):
    departure = aggregate_spans([_learn(tiny, "departure.json", "dep")])
    sweep_spans = _learn(tiny, "sweep.json", "sweep")
    sweep = aggregate_spans([sweep_spans])
    for metric in ("learner.sweep_iteration.calls", "learner.gradient_joint.calls",
                   "process_tensor.asf_joint_coefficient.calls"):
        assert layer_value(metric, departure) == 0
        assert layer_value(metric, sweep) > 0
    assert layer_value("learner.sweep_iteration.calls", sweep) == 5
    # Names bound by `from .x import f` in other modules are traced at those sites.
    assert _callers(sweep_spans, "linalg.svd").get("learner.split_truncate") == 5
    assert _callers(sweep_spans, "linalg.principal_unitary_sqrt") == {"learner.replacement_node": 5}
    assert _callers(sweep_spans, "process_tensor.asf_joint_coefficient") == {
        "learner.gradient_joint": layer_value("process_tensor.asf_joint_coefficient.calls", sweep)}
    assert _callers(sweep_spans, "learner.train") == {"cli.cmd_learn": 1}


def test_every_per_layer_metric_resolves(tiny):
    tmp, gen = tiny
    agg = aggregate_spans([gen])
    assert _callers(gen, "rb.estimate_asf") == {"cli.cmd_generate": 1}
    assert _callers(gen, "quantum.sample_sequence") == {"rb.estimate_asf": 3 * 8}
    assert _callers(gen, "quantum.compile_undo") == {"rb.run_sequence": 3 * 8}
    assert layer_value("rb.run_sequence.calls", agg) == 3 * 8
    for metric in SPEC["per_layer"]:
        if metric["name"] != "trace.overhead_frac":
            layer_value(metric["name"], agg)


def test_fit_measure_tells_a_noop_learner(tiny):
    """check.py's fit of a learner that never leaves the identity is the identity's."""
    tmp, _ = tiny
    (tmp / "noop.json").write_text(json.dumps(
        {**TINY_LEARNER, "departure_rounds": 0, "max_iterations": 0}))
    _learn(tiny, "noop.json", "noop")
    _learn(tiny, "departure.json", "moved")
    data = str(tmp / "data" / "asf.csv")
    request = tmp / "check_request.json"
    request.write_text(json.dumps({"learn": [
        {"result": str(tmp / tag / "result.json"), "data": data} for tag in ("noop", "moved")]}))
    proc = subprocess.run([sys.executable, str(BENCH / "check.py"), str(request)],
                          cwd=SRC, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    noop, moved = json.loads(proc.stdout.strip().splitlines()[-1])["learn"]
    assert noop["fit_l1_over_sigma"] == noop["identity_l1_over_sigma"]
    assert moved["fit_l1_over_sigma"] < moved["identity_l1_over_sigma"]
    assert max(noop["defect"], moved["defect"]) < 1e-9
