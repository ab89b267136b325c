"""Numerical output checks for the benchmark, run outside its timed region.

Usage (from the repository's ``src/`` directory)::

    python ../bench/check.py REQUEST.json

REQUEST.json holds lists of files to check; the answer is one JSON object on
stdout with a measurement per file, plus the numpy and BLAS versions.  The
thresholds live in ``run.py``; this process only measures.  It is never
traced, so nothing it calls can enter the per-layer metrics.
"""

from __future__ import annotations

import json
import os
import sys


def blas_info(np) -> str:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{deps.get('name', '?')} {deps.get('version', '?')}"
    except (TypeError, KeyError, ValueError):
        return "unknown"


def main(argv: list[str]) -> int:
    sys.path.insert(0, os.getcwd())
    import numpy as np

    from rbmpo.average import clifford_averaged_asf_curve, fit_exponential
    from rbmpo.learner import predicted_curve
    from rbmpo.quantum import basis_state
    from rbmpo.serialize import experiment_config_from_dict, load_curve, load_json, node_matrix_from_file

    with open(argv[0], encoding="utf-8") as fh:
        request = json.load(fh)
    answer = {"numpy": np.__version__, "blas": blas_info(np), "asf": [], "fit": [], "learn": []}

    for item in request.get("asf", []):
        cfg_dict = load_json(item["config"])
        cfg_dict["seed"] = item["seed"]
        cfg = experiment_config_from_dict(cfg_dict)
        curve = load_curve(item["csv"])
        exact = clifford_averaged_asf_curve(cfg.noise, cfg.rho_sys, cfg.povm, cfg.m_max, cfg.gate_set)
        means = np.asarray(curve.means)
        stderrs = np.asarray(curve.stderrs)
        diff = np.abs(means - exact[np.asarray(curve.lengths) - 1])
        # A zero stderr (every sequence agreed) must match the exact value outright.
        with np.errstate(divide="ignore", invalid="ignore"):
            z = np.where(stderrs > 0.0, diff / stderrs, np.where(diff > 1e-12, np.inf, 0.0))
        answer["asf"].append({"csv": item["csv"], "max_abs_z": float(z.max())})

    for path in request.get("fit", []):
        curve = load_curve(path)
        fit = fit_exponential(curve)
        answer["fit"].append({
            "csv": path,
            "max_residual": fit.max_residual,
            "median_stderr": float(np.median(curve.stderrs)),
        })

    # A learned node: its unitarity defect, and the l1 distance of its predicted
    # curve (and of the identity's, the learner's start) from the data, in units
    # of the summed standard errors.  `learn` states and probes as the CLI does.
    zero = basis_state(0, 2)
    for item in request.get("learn", []):
        node = node_matrix_from_file(item["result"])
        d_env = load_json(item["result"])["config"]["d_env"]
        data = load_curve(item["data"])
        means = np.asarray(data.means)
        sigma = float(np.sum(np.abs(data.stderrs)))

        def l1_over_sigma(candidate):
            pred = predicted_curve(candidate, d_env, zero, zero, data.lengths)
            return float(np.abs(pred - means).sum()) / sigma

        answer["learn"].append({
            "result": item["result"],
            "defect": float(np.linalg.norm(node.conj().T @ node - np.eye(node.shape[0]))),
            "fit_l1_over_sigma": l1_over_sigma(node),
            "identity_l1_over_sigma": l1_over_sigma(np.eye(node.shape[0], dtype=np.complex128)),
        })

    print(json.dumps(answer))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
