"""File formats: experiment configs, learner configs, training results, manifests.

Everything is JSON with a ``schema_version`` field.  Complex matrices use the
``{rows, cols, re, im}`` record from :mod:`rbmpo.linalg`; floats go through
Python's shortest-round-trip repr, so a load/dump cycle is lossless.  ASF
curves travel as CSV (see :class:`rbmpo.rb.AsfCurve`).
"""

from __future__ import annotations

import json

import numpy as np

from .errors import InputError
from .learner import Adagrad, Adam, LearnerConfig, TrainingResult
from .linalg import matrix_from_json_dict, matrix_to_json_dict
from .noise import noise_model_from_dict, noise_model_to_dict
from .quantum import basis_state
from .rb import AsfCurve, ExperimentConfig

SCHEMA_VERSION = 1


def _require(d: dict, key: str, where: str):
    if key not in d:
        raise InputError(f"{where} is missing required field {key!r}")
    return d[key]


def _state_from(value, name: str) -> np.ndarray:
    if value == "zero":
        return basis_state(0, 2)
    if isinstance(value, dict):
        return matrix_from_json_dict(value)
    raise InputError(f"{name} must be \"zero\" or a matrix record, got {value!r}")


def experiment_config_to_dict(cfg: ExperimentConfig) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "rb_experiment",
        "seed": cfg.seed,
        "m_max": cfg.m_max,
        "n_samples": cfg.n_samples,
        "noise": noise_model_to_dict(cfg.noise),
        "rho_sys": matrix_to_json_dict(cfg.rho_sys),
        "povm": matrix_to_json_dict(cfg.povm),
    }


def experiment_config_from_dict(d: dict) -> ExperimentConfig:
    if d.get("kind") != "rb_experiment":
        raise InputError(f"expected an rb_experiment config, got kind={d.get('kind')!r}")
    noise = noise_model_from_dict(_require(d, "noise", "experiment config"))
    return ExperimentConfig(
        noise=noise,
        m_max=int(_require(d, "m_max", "experiment config")),
        n_samples=int(_require(d, "n_samples", "experiment config")),
        seed=int(_require(d, "seed", "experiment config")),
        rho_sys=_state_from(d.get("rho_sys", "zero"), "rho_sys"),
        povm=_state_from(d.get("povm", "zero"), "povm"),
    )


def learner_config_to_dict(cfg: LearnerConfig) -> dict:
    if isinstance(cfg.optimizer, Adagrad):
        opt = {"kind": "adagrad", "rate": cfg.optimizer.rate, "epsilon": cfg.optimizer.epsilon}
    else:
        opt = {
            "kind": "adam",
            "rate": cfg.optimizer.rate,
            "beta1": cfg.optimizer.beta1,
            "beta2": cfg.optimizer.beta2,
            "epsilon": cfg.optimizer.epsilon,
        }
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "learner",
        "d_env": cfg.d_env,
        "optimizer": opt,
        "max_iterations": cfg.max_iterations,
        "convergence_divisor": cfg.convergence_divisor,
        "unitarity_tol": cfg.unitarity_tol,
        "departure_rounds": cfg.departure_rounds,
    }


def learner_config_from_dict(d: dict) -> LearnerConfig:
    if d.get("kind") != "learner":
        raise InputError(f"expected a learner config, got kind={d.get('kind')!r}")
    opt_rec = _require(d, "optimizer", "learner config")
    opt_kind = _require(opt_rec, "kind", "optimizer record")
    if opt_kind == "adagrad":
        optimizer = Adagrad(
            rate=float(opt_rec.get("rate", 1e-5)),
            epsilon=float(opt_rec.get("epsilon", 1e-8)),
        )
    elif opt_kind == "adam":
        optimizer = Adam(
            rate=float(opt_rec.get("rate", 1e-3)),
            beta1=float(opt_rec.get("beta1", 0.9)),
            beta2=float(opt_rec.get("beta2", 0.99)),
            epsilon=float(opt_rec.get("epsilon", 1e-8)),
        )
    else:
        raise InputError(f"unknown optimizer kind {opt_kind!r}")
    # removed options: config files may still name them, at their only values in use
    for key, only in (("sweep_order", "ascending"), ("update_jitter", 0.0)):
        if d.get(key, only) != only:
            raise InputError(f"learner config key {key!r} only accepts {only!r}, got {d[key]!r}")
    seed = d.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise InputError(f"learner config key 'seed' is ignored but must be an integer, got {seed!r}")
    return LearnerConfig(
        d_env=int(d.get("d_env", 2)),
        optimizer=optimizer,
        max_iterations=int(d.get("max_iterations", 200)),
        convergence_divisor=float(d.get("convergence_divisor", 1.0)),
        unitarity_tol=float(d.get("unitarity_tol", 1e-9)),
        departure_rounds=int(d.get("departure_rounds", 8)),
    )


def curve_to_dict(curve: AsfCurve) -> dict:
    return {
        "kind": "asf_curve",
        "lengths": list(curve.lengths),
        "means": list(curve.means),
        "stderrs": list(curve.stderrs),
        "n_samples": curve.n_samples,
    }


def curve_from_dict(d: dict) -> AsfCurve:
    try:
        return AsfCurve(
            tuple(int(m) for m in d["lengths"]),
            tuple(float(v) for v in d["means"]),
            tuple(float(s) for s in d["stderrs"]),
            int(d["n_samples"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed ASF curve record: {exc}") from exc


def training_result_to_dict(result: TrainingResult, config: LearnerConfig) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "training_result",
        "node": matrix_to_json_dict(result.node),
        "predicted": curve_to_dict(result.predicted),
        "cost_trace": list(result.cost_trace),
        "l1_trace": list(result.l1_trace),
        "unitarity_trace": list(result.unitarity_trace),
        "converged": result.converged,
        "iterations": result.iterations,
        "best_iteration": result.best_iteration,
        "config": learner_config_to_dict(config),
    }


def load_json(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise InputError(f"no such file: {path}") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: line {exc.lineno}, {exc.msg}") from exc


def dump_json(obj: dict, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)
        fh.write("\n")


def node_matrix_from_file(path) -> np.ndarray:
    """Read a unitary node from either a bare matrix record or a training result."""
    d = load_json(path)
    if d.get("kind") == "training_result":
        return matrix_from_json_dict(d["node"])
    if "re" in d and "im" in d:
        return matrix_from_json_dict(d)
    raise InputError(f"{path} holds neither a matrix record nor a training result")


def load_curve(path) -> AsfCurve:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return AsfCurve.from_csv(fh.read())
    except FileNotFoundError:
        raise InputError(f"no such file: {path}") from None
