"""File formats: noise models, experiment and learner configs, training results.

Everything is JSON with a ``schema_version`` field.  Complex matrices use the
``{rows, cols, re, im}`` record from :mod:`rbmpo.linalg`; floats go through
Python's shortest-round-trip repr, so a load/dump cycle is lossless.  ASF
curves travel as CSV (see :class:`rbmpo.rb.AsfCurve`).
"""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np

from .errors import DomainError, InputError
from .learner import Adagrad, Adam, LearnerConfig, TrainingResult
from .linalg import matrix_from_json_dict, matrix_to_json_dict
from .noise import (
    NoiseSteps, amplitude_damping, depolarizing, joint_unitary, markovian_channel, phase_flip,
    spin_unitary,
)
from .quantum import KrausChannel, basis_state
from .rb import AsfCurve, ExperimentConfig

SCHEMA_VERSION = 1


def _require(d: dict, key: str, where: str):
    if key not in d:
        raise InputError(f"{where} is missing required field {key!r}")
    return d[key]


def _record(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise InputError(f"{where} must be a JSON object, not {type(value).__name__}")
    return value


def _check_schema(d: dict, where: str) -> None:
    """A record written by another schema version is rejected, not misread;
    a record without the field is taken to be of this version."""
    version = d.get("schema_version", SCHEMA_VERSION)
    if type(version) is not int or version != SCHEMA_VERSION:
        raise InputError(f"{where} has schema_version {version!r}, expected {SCHEMA_VERSION}")


def _check_keys(d: dict, known, where: str) -> None:
    """A key of record `d` outside `known` is an input error, so a misspelt
    field is never silently left at its default."""
    unknown = sorted(set(d) - set(known))
    if unknown:
        raise InputError(f"{where} has unknown fields {unknown}")


def _number(d: dict, key: str, kind: type, where: str, default=None):
    """Numeric field `key` of `d`, required unless a default is given.  An int
    field takes a JSON integer, a float field an integer or a float whose
    float value is finite; a boolean, a string, NaN, an infinity or an
    integer too large for a float is rejected, never coerced."""
    value = _require(d, key, where) if default is None else d.get(key, default)
    bad = isinstance(value, bool) or not isinstance(value, int if kind is int else (int, float))
    if not bad and kind is float:
        try:
            bad = not math.isfinite(value)
        except OverflowError:  # an integer beyond the float range
            bad = True
    if bad:
        what = "an integer" if kind is int else "a finite number"
        raise InputError(f"{where} field {key!r} must be {what}, got {value!r}")
    return kind(value)


def _state_from(value, name: str) -> np.ndarray:
    if value == "zero":
        return basis_state(0, 2)
    if isinstance(value, dict):
        return matrix_from_json_dict(value)
    raise InputError(f"{name} must be \"zero\" or a matrix record, got {value!r}")


def _kraus_list(ops: tuple[np.ndarray, ...]) -> list[dict]:
    return [matrix_to_json_dict(k) for k in ops]


def noise_model_to_dict(model: NoiseSteps) -> dict:
    """Record sufficient to rebuild the model exactly: a ``markovian`` record
    for a one-dimensional environment, a ``joint_unitary`` one otherwise.
    Both slots ``prep`` and ``final`` are always written."""
    if model.d_env == 1:
        d = {"kind": "markovian", "kraus": _kraus_list(model.bulk)}
    elif len(model.bulk) == 1:
        d = {
            "kind": "joint_unitary",
            "unitary": matrix_to_json_dict(model.bulk[0]),
            "rho_env": matrix_to_json_dict(model.rho_env),
            "d_env": model.d_env,
        }
    else:
        raise InputError("noise with an environment is written only with one unitary bulk operator")
    return {**d, "label": model.label,
            "prep": _kraus_list(model.prep), "final": _kraus_list(model.final)}


#: Parametric noise records: each kind's builder, then its real parameters in argument order.
_PARAMETRIC = {
    "phase_flip": (phase_flip, "p"),
    "amplitude_damping": (amplitude_damping, "gamma"),
    "depolarizing": (depolarizing, "p"),
    "spin_unitary": (spin_unitary, "J", "hx", "hy", "delta"),
}

#: The fields each kind of noise record may carry besides its "kind" tag.
_NOISE_FIELDS = {
    "identity": ("dim",),
    "markovian": ("kraus", "label", "prep", "final"),
    "joint_unitary": ("unitary", "rho_env", "d_env", "label", "prep", "final"),
    **{kind: params for kind, (_, *params) in _PARAMETRIC.items()},
}


def noise_model_from_dict(d: dict) -> NoiseSteps:
    """Rebuild a noise model from a record written by :func:`noise_model_to_dict`
    or from a short parametric form like ``{"kind": "phase_flip", "p": 0.06}``."""
    if not isinstance(d, dict) or "kind" not in d:
        raise InputError("noise model record is missing its 'kind' tag")
    kind = d["kind"]
    if not isinstance(kind, str) or kind not in _NOISE_FIELDS:
        raise InputError(f"unknown noise model kind {kind!r}")
    where = f"noise model {kind!r}"
    _check_keys(d, ("kind", *_NOISE_FIELDS[kind]), where)
    if kind in _PARAMETRIC:
        build, *params = _PARAMETRIC[kind]
        return build(*(_number(d, key, float, where) for key in params))
    if kind == "identity":
        dim = _number(d, "dim", int, where, 2)
        if dim != 2:  # checked before anything of size dim is built
            raise DomainError(f"{where} field 'dim' must be 2, the one-qubit system's, got {dim}")
        eye = np.eye(dim, dtype=np.complex128)
        return markovian_channel(KrausChannel((eye,)), label="identity")

    def channel(name: str) -> KrausChannel:
        ops = _require(d, name, where)
        if not isinstance(ops, list):
            raise InputError(f"{where} field {name!r} must be a list of matrices, not {ops!r}")
        return KrausChannel(tuple(matrix_from_json_dict(k) for k in ops))

    def slot(name: str) -> KrausChannel | None:
        return channel(name) if name in d else None

    label = d.get("label", kind)
    if not isinstance(label, str):
        raise InputError(f"{where} field 'label' must be a string, not {label!r}")

    if kind == "markovian":
        return markovian_channel(channel("kraus"), prep=slot("prep"), final=slot("final"),
                                 label=label)
    return joint_unitary(
        matrix_from_json_dict(_require(d, "unitary", where)),
        matrix_from_json_dict(_require(d, "rho_env", where)),
        _number(d, "d_env", int, where),
        prep=slot("prep"),
        final=slot("final"),
        label=label,
    )


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


#: The fields of an experiment config; "note" is free text for the reader.
_EXPERIMENT_FIELDS = ("schema_version", "kind", "seed", "m_max", "n_samples", "noise",
                      "rho_sys", "povm", "note")


def experiment_config_from_dict(d: dict) -> ExperimentConfig:
    if _record(d, "experiment config").get("kind") != "rb_experiment":
        raise InputError(f"expected an rb_experiment config, got kind={d.get('kind')!r}")
    _check_schema(d, "experiment config")
    _check_keys(d, _EXPERIMENT_FIELDS, "experiment config")
    noise = noise_model_from_dict(_require(d, "noise", "experiment config"))
    return ExperimentConfig(
        noise=noise,
        m_max=_number(d, "m_max", int, "experiment config"),
        n_samples=_number(d, "n_samples", int, "experiment config"),
        seed=_number(d, "seed", int, "experiment config"),
        rho_sys=_state_from(d.get("rho_sys", "zero"), "rho_sys"),
        povm=_state_from(d.get("povm", "zero"), "povm"),
    )


#: Optimizer records by their "kind" tag.
_OPTIMIZERS = {opt.kind: opt for opt in (Adagrad, Adam)}

#: Removed learner options: config files may still name them, at their only values in use.
_RETIRED = {"sweep_order": "ascending", "update_jitter": 0.0, "unitarity_tol": 1e-9}


def _fields(cls, d: dict, where: str, extra: set[str]) -> dict:
    """Keyword arguments for dataclass `cls` from record `d`: each defaulted
    field is read by :func:`_number` as its default's type, with that default.
    A key that is neither such a field nor in `extra` is an input error."""
    defaults = {f.name: f.default for f in dataclasses.fields(cls)
                if f.default is not dataclasses.MISSING}
    _check_keys(d, {*defaults, *extra}, where)
    return {k: _number(d, k, type(v), where, v) for k, v in defaults.items()}


def learner_config_to_dict(cfg: LearnerConfig) -> dict:
    return {**dataclasses.asdict(cfg), "schema_version": SCHEMA_VERSION, "kind": "learner",
            "optimizer": {"kind": cfg.optimizer.kind, **dataclasses.asdict(cfg.optimizer)}}


def learner_config_from_dict(d: dict) -> LearnerConfig:
    where = "learner config"
    if _record(d, where).get("kind") != "learner":
        raise InputError(f"expected a learner config, got kind={d.get('kind')!r}")
    _check_schema(d, where)
    opt_rec = _record(_require(d, "optimizer", where), "optimizer record")
    opt_kind = _require(opt_rec, "kind", "optimizer record")
    opt_cls = _OPTIMIZERS.get(opt_kind) if isinstance(opt_kind, str) else None
    if opt_cls is None:
        raise InputError(f"unknown optimizer kind {opt_kind!r}")
    optimizer = opt_cls(**_fields(opt_cls, opt_rec, "optimizer record", {"kind"}))
    for key, only in _RETIRED.items():
        value = d.get(key, only) if isinstance(only, str) else _number(d, key, float, where, only)
        if value != only:
            raise InputError(f"learner config key {key!r} only accepts {only!r}, got {d[key]!r}")
    _number(d, "seed", int, where, 0)  # ignored, but still type-checked
    return LearnerConfig(optimizer=optimizer, **_fields(
        LearnerConfig, d, where, {"kind", "schema_version", "optimizer", "seed", *_RETIRED}))


def training_result_to_dict(result: TrainingResult, config: LearnerConfig) -> dict:
    return {**dataclasses.asdict(result), "schema_version": SCHEMA_VERSION,
            "kind": "training_result", "node": matrix_to_json_dict(result.node),
            "predicted": {"kind": "asf_curve", **dataclasses.asdict(result.predicted)},
            "config": learner_config_to_dict(config)}


def _read_text(path) -> str:
    """The text of file `path`; a missing, unreadable or non-UTF-8 file is an input error."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise InputError(f"{path} is not UTF-8 text") from None


def load_json(path) -> dict:
    """The JSON object in file `path`; any other top-level value is an input error."""
    try:
        d = json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: line {exc.lineno}, {exc.msg}") from exc
    return _record(d, str(path))


def dump_json(obj: dict, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)
        fh.write("\n")


def node_from_file(path) -> tuple[np.ndarray, int]:
    """Read a unitary node and its environment dimension from either a
    training result (d_env from its learner config) or a bare matrix
    record (d_env its size over 2: every experiment's system is one qubit)."""
    d = load_json(path)
    if d.get("kind") == "training_result":
        _check_schema(d, "training result")
        config = learner_config_from_dict(_require(d, "config", "training result"))
        return matrix_from_json_dict(_require(d, "node", "training result")), config.d_env
    if "re" in d and "im" in d:
        node = matrix_from_json_dict(d)
        if node.shape[0] % 2:
            raise InputError(f"{path} holds a {node.shape[0]}-row matrix, not a node on "
                             "environment x qubit")
        return node, node.shape[0] // 2
    raise InputError(f"{path} holds neither a matrix record nor a training result")


def node_matrix_from_file(path) -> np.ndarray:
    """Read a unitary node from either a bare matrix record or a training result."""
    return node_from_file(path)[0]


def load_curve(path) -> AsfCurve:
    return AsfCurve.from_csv(_read_text(path))
