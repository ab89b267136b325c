"""Config, curve and result record round trips."""

import numpy as np
import pytest

from rbmpo.errors import InputError
from rbmpo.learner import Adagrad, Adam, LearnerConfig, train
from rbmpo.linalg import matrix_to_json_dict
from rbmpo.noise import phase_flip
from rbmpo.quantum import basis_state
from rbmpo.rb import AsfCurve, ExperimentConfig
from rbmpo.serialize import (dump_json, experiment_config_from_dict, experiment_config_to_dict,
                             learner_config_from_dict, learner_config_to_dict, node_from_file,
                             training_result_to_dict)


def test_experiment_config_round_trip():
    cfg = ExperimentConfig(noise=phase_flip(0.06), m_max=7, n_samples=13, seed=99)
    back = experiment_config_from_dict(experiment_config_to_dict(cfg))
    assert back.m_max == 7 and back.n_samples == 13 and back.seed == 99
    for a, b in zip(cfg.noise.bulk, back.noise.bulk):
        assert np.array_equal(a, b)


def test_learner_config_round_trip():
    for opt in (Adagrad(rate=2e-5, epsilon=1e-9), Adam(rate=5e-4, beta1=0.8, beta2=0.95)):
        cfg = LearnerConfig(optimizer=opt, max_iterations=31, convergence_divisor=2.0,
                            departure_rounds=3)
        d = learner_config_to_dict(cfg)
        assert learner_config_from_dict(d) == cfg
        # removed options still parse at their only values in use, and nowhere else
        assert learner_config_from_dict({**d, "sweep_order": "ascending", "update_jitter": 0.0,
                                         "unitarity_tol": 1e-9, "seed": 1}) == cfg
        for key, value in (("sweep_order", "descending"), ("update_jitter", 1e-3),
                           ("update_jitter", False),
                           ("seed", "1"), ("seed", 1.5), ("seed", True),
                           ("max_iterations", 2.9), ("d_env", "2"), ("departure_rounds", True),
                           ("convergence_divisor", "2"), ("unitarity_tol", False),
                           ("unitarity_tol", float("nan")), ("convergence_divisor", float("inf")),
                           ("convergence_divisor", float("nan")),
                           ("optimizer", {**d["optimizer"], "rate": float("nan")}),
                           ("optimizer", {**d["optimizer"], "epsilon": -float("inf")}),
                           ("optimizer", {**d["optimizer"], "rate": "1e-3"}),
                           ("optimizer", {**d["optimizer"], "epsilon": True}),
                           ("unitarity_tol", 10**400),
                           ("optimizer", {**d["optimizer"], "rate": -10**400}),
                           ("optimizer", {**d["optimizer"], "kind": ["adam"]}),
                           ("optimizer", {**d["optimizer"], "kind": "sgd"}),
                           ("optimizer", 5), ("optimizer", ["adam"]),
                           # unknown keys
                           ("max_iteration", 5), ("optimizer", {**d["optimizer"], "rte": 0.5}),
                           # out of range
                           ("max_iterations", -5), ("unitarity_tol", -1), ("unitarity_tol", 0.0),
                           ("optimizer", {**d["optimizer"], "rate": -1e-3}),
                           ("optimizer", {**d["optimizer"], "rate": 0.0}),
                           ("optimizer", {**d["optimizer"], "epsilon": -1e-8}),
                           ("optimizer", {**d["optimizer"], "epsilon": 0})) + (
                          (("optimizer", {**d["optimizer"], "beta1": 1.0}),
                           ("optimizer", {**d["optimizer"], "beta1": -0.1}),
                           ("optimizer", {**d["optimizer"], "beta2": 1.5}))
                          if isinstance(opt, Adam) else
                          (("optimizer", {**d["optimizer"], "beta1": 0.3}),)):
            with pytest.raises(InputError):
                learner_config_from_dict({**d, key: value})
    # a real field takes an integer as well
    assert learner_config_from_dict({**d, "convergence_divisor": 2}).convergence_divisor == 2.0


def test_schema_version_checked_on_read(tmp_path):
    exp = experiment_config_to_dict(ExperimentConfig(noise=phase_flip(0.06), m_max=3,
                                                     n_samples=2, seed=1))
    learner = learner_config_to_dict(LearnerConfig())
    result = {"schema_version": 1, "kind": "training_result", "config": learner,
              "node": matrix_to_json_dict(np.eye(4))}
    path = tmp_path / "result.json"
    for record, read in ((exp, experiment_config_from_dict), (learner, learner_config_from_dict),
                         (result, lambda r: (dump_json(r, path), node_from_file(path)))):
        read(record)
        read({k: v for k, v in record.items() if k != "schema_version"})
        for version in (2, 0, "1", 1.0, True, None):
            with pytest.raises(InputError, match="schema_version"):
                read({**record, "schema_version": version})


def test_experiment_config_rejects_mistyped_numbers():
    d = experiment_config_to_dict(ExperimentConfig(noise=phase_flip(0.06), m_max=7,
                                                   n_samples=13, seed=99))
    for key, value in (("m_max", 2.9), ("m_max", "7"), ("n_samples", True),
                       ("seed", 1.5), ("seed", True), ("seed", None),
                       # unknown keys: a misspelt field must not fall back to its default
                       ("pvom", d["povm"]), ("rho", "zero"), ("notes", "")):
        with pytest.raises(InputError):
            experiment_config_from_dict({**d, key: value})
    # free text for the reader is the one extra field
    assert experiment_config_from_dict({**d, "note": "anything"}).seed == 99


def test_training_result_record_fields():
    data = AsfCurve(tuple(range(1, 6)), (1.0,) * 5, (0.0,) * 5, 3)
    cfg = LearnerConfig(optimizer=Adagrad(rate=1e-5))
    result = train(data, basis_state(0, 2), basis_state(0, 2), cfg)
    record = training_result_to_dict(result, cfg)
    assert record["kind"] == "training_result"
    assert record["converged"] is True
    assert record["config"]["optimizer"]["kind"] == "adagrad"
    assert record["predicted"]["n_samples"] == 1
    assert len(record["unitarity_trace"]) == len(record["cost_trace"])
