"""Config, curve and result record round trips."""

import numpy as np
import pytest

from rbmpo.errors import InputError
from rbmpo.learner import Adagrad, Adam, LearnerConfig, train
from rbmpo.noise import phase_flip
from rbmpo.quantum import basis_state
from rbmpo.rb import AsfCurve, ExperimentConfig
from rbmpo.serialize import (
    experiment_config_from_dict,
    experiment_config_to_dict,
    learner_config_from_dict,
    learner_config_to_dict,
    training_result_to_dict,
)


def test_experiment_config_round_trip():
    cfg = ExperimentConfig(noise=phase_flip(0.06), m_max=7, n_samples=13, seed=99)
    back = experiment_config_from_dict(experiment_config_to_dict(cfg))
    assert back.m_max == 7 and back.n_samples == 13 and back.seed == 99
    for a, b in zip(cfg.noise.channel.operators, back.noise.channel.operators):
        assert np.array_equal(a, b)


def test_learner_config_round_trip():
    for opt in (Adagrad(rate=2e-5, epsilon=1e-9), Adam(rate=5e-4, beta1=0.8, beta2=0.95)):
        cfg = LearnerConfig(optimizer=opt, max_iterations=31, convergence_divisor=2.0,
                            departure_rounds=3)
        d = learner_config_to_dict(cfg)
        assert learner_config_from_dict(d) == cfg
        # removed options still parse at their only values in use, and nowhere else
        assert learner_config_from_dict(
            {**d, "sweep_order": "ascending", "update_jitter": 0.0, "seed": 1}) == cfg
        for key, value in (("sweep_order", "descending"), ("update_jitter", 1e-3),
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
                           ("optimizer", {**d["optimizer"], "kind": "sgd"})):
            with pytest.raises(InputError):
                learner_config_from_dict({**d, key: value})
    # a real field takes an integer as well
    assert learner_config_from_dict({**d, "convergence_divisor": 2}).convergence_divisor == 2.0


def test_experiment_config_rejects_mistyped_numbers():
    d = experiment_config_to_dict(ExperimentConfig(noise=phase_flip(0.06), m_max=7,
                                                   n_samples=13, seed=99))
    for key, value in (("m_max", 2.9), ("m_max", "7"), ("n_samples", True),
                       ("seed", 1.5), ("seed", True), ("seed", None)):
        with pytest.raises(InputError):
            experiment_config_from_dict({**d, key: value})


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
