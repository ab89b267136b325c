"""Noise model constructors and their invariants."""

import dataclasses
import json

import numpy as np
import pytest

from rbmpo.cli import EXIT_INPUT, main
from rbmpo.errors import DomainError, InputError
from rbmpo.linalg import matrix_to_json_dict
from rbmpo.noise import (amplitude_damping, depolarizing, eigh_expm, hermitian_expm,
                         markovian_channel, phase_flip, spin_hamiltonian, spin_unitary)
from rbmpo.process_tensor import contract_asf_dense
from rbmpo.quantum import (HADAMARD, I2, KrausChannel, apply_channel, basis_state, dagger,
                           single_qubit_cliffords)
from rbmpo.rb import run_sequence
from rbmpo.serialize import dump_json, noise_model_from_dict, noise_model_to_dict


def kraus_completeness(channel):
    total = sum(dagger(k) @ k for k in channel.operators)
    return np.linalg.norm(total - np.eye(channel.dim))


class TestPhaseFlip:
    def test_kraus_norms_at_reference_rate(self):
        model = phase_flip(0.06)
        k0, k1 = model.bulk
        assert abs(np.linalg.norm(k0, 2) - np.sqrt(0.94)) < 1e-14
        assert abs(np.linalg.norm(k1, 2) - np.sqrt(0.06)) < 1e-14

    def test_zero_rate_is_identity(self):
        model = phase_flip(0.0)
        rho = np.array([[0.5, 0.3], [0.3, 0.5]], dtype=complex)
        assert np.allclose(apply_channel(KrausChannel(model.bulk), rho), rho)

    def test_half_rate_fully_dephases(self):
        model = phase_flip(0.5)
        plus = np.full((2, 2), 0.5, dtype=complex)
        out = apply_channel(KrausChannel(model.bulk), plus)
        assert abs(out[0, 1]) < 1e-14 and abs(out[1, 0]) < 1e-14

    def test_domain(self):
        with pytest.raises(DomainError):
            phase_flip(-0.1)
        with pytest.raises(DomainError):
            phase_flip(1.1)


class TestAmplitudeDamping:
    def test_zero_is_identity(self):
        rho = np.array([[0.2, 0.1j], [-0.1j, 0.8]], dtype=complex)
        assert np.allclose(apply_channel(KrausChannel(amplitude_damping(0.0).bulk), rho), rho)

    def test_full_damping_resets(self):
        rho = np.array([[0.2, 0.1j], [-0.1j, 0.8]], dtype=complex)
        out = apply_channel(KrausChannel(amplitude_damping(1.0).bulk), rho)
        assert np.allclose(out, basis_state(0, 2), atol=1e-14)

    def test_completeness(self):
        assert kraus_completeness(KrausChannel(amplitude_damping(0.3).bulk)) < 1e-12


class TestDepolarizing:
    def test_zero_is_identity(self):
        rho = np.array([[0.7, 0.2], [0.2, 0.3]], dtype=complex)
        assert np.allclose(apply_channel(KrausChannel(depolarizing(0.0).bulk), rho), rho)

    def test_full_depolarizing_mixes(self):
        out = apply_channel(KrausChannel(depolarizing(1.0).bulk), basis_state(0, 2))
        assert np.allclose(out, np.eye(2) / 2, atol=1e-14)

    def test_completeness(self):
        assert kraus_completeness(KrausChannel(depolarizing(0.1).bulk)) < 1e-10

    def test_convex_action(self):
        p = 0.37
        rho = np.array([[0.6, 0.1 - 0.2j], [0.1 + 0.2j, 0.4]])
        out = apply_channel(KrausChannel(depolarizing(p).bulk), rho)
        assert np.allclose(out, (1 - p) * rho + p * np.eye(2) / 2, atol=1e-12)


class TestHermitianExpm:
    @staticmethod
    def complex_hermitian(rng, shape):
        a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        return (a + np.conj(a).swapaxes(-1, -2)) / 2.0

    def test_matches_taylor_series(self):
        # complex eigenvectors: a transpose in place of the adjoint fails here
        h = self.complex_hermitian(np.random.default_rng(31), (4, 4))
        theta = 0.7 / np.linalg.norm(h, 2)
        series, term = np.eye(4, dtype=complex), np.eye(4, dtype=complex)
        for k in range(1, 40):
            term = term @ (-1j * theta * h) / k
            series = series + term
        assert np.max(np.abs(hermitian_expm(h, -1j * theta) - series)) < 1e-14

    def test_stack_with_one_scale_per_matrix(self):
        # one stacked decomposition, a scale per matrix: each slice is
        # hermitian_expm of its own matrix, bit for bit
        h = self.complex_hermitian(np.random.default_rng(32), (3, 4, 4))
        thetas = np.array([0.1, -2.0, 3.5])
        w, v = np.linalg.eigh(h)
        stacked = eigh_expm(w, v, -1j * thetas[:, None])
        for one, theta, out in zip(h, thetas, stacked):
            assert np.array_equal(out, hermitian_expm(one, -1j * theta))


class TestSpinUnitary:
    PARAMS = dict(coupling=1.2, field_x=1.17, field_y=-1.15, delta=0.05)

    def test_unitary_at_reference_parameters(self):
        model = spin_unitary(**self.PARAMS)
        u = model.bulk[0]
        assert np.linalg.norm(dagger(u) @ u - np.eye(4)) < 1e-12
        assert model.d_env == 2
        assert np.allclose(model.rho_env, basis_state(0, 2))

    def test_adjoint_reverses_time(self):
        model = spin_unitary(**self.PARAMS)
        h = spin_hamiltonian(1.2, 1.17, -1.15)
        reverse = hermitian_expm(h, +1j * 0.05)
        assert np.linalg.norm(dagger(model.bulk[0]) - reverse) < 1e-12

    def test_one_parameter_group(self):
        u1 = spin_unitary(1.2, 1.17, -1.15, 0.05).bulk[0]
        u2 = spin_unitary(1.2, 1.17, -1.15, 0.10).bulk[0]
        assert np.linalg.norm(u1 @ u1 - u2) < 1e-12

    def test_small_delta_near_identity(self):
        delta = 1e-6
        u = spin_unitary(1.2, 1.17, -1.15, delta).bulk[0]
        h = spin_hamiltonian(1.2, 1.17, -1.15)
        bound = delta * np.linalg.norm(h, 2) + 10 * delta**2
        assert np.linalg.norm(u - np.eye(4), 2) <= bound

    def test_delta_domain(self):
        with pytest.raises(DomainError):
            spin_unitary(1.2, 1.17, -1.15, 0.0)


class TestSerialization:
    def test_markovian_round_trip(self):
        model = phase_flip(0.06)
        back = noise_model_from_dict({"kind": "markovian",
                                      **{k: v for k, v in noise_model_to_dict(model).items()
                                         if k != "kind"}})
        for a, b in zip(model.bulk, back.bulk):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("model", [
        spin_unitary(1.2, 1.17, -1.15, 0.05),
        dataclasses.replace(spin_unitary(1.2, 1.17, -1.15, 0.05),
                            prep=(np.kron(HADAMARD, I2),), final=(np.kron(HADAMARD, I2),)),
        markovian_channel(KrausChannel(amplitude_damping(0.3).bulk),
                          final=KrausChannel(depolarizing(0.2).bulk)),
    ], ids=["spin", "spin_prep_final", "damping_final"])
    def test_joint_round_trip(self, model):
        back = noise_model_from_dict(json.loads(json.dumps(noise_model_to_dict(model))))
        assert back.d_env == model.d_env
        assert np.array_equal(back.rho_env, model.rho_env)
        for name in ("prep", "bulk", "final"):
            ours, theirs = getattr(model, name), getattr(back, name)
            assert len(ours) == len(theirs)
            assert all(np.array_equal(a, b) for a, b in zip(ours, theirs))

    def test_parametric_records(self):
        model = noise_model_from_dict({"kind": "phase_flip", "p": 0.06})
        assert abs(np.linalg.norm(model.bulk[1], 2) - np.sqrt(0.06)) < 1e-14
        # an integer is a valid real parameter, and the identity's dim defaults to 2
        assert noise_model_from_dict({"kind": "phase_flip", "p": 0}).label == "phase_flip(p=0.0)"
        assert noise_model_from_dict({"kind": "identity"}).d_sys == 2

    @pytest.mark.parametrize("record", [
        {"kind": "phase_flip", "p": True},
        {"kind": "phase_flip", "p": "0.1"},
        {"kind": "phase_flip", "p": float("nan")},
        {"kind": "amplitude_damping", "gamma": None},
        {"kind": "depolarizing", "p": [0.1]},
        {"kind": "identity", "dim": 2.9},
        {"kind": "identity", "dim": "2"},
        {"kind": "spin_unitary", "J": "J", "hx": 1.17, "hy": -1.15, "delta": 0.05},
        {"kind": "spin_unitary", "J": 1.2, "hx": 1.17, "hy": -1.15, "delta": float("inf")},
        {"kind": "spin_unitary", "J": 1.2, "hx": 1.17, "hy": -1.15},
        {"kind": "joint_unitary", "unitary": {"rows": 4, "cols": 4, "re": [0.0] * 16,
                                              "im": [0.0] * 16}},
        {"p": 0.1},
        ["phase_flip"],
        {"kind": "identity", "dim": -1},
        {"kind": "markovian", "kraus": 5},
        {"kind": "markovian", "kraus": [matrix_to_json_dict(I2)], "prep": 5},
        {"kind": "markovian", "kraus": [matrix_to_json_dict(I2)], "final": 5},
        {"kind": "joint_unitary", "unitary": matrix_to_json_dict(np.eye(4)),
         "rho_env": matrix_to_json_dict(basis_state(0, 2)), "d_env": 2, "prep": {"rows": 4}},
        {"kind": "markovian", "kraus": [matrix_to_json_dict(I2)], "label": 5},
        {"kind": "joint_unitary", "unitary": matrix_to_json_dict(np.eye(4)),
         "rho_env": matrix_to_json_dict(basis_state(0, 2)), "d_env": 2, "label": ["spin"]},
        # unknown fields, and fields the kind does not read
        {"kind": "markovian", "kraus": [matrix_to_json_dict(I2)],
         "fnal": [matrix_to_json_dict(I2)]},
        {"kind": "phase_flip", "p": 0.1, "gamma": 0.2},
        {"kind": "phase_flip", "p": 0.1, "label": "pf"},
        {"kind": "identity", "dim": 2, "final": [matrix_to_json_dict(I2)]},
        {"kind": "spin_unitary", "J": 1.2, "hx": 1.17, "hy": -1.15, "delta": 0.05, "prep": []},
        {"kind": ["phase_flip"], "p": 0.1},
    ])
    def test_mistyped_records_are_input_errors(self, record):
        with pytest.raises(InputError):
            noise_model_from_dict(record)

    def test_joint_record_rejects_fractional_d_env(self):
        d = noise_model_to_dict(spin_unitary(1.2, 1.17, -1.15, 0.05))
        with pytest.raises(InputError):
            noise_model_from_dict({**d, "d_env": 2.0})

    @pytest.mark.parametrize("d_env", [4, 1, 0, -1])
    def test_joint_record_d_env_must_be_rho_env_dim(self, tmp_path, capsys, d_env):
        # the record's d_env must be its 2 x 2 rho_env's dim: an input error, and
        # generate exits 1 on it
        record = {**noise_model_to_dict(spin_unitary(1.2, 1.17, -1.15, 0.05)), "d_env": d_env}
        with pytest.raises(InputError):
            noise_model_from_dict(record)
        cfg = tmp_path / "cfg.json"
        dump_json({"schema_version": 1, "kind": "rb_experiment", "seed": 1, "m_max": 3,
                   "n_samples": 5, "noise": record}, cfg)
        assert main(["generate", str(cfg), "-o", str(tmp_path / "out")]) == EXIT_INPUT
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("record", [
        noise_model_to_dict(markovian_channel(KrausChannel(amplitude_damping(0.3).bulk),
                                              final=KrausChannel(depolarizing(0.2).bulk))),
        noise_model_to_dict(dataclasses.replace(spin_unitary(1.2, 1.17, -1.15, 0.3),
                                                prep=(np.kron(HADAMARD, I2),))),
        {"kind": "identity"},
        {"kind": "phase_flip", "p": 0.06},
        {"kind": "amplitude_damping", "gamma": 0.3},
        {"kind": "depolarizing", "p": 0.1},
        {"kind": "spin_unitary", "J": 1.2, "hx": 1.17, "hy": -1.15, "delta": 0.3},
    ], ids=lambda record: record["kind"])
    def test_every_record_kind_feeds_every_consumer(self, record):
        # the simulator and the dense oracle take what the reader returns, unconverted
        noise = noise_model_from_dict(record)
        gates = [single_qubit_cliffords().gates[i] for i in (3, 17)]
        rho = basis_state(0, 2)
        f_run = run_sequence(noise, gates, rho, rho)
        f_dense = contract_asf_dense(noise, gates, rho, rho)
        assert abs(f_run - f_dense) < 1e-12
