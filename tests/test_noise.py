"""Noise model constructors and their invariants."""

import numpy as np
import pytest

from rbmpo.errors import DomainError, InputError
from rbmpo.noise import (
    amplitude_damping,
    depolarizing,
    hermitian_expm,
    phase_flip,
    spin_hamiltonian,
    spin_unitary,
)
from rbmpo.quantum import apply_channel, basis_state, dagger
from rbmpo.serialize import noise_model_from_dict, noise_model_to_dict


def kraus_completeness(channel):
    total = sum(dagger(k) @ k for k in channel.operators)
    return np.linalg.norm(total - np.eye(channel.dim))


class TestPhaseFlip:
    def test_kraus_norms_at_reference_rate(self):
        model = phase_flip(0.06)
        k0, k1 = model.channel.operators
        assert abs(np.linalg.norm(k0, 2) - np.sqrt(0.94)) < 1e-14
        assert abs(np.linalg.norm(k1, 2) - np.sqrt(0.06)) < 1e-14

    def test_zero_rate_is_identity(self):
        model = phase_flip(0.0)
        rho = np.array([[0.5, 0.3], [0.3, 0.5]], dtype=complex)
        assert np.allclose(apply_channel(model.channel, rho), rho)

    def test_half_rate_fully_dephases(self):
        model = phase_flip(0.5)
        plus = np.full((2, 2), 0.5, dtype=complex)
        out = apply_channel(model.channel, plus)
        assert abs(out[0, 1]) < 1e-14 and abs(out[1, 0]) < 1e-14

    def test_domain(self):
        with pytest.raises(DomainError):
            phase_flip(-0.1)
        with pytest.raises(DomainError):
            phase_flip(1.1)


class TestAmplitudeDamping:
    def test_zero_is_identity(self):
        rho = np.array([[0.2, 0.1j], [-0.1j, 0.8]], dtype=complex)
        assert np.allclose(apply_channel(amplitude_damping(0.0).channel, rho), rho)

    def test_full_damping_resets(self):
        rho = np.array([[0.2, 0.1j], [-0.1j, 0.8]], dtype=complex)
        out = apply_channel(amplitude_damping(1.0).channel, rho)
        assert np.allclose(out, basis_state(0, 2), atol=1e-14)

    def test_completeness(self):
        assert kraus_completeness(amplitude_damping(0.3).channel) < 1e-12


class TestDepolarizing:
    def test_zero_is_identity(self):
        rho = np.array([[0.7, 0.2], [0.2, 0.3]], dtype=complex)
        assert np.allclose(apply_channel(depolarizing(0.0).channel, rho), rho)

    def test_full_depolarizing_mixes(self):
        out = apply_channel(depolarizing(1.0).channel, basis_state(0, 2))
        assert np.allclose(out, np.eye(2) / 2, atol=1e-14)

    def test_completeness(self):
        assert kraus_completeness(depolarizing(0.1).channel) < 1e-10

    def test_convex_action(self):
        p = 0.37
        rho = np.array([[0.6, 0.1 - 0.2j], [0.1 + 0.2j, 0.4]])
        out = apply_channel(depolarizing(p).channel, rho)
        assert np.allclose(out, (1 - p) * rho + p * np.eye(2) / 2, atol=1e-12)


class TestSpinUnitary:
    PARAMS = dict(coupling=1.2, field_x=1.17, field_y=-1.15, delta=0.05)

    def test_unitary_at_reference_parameters(self):
        model = spin_unitary(**self.PARAMS)
        u = model.unitary
        assert np.linalg.norm(dagger(u) @ u - np.eye(4)) < 1e-12
        assert model.d_env == 2
        assert np.allclose(model.rho_env, basis_state(0, 2))

    def test_adjoint_reverses_time(self):
        model = spin_unitary(**self.PARAMS)
        h = spin_hamiltonian(1.2, 1.17, -1.15)
        reverse = hermitian_expm(h, +1j * 0.05)
        assert np.linalg.norm(dagger(model.unitary) - reverse) < 1e-12

    def test_one_parameter_group(self):
        u1 = spin_unitary(1.2, 1.17, -1.15, 0.05).unitary
        u2 = spin_unitary(1.2, 1.17, -1.15, 0.10).unitary
        assert np.linalg.norm(u1 @ u1 - u2) < 1e-12

    def test_small_delta_near_identity(self):
        delta = 1e-6
        u = spin_unitary(1.2, 1.17, -1.15, delta).unitary
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
        for a, b in zip(model.channel.operators, back.channel.operators):
            assert np.array_equal(a, b)

    def test_joint_round_trip(self):
        model = spin_unitary(1.2, 1.17, -1.15, 0.05)
        back = noise_model_from_dict(noise_model_to_dict(model))
        assert np.array_equal(back.unitary, model.unitary)
        assert np.array_equal(back.rho_env, model.rho_env)
        assert back.d_env == 2

    def test_parametric_records(self):
        model = noise_model_from_dict({"kind": "phase_flip", "p": 0.06})
        assert abs(np.linalg.norm(model.channel.operators[1], 2) - np.sqrt(0.06)) < 1e-14
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
    ])
    def test_mistyped_records_are_input_errors(self, record):
        with pytest.raises(InputError):
            noise_model_from_dict(record)

    def test_joint_record_rejects_fractional_d_env(self):
        d = noise_model_to_dict(spin_unitary(1.2, 1.17, -1.15, 0.05))
        with pytest.raises(InputError):
            noise_model_from_dict({**d, "d_env": 2.0})
