"""Dense process-tensor oracle and the joint-node coefficient machinery."""

import dataclasses

import numpy as np
import pytest

from rbmpo.average import NoiseSteps, clifford_averaged_asf
from rbmpo.errors import ResourceLimitError
from rbmpo.noise import amplitude_damping, depolarizing, joint_unitary
from rbmpo.process_tensor import (
    DENSE_ORACLE_MAX_M,
    asf_joint_coefficient,
    asf_with_joint_node,
    contract_asf_dense,
    contract_asf_dense_averaged,
    dense_noise_tensor,
    joint_node,
)
from rbmpo.quantum import basis_state, sample_sequence, single_qubit_cliffords
from rbmpo.rb import run_sequence

RHO = basis_state(0, 2)
POVM = basis_state(0, 2)


def haar_unitary(n, rng):
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_model(rng):
    return joint_unitary(haar_unitary(4, rng), basis_state(0, 2), 2)


@pytest.fixture(scope="module")
def cliffords():
    return single_qubit_cliffords()


class TestDenseOracle:
    def test_identity_nodes_ideal_spam(self, cliffords):
        steps = NoiseSteps.uniform(np.eye(4, dtype=complex), 2)
        rng = np.random.default_rng(0)
        gates = sample_sequence(cliffords, 2, rng)
        assert abs(contract_asf_dense(steps, gates, RHO, POVM) - 1.0) < 1e-12

    @pytest.mark.parametrize(
        "m, variant",
        [(1, None), (2, None), (3, None), (1, "spam"), (2, "spam"), (2, "ad"), (3, "ad-final")],
        ids=["1", "2", "3", "1-spam", "2-spam", "2-ad", "3-ad-final"])
    def test_agrees_with_direct_evolution(self, cliffords, m, variant):
        rng = np.random.default_rng(1200 + m)
        if variant == "ad":
            model = amplitude_damping(0.3)
        elif variant == "ad-final":
            model = dataclasses.replace(amplitude_damping(0.3), final=depolarizing(0.2).bulk)
        else:
            model = random_model(rng)
        if variant == "spam":
            model = dataclasses.replace(model, prep=(haar_unitary(4, rng),),
                                        final=(haar_unitary(4, rng),))
        gates = sample_sequence(cliffords, m, rng)
        f_dense = contract_asf_dense(model, gates, RHO, POVM)
        f_run = run_sequence(model, gates, RHO, POVM)
        assert abs(f_dense - f_run) < 1e-12

    def test_cap_is_enforced_and_named(self, cliffords):
        rng = np.random.default_rng(2)
        steps = random_model(rng)
        gates = sample_sequence(cliffords, DENSE_ORACLE_MAX_M + 1, rng)
        with pytest.raises(ResourceLimitError, match=str(DENSE_ORACLE_MAX_M)):
            contract_asf_dense(steps, gates, RHO, POVM)

    def test_dense_tensors_have_expected_rank(self):
        rng = np.random.default_rng(3)
        steps = random_model(rng)
        ups = dense_noise_tensor(steps, 1)
        assert ups.shape == (2,) * 12  # 4(m+2) legs at m=1

    @pytest.mark.parametrize(
        "m, variant",
        [(m, v) for v in (None, "ad-final", "spam") for m in (1, 2, 3)],
        ids=[f"{m}{'-' + v if v else ''}" for v in (None, "ad-final", "spam") for m in (1, 2, 3)])
    def test_averaged_dense_matches_closed_form(self, m, variant):
        # the Kraus slots share one index per slot; the spam model's raw
        # preparation and final slots are Haar unitaries of their own
        rng = np.random.default_rng(1300 + m)
        if variant == "ad-final":
            model = dataclasses.replace(amplitude_damping(0.3), final=depolarizing(0.2).bulk)
        else:
            model = random_model(rng)
        if variant == "spam":
            model = dataclasses.replace(model, prep=(haar_unitary(4, rng),),
                                        final=(haar_unitary(4, rng),))
        dense = contract_asf_dense_averaged(model, m, RHO, POVM)
        exact = clifford_averaged_asf(model, RHO, POVM, m)
        assert abs(dense - exact) < 1e-10


class TestJointCoefficient:
    def test_joint_grouping_matches_loop_oracle(self):
        # fusing two nodes over their bond, then grouping (e_up s s')(e_dn t t'),
        # must reproduce an index-by-index loop
        rng = np.random.default_rng(7)
        a, b = (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)) for _ in range(2))
        fused = joint_node(a, b, 2, 2).reshape(8, 8)
        a4, b4 = a.reshape(2, 2, 2, 2), b.reshape(2, 2, 2, 2)
        for eu in range(2):
            for si in range(2):
                for sip in range(2):
                    for ed in range(2):
                        for sj in range(2):
                            for sjp in range(2):
                                expected = sum(
                                    a4[eu, si, e, sip] * b4[e, sj, ed, sjp] for e in range(2)
                                )
                                row = (eu * 2 + si) * 2 + sip
                                col = (ed * 2 + sj) * 2 + sjp
                                assert abs(fused[row, col] - expected) < 1e-14

    def test_full_contraction_reproduces_average(self):
        rng = np.random.default_rng(4)
        lam = haar_unitary(4, rng)
        steps = NoiseSteps.uniform(lam, 2)
        joint = joint_node(lam, lam, 2, 2)
        for n in (1, 2, 5):
            f_ref = clifford_averaged_asf(steps, RHO, POVM, n)
            for slot in range(1, n + 2):
                coeff = asf_joint_coefficient(steps, slot, {n: 1.0}, RHO, POVM)
                f_via = float(np.real(np.sum(joint * np.conj(coeff))))
                assert abs(f_via - f_ref) < 1e-10, (n, slot)

    def test_identity_nodes_unit_fidelity(self):
        steps = NoiseSteps.uniform(np.eye(4, dtype=complex), 2)
        coeff = asf_joint_coefficient(steps, 1, {1: 1.0}, RHO, POVM)
        joint = joint_node(np.eye(4), np.eye(4), 2, 2)
        assert abs(np.sum(joint * np.conj(coeff)) - 1.0) < 1e-12

    def test_linearity_superposition(self):
        rng = np.random.default_rng(5)
        steps = NoiseSteps.uniform(haar_unitary(4, rng), 2)
        shape = (2, 2, 2, 2, 2, 2)
        l1 = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        l2 = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        f = lambda L: asf_with_joint_node(steps, 2, 3, RHO, POVM, L)
        zero = np.zeros(shape)
        residual = f(l1 + l2) - f(l1) - f(l2) + f(zero)
        assert abs(residual) < 1e-12
        assert abs(f(zero)) < 1e-12

    def test_linear_path_matches_coefficient(self):
        rng = np.random.default_rng(6)
        steps = NoiseSteps.uniform(haar_unitary(4, rng), 2)
        coeff = asf_joint_coefficient(steps, 2, {4: 1.0}, RHO, POVM)
        shape = (2, 2, 2, 2, 2, 2)
        probe = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        linear = asf_with_joint_node(steps, 2, 4, RHO, POVM, probe)
        assert abs(linear - np.sum(probe * np.conj(coeff))) < 1e-12

    def test_single_entry_perturbation(self):
        # perturbing one entry of the joint node changes the linear fidelity
        # by exactly h times the conjugated coefficient entry
        rng = np.random.default_rng(7)
        lam = haar_unitary(4, rng)
        steps = NoiseSteps.uniform(lam, 2)
        coeff = asf_joint_coefficient(steps, 3, {4: 1.0}, RHO, POVM)
        base = joint_node(lam, lam, 2, 2)
        h = 1e-5
        idx = (1, 0, 1, 0, 1, 1)
        probe = np.zeros_like(base)
        probe[idx] = 1.0
        f = lambda L: asf_with_joint_node(steps, 3, 4, RHO, POVM, L)
        fd = (f(base + h * probe) - f(base - h * probe)) / (2 * h)
        rel = abs(fd - np.conj(coeff[idx])) / max(abs(coeff[idx]), 1e-12)
        assert rel < 1e-6

    def test_coefficient_independent_of_freed_node_values(self):
        # the coefficient is defined by the surrounding contraction only:
        # finite differences of the linear path about two different base
        # points give the same tensor
        rng = np.random.default_rng(8)
        steps = NoiseSteps.uniform(haar_unitary(4, rng), 2)
        shape = (2, 2, 2, 2, 2, 2)
        base_a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        base_b = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        f = lambda L: asf_with_joint_node(steps, 2, 2, RHO, POVM, L)
        probe = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        diff_a = f(base_a + probe) - f(base_a)
        diff_b = f(base_b + probe) - f(base_b)
        assert abs(diff_a - diff_b) < 1e-12

    def test_physical_evaluation_at_model_point(self):
        rng = np.random.default_rng(9)
        lam = haar_unitary(4, rng)
        steps = NoiseSteps.uniform(lam, 2)
        joint = joint_node(lam, lam, 2, 2)
        value = asf_with_joint_node(steps, 2, 3, RHO, POVM, joint, joint)
        assert isinstance(value, float)
        assert abs(value - clifford_averaged_asf(steps, RHO, POVM, 3)) < 1e-12
