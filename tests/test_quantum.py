"""Clifford group enumeration, gate sampling, inverse compilation, channels."""

import numpy as np
import pytest

from rbmpo.average import clifford_averaged_asf_curve
from rbmpo.errors import InputError
from rbmpo.learner import LearnerConfig, train
from rbmpo.linalg import unitarity_defect
from rbmpo.noise import UNITARITY_TOL, joint_unitary, phase_flip
from rbmpo.quantum import (HADAMARD, I2, PHASE_S, GateSet, KrausChannel, apply_channel,
                           basis_state, compile_undo, dagger, equal_up_to_phase, fix_global_phase,
                           sample_sequence, single_qubit_cliffords, validate_density_matrix,
                           validate_povm_element, validate_unitary)
from rbmpo.rb import AsfCurve, ExperimentConfig, run_sequence


class TestCliffordGroup:
    def test_count_is_24(self, cliffords):
        assert len(cliffords) == 24

    def test_pairwise_distinct_up_to_phase(self, cliffords):
        gates = cliffords.gates
        for i in range(24):
            for j in range(i + 1, 24):
                assert not equal_up_to_phase(gates[i], gates[j])

    def test_exhaustive_closure(self, cliffords):
        gates = cliffords.gates
        for a in gates:
            for b in gates:
                prod = a @ b
                assert any(equal_up_to_phase(prod, g, tol=1e-10) for g in gates)

    def test_inverses_present(self, cliffords):
        for g in cliffords.gates:
            assert any(equal_up_to_phase(dagger(g), h) for h in cliffords.gates)

    def test_contains_generators(self, cliffords):
        for target in (I2, HADAMARD, PHASE_S):
            assert any(equal_up_to_phase(target, g) for g in cliffords.gates)

    def test_flagged_as_two_design(self, cliffords):
        assert cliffords.is_two_design


class TestSampling:
    def test_singleton_set(self):
        gs = GateSet(gates=(HADAMARD,), label="h_only")
        rng = np.random.default_rng(0)
        seq = sample_sequence(gs, 5, rng)
        assert len(seq) == 5
        assert all(np.array_equal(g, HADAMARD) for g in seq)

    def test_seeded_determinism(self, cliffords):
        a = sample_sequence(cliffords, 50, np.random.default_rng(123))
        b = sample_sequence(cliffords, 50, np.random.default_rng(123))
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_uniform_frequencies(self, cliffords):
        rng = np.random.default_rng(1)
        draws = 24000
        seq = sample_sequence(cliffords, draws, rng)
        keys = [tuple(np.round(g.ravel(), 8)) for g in cliffords.gates]
        index = {k: i for i, k in enumerate(keys)}
        counts = np.zeros(24)
        for g in seq:
            counts[index[tuple(np.round(g.ravel(), 8))]] += 1
        p = 1.0 / 24.0
        sigma = np.sqrt(draws * p * (1 - p))
        assert np.all(np.abs(counts - draws * p) <= 5 * sigma)

    def test_errors(self, cliffords):
        with pytest.raises(InputError):
            sample_sequence(cliffords, 0, np.random.default_rng(0))


class TestCompileUndo:
    def test_hadamard_self_inverse(self):
        assert np.linalg.norm(compile_undo([HADAMARD]) - HADAMARD) < 1e-12

    def test_two_gate_sequence(self):
        undo = compile_undo([PHASE_S, HADAMARD])
        assert np.linalg.norm(undo - dagger(HADAMARD @ PHASE_S)) < 1e-12

    def test_random_sequence_inverts_to_phase(self, cliffords):
        rng = np.random.default_rng(2)
        gates = sample_sequence(cliffords, 10, rng)
        undo = compile_undo(gates)
        prod = np.eye(2, dtype=complex)
        for g in gates:
            prod = g @ prod
        total = undo @ prod
        phase = total[0, 0]
        assert abs(abs(phase) - 1) < 1e-10
        assert np.linalg.norm(total - phase * np.eye(2)) < 1e-10

    def test_channel_level_identity(self, cliffords):
        # immune to the global phase: the composed map acts as identity on states
        rng = np.random.default_rng(3)
        gates = sample_sequence(cliffords, 6, rng)
        undo = compile_undo(gates)
        z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        rho = z @ dagger(z)
        rho /= np.trace(rho)
        out = rho
        for g in list(gates) + [undo]:
            out = g @ out @ dagger(g)
        assert np.linalg.norm(out - rho) < 1e-10

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            compile_undo([])

    def test_stack_equals_per_sequence(self, cliffords):
        rng = np.random.default_rng(901)
        stack = np.stack(cliffords.gates)[rng.integers(0, 24, size=(4, 7, 5))]
        undo = compile_undo(stack)
        assert undo.shape == (4, 7, 2, 2)
        for idx in np.ndindex(4, 7):
            assert np.array_equal(undo[idx], compile_undo(list(stack[idx])))


class TestApplyChannel:
    def test_identity_channel(self):
        ch = KrausChannel((np.eye(2, dtype=complex),))
        rho = basis_state(0, 2)
        assert np.array_equal(apply_channel(ch, rho), rho)

    def test_phase_flip_scales_coherence(self):
        p = 0.06
        ch = KrausChannel(phase_flip(p).bulk)
        plus = np.full((2, 2), 0.5, dtype=complex)
        out = apply_channel(ch, plus)
        # independent 2x2 arithmetic: off-diagonals scale by 1 - 2p
        assert abs(out[0, 1] - 0.5 * (1 - 2 * p)) < 1e-14
        assert abs(out[0, 0] - 0.5) < 1e-14

    @pytest.mark.parametrize("seed", range(3))
    def test_preserves_state_validity(self, seed):
        rng = np.random.default_rng(600 + seed)
        z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        rho = z @ dagger(z)
        rho /= np.trace(rho)
        out = apply_channel(KrausChannel(phase_flip(0.3).bulk), rho)
        validate_density_matrix(out)
        assert abs(np.trace(out) - 1) < 1e-12

    def test_kraus_completeness_enforced(self):
        with pytest.raises(InputError):
            KrausChannel((0.5 * np.eye(2, dtype=complex),))


def _with_nan(m, row, col):
    m = np.array(m, dtype=complex)
    m[row, col] = np.nan
    return m


ZERO = basis_state(0, 2)

#: Each entry is an invalid (rho_sys, povm) pair for a qubit model.
BAD_PAIRS = {
    "non_hermitian_rho": (np.array([[0.5, 0.9], [0.1, 0.5]], dtype=complex), ZERO),
    "negative_rho": (np.diag([1 + 1e-9, -1e-9]).astype(complex), ZERO),
    "rho_trace_above_1": (np.diag([0.5 + 1e-9, 0.5]).astype(complex), ZERO),
    "povm_2_identity": (ZERO, 2 * I2),
    "qutrit_rho": (basis_state(0, 3), ZERO),
    "qutrit_pair": (basis_state(0, 3), basis_state(0, 3)),
}

#: The entry points that read an experiment's (rho_sys, povm) pair, on a qubit model.
PAIR_ENTRY_POINTS = {
    "experiment_config": lambda rho, povm: ExperimentConfig(phase_flip(0.06), 3, 2, 0,
                                                            rho_sys=rho, povm=povm),
    "closed_form": lambda rho, povm: clifford_averaged_asf_curve(phase_flip(0.06), rho, povm, 3),
    "train": lambda rho, povm: train(AsfCurve((1, 2), (0.9, 0.8), (0.01, 0.01), 10), rho, povm,
                                     LearnerConfig()),
    "run_sequence": lambda rho, povm: run_sequence(phase_flip(0.06), [HADAMARD, PHASE_S], rho,
                                                   povm),
}


class TestValidators:
    # a NaN defect compares false with any tolerance, so a check written
    # as `defect > tol` accepts a NaN matrix
    @pytest.mark.parametrize("check, matrix", [
        (validate_unitary, _with_nan(I2, 0, 1)),
        (validate_density_matrix, _with_nan(basis_state(0, 2), 1, 1)),
        (validate_povm_element, _with_nan(basis_state(0, 2), 0, 0)),
        (lambda m: KrausChannel((m,)), _with_nan(I2, 1, 0)),
        (lambda m: joint_unitary(m, basis_state(0, 2)), _with_nan(np.eye(4), 2, 1)),
        (lambda m: joint_unitary(np.eye(4), m), _with_nan(basis_state(0, 2), 0, 1)),
    ], ids=["unitary", "density_matrix", "povm_element", "kraus", "joint_unitary", "rho_env"])
    def test_nan_entry_rejected(self, check, matrix):
        with pytest.raises(InputError):
            check(matrix)

    @pytest.mark.parametrize("entry, pair", [
        (entry, pair) for entry in PAIR_ENTRY_POINTS for pair in BAD_PAIRS
        # train has no model, so a qutrit pair is a valid input there
        if (entry, pair) != ("train", "qutrit_pair")])
    def test_invalid_state_or_povm_is_input_error(self, entry, pair):
        with pytest.raises(InputError):
            PAIR_ENTRY_POINTS[entry](*BAD_PAIRS[pair])

    def test_node_tolerance_is_the_boundary(self):
        # diag(1 + delta, 1, 1, 1) has defect (1 + delta)^2 - 1, about 2 delta
        under, over = (np.diag([1.0 + delta, 1.0, 1.0, 1.0]).astype(complex)
                       for delta in (0.45 * UNITARITY_TOL, 0.55 * UNITARITY_TOL))
        assert unitarity_defect(under) < UNITARITY_TOL < unitarity_defect(over)
        validate_unitary(under, tol=UNITARITY_TOL)
        joint_unitary(under, basis_state(0, 2))
        with pytest.raises(InputError, match="not unitary"):
            validate_unitary(over, tol=UNITARITY_TOL)
        with pytest.raises(InputError, match="not unitary"):
            joint_unitary(over, basis_state(0, 2))


def test_fix_global_phase_is_canonical():
    rng = np.random.default_rng(4)
    u = single_qubit_cliffords().gates[7]
    phased = np.exp(1j * rng.uniform(0, 2 * np.pi)) * u
    assert np.linalg.norm(fix_global_phase(phased) - fix_global_phase(u)) < 1e-12
