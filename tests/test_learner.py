"""Sweeping learner: cost, gradient, split/project pipeline, training, diagnosis."""

import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from rbmpo.average import NoiseSteps, _lockstep, clifford_averaged_asf_curve
from rbmpo.errors import DomainError, InputError, NumericalError, ShapeError
from rbmpo.learner import (Adagrad, Adam, LearnerConfig, cost, diagnose_markovianity, evaluate,
                           gradient_joint, predicted_curve, replacement_node, saddle_departure,
                           split_truncate, sweep_iteration, train)
from rbmpo.linalg import dagger, unitarity_defect
from rbmpo.noise import hermitian_expm, kraus_stack, phase_flip, spin_unitary
import rbmpo.learner as learner_mod
import rbmpo.process_tensor as process_tensor_mod
from rbmpo.process_tensor import asf_joint_coefficient, joint_node
from rbmpo.quantum import PAULI_X, basis_state
from rbmpo.rb import AsfCurve, ExperimentConfig, estimate_asf
from rbmpo.selfcheck import haar_unitary, joint_gradient_fd

RHO = basis_state(0, 2)
POVM = basis_state(0, 2)


def model_curve(node, m_max):
    vals = predicted_curve(node, 2, RHO, POVM, tuple(range(1, m_max + 1)))
    return AsfCurve(tuple(range(1, m_max + 1)), tuple(float(v) for v in vals), (0.0,) * m_max, 1)


def rotation(theta):
    """An uncoupled node: exp(-i theta X) on the system, nothing on the environment."""
    return np.kron(np.eye(2), hermitian_expm(PAULI_X, -1j * theta))


def probe_directions(dim):
    """The probe's +-H directions as the tensordot of their 0/+-1 coefficients with the basis."""
    basis = learner_mod._hermitian_basis(dim)
    unit = np.eye(len(basis))
    j, k = np.triu_indices(len(basis), 1)
    coeffs = np.concatenate([unit, unit[j] + unit[k]])
    return np.tensordot(np.stack([coeffs, -coeffs], axis=1).reshape(-1, len(basis)), basis, axes=1)


#: The BLAS library numpy was built against, as its build configuration names it.
BLAS_NAME = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]

#: Prints the CPU ticks that the threads other than the main one spend over one
#: dim-4 probe and the 0.3 s after it, 0.5 s after start-up.
BLAS_WORKER_CHILD = """
import os, threading, time
import numpy as np
from rbmpo.learner import _tangent_probe, cost
from rbmpo.quantum import basis_state
from rbmpo.rb import AsfCurve

def ticks():
    total = 0
    for task in os.listdir("/proc/self/task"):
        if int(task) != threading.get_native_id():
            with open(f"/proc/self/task/{task}/stat") as stat:
                fields = stat.read().rsplit(")", 1)[1].split()
            total += int(fields[11]) + int(fields[12])  # utime, stime
    return total

rho = basis_state(0, 2)
data = AsfCurve(tuple(range(1, 21)), tuple(0.5 + 0.5 * 0.99 ** m for m in range(1, 21)),
                (0.01,) * 20, 100)
node = np.eye(4, dtype=complex)
c0 = cost(node, 2, data, rho, rho)
time.sleep(0.5)
before = ticks()
_tangent_probe(node, c0, 2, data, rho, rho)
time.sleep(0.3)
print(ticks() - before)
"""


@pytest.fixture(scope="module")
def phase_flip_data():
    cfg = ExperimentConfig(noise=phase_flip(0.06), m_max=20, n_samples=100, seed=2024)
    return estimate_asf(cfg)


class TestCost:
    def test_zero_when_matched(self):
        rng = np.random.default_rng(0)
        lam = haar_unitary(4, rng)
        data = model_curve(lam, 6)
        assert cost(lam, 2, data, RHO, POVM) < 1e-24

    def test_identity_against_constant_curve(self):
        # identity node predicts 1 everywhere; data at 0.9 over 10 lengths
        data = AsfCurve(tuple(range(1, 11)), (0.9,) * 10, (0.0,) * 10, 1)
        value = cost(np.eye(4, dtype=complex), 2, data, RHO, POVM)
        assert abs(value - 0.5 * 10 * 0.01) < 1e-12

    def test_matches_literal_loop(self):
        rng = np.random.default_rng(1)
        lam = haar_unitary(4, rng)
        data = AsfCurve((1, 2, 3, 5), tuple(rng.uniform(0.4, 1.0, 4)), (0.0,) * 4, 1)
        total = 0.0
        for n, f_exp in zip(data.lengths, data.means):
            f = clifford_averaged_asf_curve(NoiseSteps.uniform(lam, 2), RHO, POVM, n)[-1]
            total += 0.5 * (f - f_exp) ** 2
        assert abs(cost(lam, 2, data, RHO, POVM) - total) < 1e-14


class TestOptimizers:
    def test_adagrad_first_step(self):
        # an epsilon near |g|^2, so that epsilon added to the root shows
        cfg = Adagrad(rate=1e-5, epsilon=0.5)
        acc = cfg.init((2, 2))
        g = np.array([[1.0 + 1j, -2.0], [0.5j, 3.0]], dtype=complex)
        update = cfg.step(acc, g)
        expected = cfg.rate * g / np.sqrt(np.abs(g) ** 2 + cfg.epsilon)
        assert np.allclose(update, expected, rtol=1e-12, atol=1e-18)

    def test_adagrad_zero_gradient(self):
        cfg = Adagrad(rate=1e-5)
        acc = cfg.init((2,))
        before = acc["sq_sum"].copy()
        update = cfg.step(acc, np.zeros(2, dtype=complex))
        assert np.all(update == 0.0)
        assert np.array_equal(acc["sq_sum"], before)

    def test_adam_first_step_magnitude(self):
        cfg = Adam(rate=1e-3, beta1=0.9, beta2=0.99)
        acc = cfg.init((1,))
        g = np.array([1.0 + 0j])
        update = cfg.step(acc, g)
        assert abs(abs(update[0]) - cfg.rate) < cfg.rate * 1e-4

    def test_shape_mismatch(self):
        cfg = Adagrad()
        acc = cfg.init((2,))
        with pytest.raises(ShapeError):
            cfg.step(acc, np.zeros((3,), dtype=complex))


class TestSplitProject:
    @pytest.mark.parametrize("d_env", [1, 2, 3])
    def test_exact_split_of_unitary_pair(self, d_env):
        rng = np.random.default_rng(2)
        a, b = haar_unitary(2 * d_env, rng), haar_unitary(2 * d_env, rng)
        joint = joint_node(a, b, d_env)
        upper, lower = split_truncate(joint)
        assert upper.shape == lower.shape == a.shape
        recon = joint_node(upper, lower, d_env)
        assert np.linalg.norm(recon - joint) < 1e-12

    def test_eckart_young_truncation_error(self):
        rng = np.random.default_rng(3)
        mat = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        upper, lower = split_truncate(mat.reshape((2,) * 6))
        recon = joint_node(upper, lower, 2).reshape(8, 8)
        s = np.linalg.svd(mat, compute_uv=False)
        discarded = float(np.sum(s[2:] ** 2))
        assert abs(np.linalg.norm(mat - recon) ** 2 - discarded) < 1e-10

    def test_rank_two_input_zero_error(self):
        rng = np.random.default_rng(4)
        mat = np.outer(rng.standard_normal(8), rng.standard_normal(8)) + 1j * np.outer(
            rng.standard_normal(8), rng.standard_normal(8)
        )
        # force rank exactly 2
        u, s, vh = np.linalg.svd(mat)
        mat = (u[:, :2] * s[:2]) @ vh[:2]
        upper, lower = split_truncate(mat.reshape((2,) * 6))
        recon = joint_node(upper, lower, 2).reshape(8, 8)
        assert np.linalg.norm(recon - mat) < 1e-10

    def test_replacement_node_restores_shared_node(self):
        # splitting the unperturbed joint of a shared node and recombining
        # must hand back that node
        rng = np.random.default_rng(8)
        lam = haar_unitary(4, rng)
        upper, lower = split_truncate(joint_node(lam, lam, 2))
        lam_back = replacement_node(upper, lower, near=lam)
        assert np.linalg.norm(lam_back - lam) < 1e-10

    def test_replacement_node_ignores_bond_unitaries(self):
        # a unitary W on the bond of the split factors changes neither the
        # joint node nor the replacement node, so neither depends on the
        # SVD's choice of singular-vector phases
        for seed in range(20):
            rng = np.random.default_rng(1500 + seed)
            lam = haar_unitary(4, rng)
            noise = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
            upper, lower = split_truncate(joint_node(lam, lam, 2) + 0.01 * noise.reshape((2,) * 6))
            w = np.kron(haar_unitary(2, rng), np.eye(2))
            moved = joint_node(upper @ w, dagger(w) @ lower, 2) - joint_node(upper, lower, 2)
            assert np.linalg.norm(moved) < 1e-12
            turned = replacement_node(upper @ w, dagger(w) @ lower, near=lam)
            assert np.linalg.norm(turned - replacement_node(upper, lower, near=lam)) < 1e-12


class TestGradient:
    def test_zero_residual_zero_gradient(self):
        rng = np.random.default_rng(9)
        lam = haar_unitary(4, rng)
        data = model_curve(lam, 4)
        grad = gradient_joint(evaluate(lam, 2, data, RHO, POVM), 2, data, RHO, POVM, 2)
        assert np.abs(grad).max() < 1e-12

    @pytest.mark.parametrize("d_env", [1, 2, 3])
    @pytest.mark.parametrize("slot", [1, 3, 5])
    def test_matches_finite_differences(self, slot, d_env):
        rng = np.random.default_rng(1400 + slot)
        lam = haar_unitary(2 * d_env, rng)
        m_max = 4
        data = AsfCurve(
            tuple(range(1, m_max + 1)),
            tuple(float(x) for x in rng.uniform(0.6, 1.0, m_max)),
            (0.0,) * m_max,
            100,
        )
        grad = gradient_joint(evaluate(lam, d_env, data, RHO, POVM), d_env, data, RHO, POVM, slot)
        # environment indices 0 and d_env - 1, so every entry exists at d_env 1
        e = d_env - 1
        for idx in [(0, 0, 0, 0, 0, 0), (e, 1, 0, 0, 1, 0), (0, 1, 1, e, 0, 1)]:
            fd = joint_gradient_fd(lam, data, slot, idx, RHO, POVM)
            assert abs(grad[idx] - fd) / max(abs(fd), 1e-10) < 1e-6

    def test_early_lengths_do_not_contribute(self):
        # for the pair (slot, slot-1), curve points with n < slot-1 carry no
        # dependence on the pair: truncating them changes nothing
        rng = np.random.default_rng(10)
        lam = haar_unitary(4, rng)
        full = AsfCurve((1, 2, 3, 4, 5), tuple(rng.uniform(0.5, 1.0, 5)), (0.0,) * 5, 1)
        tail = AsfCurve((4, 5), full.means[3:], (0.0,) * 2, 1)
        g_full = gradient_joint(evaluate(lam, 2, full, RHO, POVM), 2, full, RHO, POVM, 5)
        g_tail = gradient_joint(evaluate(lam, 2, tail, RHO, POVM), 2, tail, RHO, POVM, 5)
        assert np.allclose(g_full, g_tail, atol=1e-12)

    def test_slot_out_of_range(self):
        data = AsfCurve((1, 2), (0.9, 0.8), (0.0, 0.0), 1)
        fit = evaluate(np.eye(4, dtype=complex), 2, data, RHO, POVM)
        with pytest.raises(InputError):
            gradient_joint(fit, 2, data, RHO, POVM, 4)

    @pytest.mark.parametrize("lengths", [tuple(range(1, 21)), (2, 5, 9, 13)])
    def test_matches_per_length_coefficients(self, lengths):
        # the one-pass gradient equals the residual-weighted sum of the
        # single-length coefficients, at every slot, the raw boundary slots included
        rng = np.random.default_rng(15)
        lam = haar_unitary(4, rng)
        data = AsfCurve(lengths, tuple(rng.uniform(0.5, 1.0, len(lengths))),
                        (0.0,) * len(lengths), 1)
        steps = NoiseSteps.uniform(lam, 2)
        stack = kraus_stack(steps.bulk, 2)
        resid = predicted_curve(lam, 2, RHO, POVM, lengths) - np.asarray(data.means)
        fit = evaluate(lam, 2, data, RHO, POVM)
        for slot in range(1, max(lengths) + 2):
            ref = sum(-r * asf_joint_coefficient(steps, slot, {n: 1.0}, RHO, POVM, (stack, stack))
                      for n, r in zip(lengths, resid) if n >= slot - 1)
            grad = gradient_joint(fit, 2, data, RHO, POVM, slot)
            assert np.linalg.norm(grad - ref) <= 1e-13 * np.linalg.norm(ref), slot

    def test_work_is_linear_in_length(self, monkeypatch):
        # one coefficient call per gradient, and a number of sector-map and
        # pairing calls that does not grow with m_max (the bulk powers are
        # matrix products on the two-sector chain)
        counts = Counter()
        for module, name, key in ((process_tensor_mod, "sector_maps", "kernel"),
                                  (process_tensor_mod, "sector_pairs", "kernel"),
                                  (learner_mod, "asf_joint_coefficient", "coefficients")):
            monkeypatch.setattr(module, name, lambda *args, fn=getattr(module, name), key=key:
                                counts.update([key]) or fn(*args))
        rng = np.random.default_rng(16)
        lam = haar_unitary(4, rng)
        peak = {}
        for m_max in (5, 20):
            data = AsfCurve(tuple(range(1, m_max + 1)), tuple(rng.uniform(0.5, 1.0, m_max)),
                            (0.0,) * m_max, 1)
            fit = evaluate(lam, 2, data, RHO, POVM)
            per_gradient = []
            for slot in range(1, m_max + 2):
                counts.clear()
                gradient_joint(fit, 2, data, RHO, POVM, slot)
                assert counts["coefficients"] == 1 and counts["kernel"] > 0, slot
                per_gradient.append(counts["kernel"])
            peak[m_max] = max(per_gradient)
        assert peak[5] == peak[20] <= 5, peak


class TestSweep:
    def test_zero_residual_is_stationary(self):
        rng = np.random.default_rng(11)
        lam = haar_unitary(4, rng)
        data = model_curve(lam, 4)
        config = LearnerConfig(optimizer=Adagrad(rate=1e-5))
        acc = config.optimizer.init((2, 2, 2, 2, 2, 2))
        node = sweep_iteration(evaluate(lam.copy(), 2, data, RHO, POVM), acc, 0, data, RHO, POVM,
                               config)
        assert np.array_equal(node, lam)
        assert cost(node, 2, data, RHO, POVM) < 1e-20

    def test_descends_from_half_fitted_node(self, phase_flip_data):
        # from a partially fitted node (signal-dominated gradient), sweeps
        # lower the cost monotonically
        from rbmpo.linalg import principal_unitary_sqrt

        node = saddle_departure(np.eye(4, dtype=complex), 2, phase_flip_data,
                                RHO, POVM, max_rounds=1, l1_stop=0.0).node
        half = principal_unitary_sqrt(node)
        config = LearnerConfig(optimizer=Adagrad(rate=1e-5))
        acc = config.optimizer.init((2, 2, 2, 2, 2, 2))
        c_before = cost(half, 2, phase_flip_data, RHO, POVM)
        fit, costs = evaluate(half, 2, phase_flip_data, RHO, POVM), []
        for it in range(3):
            node = sweep_iteration(fit, acc, it, phase_flip_data, RHO, POVM, config)
            fit = evaluate(node, 2, phase_flip_data, RHO, POVM)
            costs.append(fit.cost)
        assert costs[-1] < costs[0] < c_before + 1e-15
        assert all(b <= a for a, b in zip(costs, costs[1:]))

    def test_unitarity_preserved_across_sweeps(self, phase_flip_data):
        config = LearnerConfig(optimizer=Adam(rate=1e-3, beta1=0.9, beta2=0.99))
        acc = config.optimizer.init((2, 2, 2, 2, 2, 2))
        fit = saddle_departure(np.eye(4, dtype=complex), 2, phase_flip_data, RHO, POVM,
                               max_rounds=2, l1_stop=0.0)
        defects = []
        for it in range(10):
            node = sweep_iteration(fit, acc, it, phase_flip_data, RHO, POVM, config)
            defects.append(unitarity_defect(node))
            fit = evaluate(node, 2, phase_flip_data, RHO, POVM)
        assert max(defects) <= 1e-9

    @pytest.mark.parametrize("d_env", [1, 3])
    def test_step_off_two_level_environment(self, phase_flip_data, d_env):
        # the identity is stationary, so the step starts from a Haar node
        lam = haar_unitary(2 * d_env, np.random.default_rng(30 + d_env))
        config = LearnerConfig(d_env=d_env, optimizer=Adagrad(rate=1e-5))
        acc = config.optimizer.init((d_env, 2, 2, d_env, 2, 2))
        fit = evaluate(lam, d_env, phase_flip_data, RHO, POVM)
        node = sweep_iteration(fit, acc, 1, phase_flip_data, RHO, POVM, config)
        assert node.shape == lam.shape
        assert unitarity_defect(node) <= learner_mod.UNITARITY_TOL
        assert not np.array_equal(node, lam)

    def test_non_unitary_update_is_numerical_error(self, phase_flip_data, monkeypatch):
        exact = learner_mod.replacement_node
        monkeypatch.setattr(learner_mod, "replacement_node",
                            lambda *args, **kw: exact(*args, **kw) * (1.0 + 1e-6))
        lam = haar_unitary(4, np.random.default_rng(5))
        config = LearnerConfig(optimizer=Adagrad(rate=1e-5))
        acc = config.optimizer.init((2, 2, 2, 2, 2, 2))
        fit = evaluate(lam, 2, phase_flip_data, RHO, POVM)
        with pytest.raises(NumericalError, match="unitarity"):
            sweep_iteration(fit, acc, 0, phase_flip_data, RHO, POVM, config)


class TestDeparture:
    def test_each_visited_node_is_evaluated_once(self, phase_flip_data, monkeypatch):
        # the start, every probe, line-search point and endpoint is one model
        # evaluation: cost and l1 distance come from the same residual; probes
        # and line-search points arrive as node stacks, counted node by node
        counts = Counter()
        curve = learner_mod.predicted_curve

        def counted(node, *args):
            for one in node.reshape(-1, 4, 4):
                counts[one.tobytes()] += 1
            return curve(node, *args)

        monkeypatch.setattr(learner_mod, "predicted_curve", counted)
        saddle_departure(np.eye(4, dtype=complex), 2, phase_flip_data, RHO, POVM,
                         max_rounds=2, l1_stop=float(np.sum(phase_flip_data.stderrs)))
        repeated = {k: n for k, n in counts.items() if n > 1}
        assert len(counts) > 2 * 272
        assert not repeated, f"{len(repeated)} nodes evaluated more than once"


    @staticmethod
    def first_round_rays(data):
        # the start node, its cost and the rays of the departure's first round
        node = np.eye(4, dtype=complex)
        c0 = cost(node, 2, data, RHO, POVM)
        grad, hess, basis = learner_mod._tangent_probe(node, c0, 2, data, RHO, POVM)
        w, v = np.linalg.eigh(hess)
        floor = -4.0 * np.finfo(float).eps * c0 / learner_mod._PROBE_ANGLE**2
        rays = [s * v[:, k] for k in np.flatnonzero(w < floor) for s in (1.0, -1.0)]
        if np.linalg.norm(grad) > 0.0:
            rays.append(-grad / np.linalg.norm(grad))
        return node, c0, np.tensordot(rays, basis, axes=1)

    def test_lockstep_line_searches_match_solo_searches(self, phase_flip_data, monkeypatch):
        # the departure's ray searches (one batched cost call per lockstep
        # step, rotations from one stacked eigendecomposition) against each
        # ray's search driven alone through hermitian_expm; every batch of
        # rotated nodes equals its hermitian_expm reference bit for bit,
        # also in the steps after some rays have stopped
        node, c0, directions = self.first_round_rays(phase_flip_data)
        assert len(directions) >= 4
        trial_log, stacks = [], []
        plain_cost = learner_mod.cost

        def recorded_lockstep(searches, objective):
            def recorded(trials):
                trial_log.append(dict(trials))
                return objective(trials)
            return _lockstep(searches, recorded)

        def recorded_cost(nodes, *args):
            stacks.append(nodes.copy())
            return plain_cost(nodes, *args)

        monkeypatch.setattr(learner_mod, "_lockstep", recorded_lockstep)
        monkeypatch.setattr(learner_mod, "cost", recorded_cost)
        lockstep, _ = learner_mod._search_rays(node, c0, directions, 2, phase_flip_data, RHO, POVM)
        monkeypatch.undo()

        def rotated(direction, theta):
            return hermitian_expm(direction, -1j * theta) @ node

        assert len(trial_log) == len(stacks) > 0
        for trials, nodes in zip(trial_log, stacks):
            reference = np.stack([rotated(directions[r], t) for r, t in trials.items()])
            assert np.array_equal(nodes, reference)
        assert any(len(trials) < len(directions) for trials in trial_log)
        for direction, theta in zip(directions, lockstep):
            search = learner_mod._line_minimize(c0)
            angle = next(search)
            with pytest.raises(StopIteration) as stop:
                while True:
                    angle = search.send(cost(rotated(direction, angle), 2, phase_flip_data,
                                             RHO, POVM))
            assert theta == stop.value.value
        assert any(theta > 0.0 for theta in lockstep)

    def test_cached_rotation_equals_hermitian_expm(self):
        # rotations from one stacked eigendecomposition, for any subset of
        # rays and angles, equal hermitian_expm(direction, -1j * theta) @ node
        rng = np.random.default_rng(1901)
        node = haar_unitary(4, rng)
        directions = np.stack([(a + dagger(a)) / 2.0 for a in
                               rng.standard_normal((5, 4, 4)) + 1j * rng.standard_normal((5, 4, 4))])
        rotate = learner_mod._ray_rotations(node, directions)
        for trials in ({0: 1e-4, 1: 2e-4, 2: 4e-4, 3: 8e-4, 4: 1.6e-3},
                       {1: 0.25, 3: 3.0, 4: 1e-12}, {3: np.pi}, {4: 0.0, 0: 0.7}):
            reference = np.stack([hermitian_expm(directions[r], -1j * t) @ node
                                  for r, t in trials.items()])
            assert np.array_equal(rotate(trials), reference)

    @pytest.mark.parametrize("eigenvalue, rays", [(-1e-17, 0), (-1e-3, 2)])
    def test_round_off_curvature_gives_no_ray(self, phase_flip_data, monkeypatch, eigenvalue,
                                              rays):
        # a Hessian eigenvalue of round-off size is no negative curvature: at a
        # zero gradient it leaves the round without rays and line searches
        searches = []

        def no_search(f0):
            searches.append(f0)
            yield 1e-4
            return 0.0

        monkeypatch.setattr(learner_mod, "_tangent_probe", lambda *args: (
            np.zeros(16), np.diag([eigenvalue, *np.ones(15)]), learner_mod._hermitian_basis(4)))
        monkeypatch.setattr(learner_mod, "_line_minimize", no_search)
        saddle_departure(np.eye(4, dtype=complex), 2, phase_flip_data, RHO, POVM,
                         max_rounds=1, l1_stop=0.0)
        assert len(searches) == rays

    def test_matched_endpoints_go_to_the_least_coupled(self, monkeypatch):
        # two endpoints match data from a coupled node: that node exactly, and
        # an uncoupled system rotation to l1 0.02 (the stubbed probe gives three
        # rays, whose stubbed searches end at the two nodes and at the start);
        # the round moves to the rotation, which carries no more
        # non-Markovianity than the data demand
        coupled = spin_unitary(1.2, 1.17, -1.15, 0.05).bulk[0]
        uncoupled = np.kron(np.eye(2), hermitian_expm(PAULI_X, -0.09j))
        data = model_curve(coupled, 6)
        monkeypatch.setattr(learner_mod, "_tangent_probe", lambda *args: (
            np.ones(16), np.diag([-1.0, *np.ones(15)]), learner_mod._hermitian_basis(4)))
        monkeypatch.setattr(learner_mod, "_search_rays", lambda *args: (
            [1.0, 1.0, 0.0], lambda trials: np.stack([(coupled, uncoupled)[r] for r in trials])))
        fit = saddle_departure(np.eye(4, dtype=complex), 2, data, RHO, POVM, max_rounds=1,
                               l1_stop=0.05)
        assert 0.0 < fit.l1 <= 0.05 and fit.cost > cost(coupled, 2, data, RHO, POVM)
        assert np.array_equal(fit.node, uncoupled)

    def test_round_endpoints_are_one_stack(self, phase_flip_data, monkeypatch):
        # after its line searches, a round hands the endpoints of every ray that
        # moved to predicted_curve as one stack, rotated to the angles found
        stacks, searched = [], []
        curve, search = learner_mod.predicted_curve, learner_mod._search_rays

        def recorded_curve(node, *args):
            stacks.append(node)
            return curve(node, *args)

        def recorded_search(*args):
            thetas, rotate = search(*args)
            searched.append((len(stacks), thetas, rotate))
            return thetas, rotate

        monkeypatch.setattr(learner_mod, "predicted_curve", recorded_curve)
        monkeypatch.setattr(learner_mod, "_search_rays", recorded_search)
        saddle_departure(np.eye(4, dtype=complex), 2, phase_flip_data, RHO, POVM,
                         max_rounds=1, l1_stop=0.0)
        [(before, thetas, rotate)] = searched
        moved = {r: theta for r, theta in enumerate(thetas) if theta != 0.0}
        assert len(moved) > 1
        assert len(stacks) == before + 1
        assert np.array_equal(stacks[-1], rotate(moved))

    def test_endpoints_that_raise_the_cost_are_dropped(self, monkeypatch):
        # the stubbed probe gives three rays; two searches end at rotations that
        # fit the data worse than the start and one does not move, so the round
        # keeps no endpoint and the departure stays at its start
        start, worse = rotation(0.12), (rotation(0.3), rotation(0.5))
        data = model_curve(rotation(0.1), 6)
        monkeypatch.setattr(learner_mod, "_tangent_probe", lambda *args: (
            np.ones(16), np.diag([-1.0, *np.ones(15)]), learner_mod._hermitian_basis(4)))
        monkeypatch.setattr(learner_mod, "_search_rays", lambda *args: (
            [1.0, 1.0, 0.0], lambda trials: np.stack([worse[r] for r in trials])))
        fit = saddle_departure(start, 2, data, RHO, POVM, max_rounds=1, l1_stop=0.0)
        assert all(cost(node, 2, data, RHO, POVM) > fit.cost for node in worse)
        assert np.array_equal(fit.node, start)

    def test_probe_costs_its_nodes_in_order_in_bounded_slices(self, phase_flip_data,
                                                               monkeypatch):
        # a round's 272 probe nodes arrive in order, in cost calls of at most
        # 2 dim^2 = 32 nodes, the size of a line-search step's stack
        calls = []
        per_round = []
        plain_cost, probe = learner_mod.cost, learner_mod._tangent_probe

        def counted_cost(node, *args):
            calls.append(node)
            return plain_cost(node, *args)

        def counted_probe(node, *args):
            before = len(calls)
            out = probe(node, *args)
            per_round.append((node, calls[before:]))
            return out

        monkeypatch.setattr(learner_mod, "cost", counted_cost)
        monkeypatch.setattr(learner_mod, "_tangent_probe", counted_probe)
        saddle_departure(np.eye(4, dtype=complex), 2, phase_flip_data, RHO, POVM,
                         max_rounds=2, l1_stop=0.0)
        assert len(per_round) == 2
        for node, stacks in per_round:
            assert [len(stack) for stack in stacks] == [32] * 8 + [16]
            rotate = learner_mod._ray_rotations(node, probe_directions(4))
            assert np.array_equal(np.concatenate(stacks),
                                  rotate(dict.fromkeys(range(272), learner_mod._PROBE_ANGLE)))

    @pytest.mark.parametrize("dim", [2, 4, 6])
    def test_probe_directions_equal_the_basis_products(self, monkeypatch, dim):
        # the probe's +-H directions, formed without a BLAS product, equal the
        # tensordot of their 0/+-1 coefficients with the basis, bit for bit
        # (signed zeros included)
        seen = []

        class Captured(Exception):
            pass

        def captured(node, directions):
            seen.append(directions)
            raise Captured

        monkeypatch.setattr(learner_mod, "_ray_rotations", captured)
        with pytest.raises(Captured):
            learner_mod._tangent_probe(np.eye(dim, dtype=complex), 0.0, dim // 2, None, RHO, POVM)
        assert seen[0].tobytes() == probe_directions(dim).tobytes()

    def test_probe_memory_is_one_slice(self, phase_flip_data):
        # at d_env 3 the probe costs 1,332 nodes; in slices of 72 its tracemalloc
        # peak stays below 4 MB (25.7 MB when all of them were one stack)
        node = np.eye(6, dtype=complex)
        c0 = cost(node, 3, phase_flip_data, RHO, POVM)
        tracemalloc.start()
        try:
            learner_mod._tangent_probe(node, c0, 3, phase_flip_data, RHO, POVM)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6

    @pytest.mark.skipif(not sys.platform.startswith("linux") or len(os.sched_getaffinity(0)) < 2
                        or "openblas" not in BLAS_NAME, reason="needs Linux, 2 CPUs and OpenBLAS")
    def test_probe_leaves_the_blas_worker_asleep(self):
        # a child with two OpenBLAS threads runs one dim-4 probe; the CPU ticks of
        # its other threads over the probe and 0.3 s after it stay at most 2 (a
        # threaded BLAS product in the probe wakes the worker, which then spins
        # for about 0.1 s: 12 ticks)
        src = str(Path(learner_mod.__file__).parents[1])
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "2",
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        run = subprocess.run([sys.executable, "-c", BLAS_WORKER_CHILD], env=env,
                             capture_output=True, text=True, timeout=60)
        assert run.returncode == 0, run.stderr
        assert int(run.stdout) <= 2


class TestTrain:
    def test_identity_data_converges_immediately(self):
        data = AsfCurve(tuple(range(1, 8)), (1.0,) * 7, (0.0,) * 7, 5)
        result = train(data, RHO, POVM, LearnerConfig(optimizer=Adagrad(rate=1e-5)))
        assert result.converged
        assert result.iterations == 0
        assert np.array_equal(result.node, np.eye(4, dtype=complex))

    def test_infinite_stderr_cannot_fake_convergence(self):
        # an inf error bar made the l1 target infinite, so train used to
        # return converged=True at the identity node after 0 iterations
        with pytest.raises(InputError):
            data = AsfCurve((1, 2, 3, 4), (0.9, 0.8, 0.7, 0.6), (0.01, np.inf, 0.01, 0.01), 10)
            train(data, RHO, POVM, LearnerConfig())

    def test_training_is_deterministic(self, phase_flip_data):
        cfg = LearnerConfig(optimizer=Adagrad(rate=1e-5), max_iterations=50)
        a = train(phase_flip_data, RHO, POVM, cfg)
        b = train(phase_flip_data, RHO, POVM, cfg)
        assert np.array_equal(a.node, b.node)
        assert a.cost_trace == b.cost_trace

    def test_each_node_is_evaluated_once(self, phase_flip_data, monkeypatch):
        # from the identity start through the departure and the sweep to the
        # returned node and its predicted curve, no node is evaluated twice
        counts = Counter()
        curve = learner_mod.predicted_curve

        def counted(node, *args):
            counts[node.tobytes()] += 1
            return curve(node, *args)

        monkeypatch.setattr(learner_mod, "predicted_curve", counted)
        result = train(phase_flip_data, RHO, POVM,
                       LearnerConfig(optimizer=Adagrad(rate=1e-3), departure_rounds=1,
                                     max_iterations=5, convergence_divisor=1e6))
        assert result.iterations == 5
        repeated = {k: n for k, n in counts.items() if n > 1}
        assert not repeated, f"{len(repeated)} nodes evaluated more than once"

    def test_returns_the_first_minimum_cost_fit(self, monkeypatch):
        # a sweep whose cost trace falls to its minimum at iterations 1 and 2
        # (the same node twice) and rises after it
        path = [rotation(0.15), rotation(0.15), rotation(0.05)]
        monkeypatch.setattr(learner_mod, "sweep_iteration", lambda fit, acc, it, *args: path[it])
        result = train(model_curve(rotation(0.2), 6), RHO, POVM,
                       LearnerConfig(departure_rounds=0, max_iterations=3))
        trace = result.cost_trace
        assert result.iterations == 3 and trace[0] > trace[1] == trace[2] < trace[3]
        assert result.best_iteration == 1 and np.array_equal(result.node, path[0])

    def test_predicted_curve_comes_from_returned_node(self, phase_flip_data):
        result = train(phase_flip_data, RHO, POVM,
                       LearnerConfig(optimizer=Adagrad(rate=1e-5)))
        pred = predicted_curve(result.node, 2, RHO, POVM, result.predicted.lengths)
        assert np.allclose(pred, result.predicted.means, atol=1e-12)


class TestDiagnosis:
    def test_uncoupled_node_is_markovian(self):
        rng = np.random.default_rng(12)
        u = haar_unitary(2, rng)
        report = diagnose_markovianity(np.kron(np.eye(2), u), 2)
        assert report.markovian
        assert report.off_block_norm < 1e-14
        assert np.linalg.norm(report.system_block - u) < 1e-12

    def test_three_level_environment_node_is_markovian(self):
        # a system unitary on the populated level and a 4 x 4 one on the two
        # others: Markovian at d_env 3, but read at d_env 2 it has a 3 x 3
        # "system block" and a large off-block part
        rng = np.random.default_rng(21)
        block = haar_unitary(2, rng)
        node = np.zeros((6, 6), dtype=complex)
        node[:2, :2] = block
        node[2:, 2:] = haar_unitary(4, rng)
        report = diagnose_markovianity(node, 3)
        assert report.markovian
        assert report.off_block_norm == 0.0
        assert np.array_equal(report.system_block, block)
        assert not diagnose_markovianity(node, 2).markovian

    def test_direct_sum_block_form_is_markovian(self):
        # the published learned form: a system unitary in the populated
        # environment block, identity elsewhere
        from rbmpo.linalg import project_to_unitary

        block = project_to_unitary(np.array(
            [[9.76909396e-01 - 1.88659124e-03j, -2.00029693e-01 - 7.50506084e-02j],
             [1.99891456e-01 - 7.54180194e-02j, 9.76911214e-01 + 9.15991865e-05j]]
        ))
        node = np.block([
            [block, np.zeros((2, 2))],
            [np.zeros((2, 2)), np.eye(2)],
        ]).astype(complex)
        report = diagnose_markovianity(node, 2)
        assert report.markovian
        assert report.off_block_norm < 1e-12

    def test_spin_unitary_is_non_markovian(self):
        node = spin_unitary(1.2, 1.17, -1.15, 0.05).bulk[0]
        report = diagnose_markovianity(node, 2, tol=1e-2)
        assert not report.markovian
        assert report.off_block_norm >= 1e-2

    def test_global_phase_invariance(self):
        node = spin_unitary(1.2, 1.17, -1.15, 0.05).bulk[0]
        a = diagnose_markovianity(node, 2)
        b = diagnose_markovianity(np.exp(0.7j) * node, 2)
        assert abs(a.off_block_norm - b.off_block_norm) < 1e-12

    def test_non_unitary_rejected(self):
        with pytest.raises(InputError):
            diagnose_markovianity(np.diag([1.0, 1.0, 1.0, 0.5]).astype(complex), 2)

    @pytest.mark.parametrize("d_env", [0, -1])
    def test_environment_dimension_below_one_rejected(self, d_env):
        # a coupling node (off-block 1.10 at d_env 2): d_env 0 would divide by
        # zero, and d_env -1 would slice it into a Markovian verdict
        node = spin_unitary(1.2, 1.17, -1.15, 0.5).bulk[0]
        assert diagnose_markovianity(node, 2).off_block_norm > 1.0
        with pytest.raises(DomainError, match="environment dimension"):
            diagnose_markovianity(node, d_env=d_env)
