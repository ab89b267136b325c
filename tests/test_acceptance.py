"""Acceptance suite: one test per release criterion.

Each test prints a `[acceptance] criterion N` line (run with ``pytest -s``
to see them live).  Criteria with stated runtime budgets assert them.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from rbmpo.average import NoiseSteps, clifford_averaged_asf, clifford_averaged_asf_curve, fit_exponential
from rbmpo.learner import (
    Adagrad,
    Adam,
    LearnerConfig,
    diagnose_markovianity,
    evaluate,
    gradient_joint,
    train,
)
from rbmpo.linalg import dagger, project_to_unitary
from rbmpo.noise import amplitude_damping, depolarizing, joint_unitary, phase_flip, spin_unitary
from rbmpo.process_tensor import asf_joint_coefficient, contract_asf_dense, joint_node
from rbmpo.quantum import basis_state, sample_sequence, single_qubit_cliffords
from rbmpo.rb import AsfCurve, ExperimentConfig, estimate_asf, run_sequence

RHO = basis_state(0, 2)
POVM = basis_state(0, 2)
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def report(number, name, detail=""):
    print(f"[acceptance] criterion {number} ({name}): PASS {detail}")


def haar_unitary(n, rng):
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


@pytest.fixture(scope="module")
def cliffords():
    return single_qubit_cliffords()


@pytest.fixture(scope="module")
def phase_flip_run():
    """Bundled phase-flip experiment and training run (criteria 6, 8)."""
    cfg = ExperimentConfig(noise=phase_flip(0.06), m_max=20, n_samples=100, seed=2024)
    data = estimate_asf(cfg)
    started = time.monotonic()
    result = train(
        data, RHO, POVM,
        LearnerConfig(optimizer=Adagrad(rate=1e-5), max_iterations=200),
    )
    return data, result, time.monotonic() - started


@pytest.fixture(scope="module")
def spin_run():
    """Bundled spin-model experiment and training run (criteria 7, 8)."""
    cfg = ExperimentConfig(
        noise=spin_unitary(1.2, 1.17, -1.15, 0.05), m_max=20, n_samples=100, seed=2024
    )
    data = estimate_asf(cfg)
    started = time.monotonic()
    result = train(
        data, RHO, POVM,
        LearnerConfig(optimizer=Adam(rate=1e-3, beta1=0.9, beta2=0.99),
                      max_iterations=200, departure_rounds=12),
    )
    return data, result, time.monotonic() - started


def test_criterion_1_oracle_equivalence(cliffords):
    started = time.monotonic()
    rng = np.random.default_rng(20240501)
    worst = 0.0
    for case in range(50):
        m = 1 + case % 4
        model = joint_unitary(haar_unitary(4, rng), basis_state(0, 2), 2)
        gates = sample_sequence(cliffords, m, rng)
        f_dense = contract_asf_dense(model, gates, RHO, POVM)
        f_run = run_sequence(model, gates, RHO, POVM)
        worst = max(worst, abs(f_dense - f_run))
    elapsed = time.monotonic() - started
    assert worst <= 1e-10
    assert elapsed < 30.0
    report(1, "oracle equivalence", f"max |diff| {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_two_design_identity(cliffords):
    started = time.monotonic()
    rng = np.random.default_rng(20240502)
    table = np.stack(cliffords.gates)
    worst = 0.0
    for _ in range(10):
        model = joint_unitary(haar_unitary(4, rng), basis_state(0, 2), 2)
        for m in (1, 2, 3):
            # all 24**m sequences of length m, as one batch
            vals = run_sequence(model, table[np.indices((24,) * m).reshape(m, -1).T], RHO, POVM)
            worst = max(worst, abs(np.mean(vals) - clifford_averaged_asf(model, RHO, POVM, m)))
    elapsed = time.monotonic() - started
    assert worst <= 1e-10
    assert elapsed < 60.0
    report(2, "2-design identity", f"max |diff| {worst:.2e}, {elapsed:.1f}s")


def test_criterion_3_markovian_exponential_reduction():
    worst = 0.0
    for model in (phase_flip(0.06), amplitude_damping(0.1), depolarizing(0.1)):
        vals = clifford_averaged_asf_curve(model, RHO, POVM, 20)
        curve = AsfCurve(tuple(range(1, 21)), tuple(vals), (0.0,) * 20, 1)
        fit = fit_exponential(curve)
        worst = max(worst, fit.max_residual)
    assert worst <= 1e-10
    report(3, "Markovian exponential reduction", f"max residual {worst:.2e}")


def test_criterion_4_gradient_correctness():
    rng = np.random.default_rng(20240504)
    h = 1e-5
    worst = 0.0
    for case in range(20):
        lam = haar_unitary(4, rng)
        m_max = int(rng.integers(2, 7))
        data = AsfCurve(
            tuple(range(1, m_max + 1)),
            tuple(float(x) for x in rng.uniform(0.5, 1.0, m_max)),
            (0.0,) * m_max,
            100,
        )
        slot = int(rng.integers(1, m_max + 2))
        grad = gradient_joint(evaluate(lam, 2, data, RHO, POVM), 2, data, RHO, POVM, slot)
        steps = NoiseSteps.uniform(lam, 2)
        base = joint_node(lam, lam, 2, 2)

        def cost_at(joint):
            total = 0.0
            for n, f_exp in zip(data.lengths, data.means):
                if n >= max(slot - 1, 1):
                    f = np.real(np.sum(joint * np.conj(
                        asf_joint_coefficient(steps, slot, {n: 1.0}, RHO, POVM, joint))))
                else:
                    f = clifford_averaged_asf(steps, RHO, POVM, n)
                total += 0.5 * (f - f_exp) ** 2
            return total

        flat = np.argsort(np.abs(grad).ravel())[-3:]
        for pos in flat:
            idx = np.unravel_index(pos, grad.shape)
            probe = np.zeros_like(base)
            probe[idx] = 1.0
            d_re = (cost_at(base + h * probe) - cost_at(base - h * probe)) / (2 * h)
            d_im = (cost_at(base + 1j * h * probe) - cost_at(base - 1j * h * probe)) / (2 * h)
            fd = -(d_re + 1j * d_im) / 2.0
            worst = max(worst, abs(grad[idx] - fd) / max(abs(fd), 1e-12))
    assert worst <= 1e-6
    report(4, "gradient correctness", f"max rel err {worst:.2e}")


def test_criterion_5_projection_optimality():
    rng = np.random.default_rng(20240505)
    for _ in range(20):
        x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        p = project_to_unitary(x)
        assert np.linalg.norm(dagger(p) @ p - np.eye(4)) <= 1e-12
        d0 = np.linalg.norm(x - p)
        for _ in range(1000):
            assert d0 <= np.linalg.norm(x - haar_unitary(4, rng)) + 1e-12
    worst_eq = 0.0
    for _ in range(10):
        x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        u, v = haar_unitary(4, rng), haar_unitary(4, rng)
        worst_eq = max(
            worst_eq,
            float(np.linalg.norm(project_to_unitary(u @ x @ v) - u @ project_to_unitary(x) @ v)),
        )
    assert worst_eq <= 1e-10
    report(5, "projection optimality", f"equivariance err {worst_eq:.2e}")


def test_criterion_6_phase_flip_end_to_end(phase_flip_run):
    data, result, elapsed = phase_flip_run
    sigma_total = float(np.sum(data.stderrs))
    assert result.converged, "training must reach the l1 target at divisor 1"
    assert result.iterations <= 200
    l1_best = result.l1_trace[result.best_iteration]
    assert l1_best <= sigma_total
    diag = diagnose_markovianity(result.node)
    assert diag.markovian
    assert diag.off_block_norm <= 1e-2
    assert elapsed < 600.0
    report(
        6,
        "phase-flip end-to-end",
        f"l1 {l1_best:.4f} <= sigma_T {sigma_total:.4f}, off-block {diag.off_block_norm:.1e}, "
        f"{elapsed:.0f}s",
    )


def test_criterion_7_spin_model_end_to_end(spin_run):
    data, result, elapsed = spin_run
    fit = fit_exponential(data)
    med_stderr = float(np.median(data.stderrs))
    assert fit.max_residual > 3.0 * med_stderr, "data must carry a non-exponential signature"
    diag = diagnose_markovianity(result.node)
    assert not diag.markovian
    assert diag.off_block_norm >= 1e-2
    assert elapsed < 900.0
    report(
        7,
        "spin-model end-to-end",
        f"fit residual {fit.max_residual:.4f} > 3x median stderr {med_stderr:.4f}, "
        f"off-block {diag.off_block_norm:.2e}, {elapsed:.0f}s",
    )


def test_criterion_8_unitarity_discipline(phase_flip_run, spin_run):
    worst = 0.0
    for _, result, _ in (phase_flip_run, spin_run):
        worst = max(worst, max(result.unitarity_trace))
        final = result.node
        worst = max(worst, float(np.linalg.norm(dagger(final) @ final - np.eye(4))))
    assert worst <= 1e-9
    report(8, "unitarity discipline", f"max defect {worst:.2e}")


def test_criterion_9_determinism(tmp_path):
    from rbmpo.cli import main

    outs = []
    for tag in ("a", "b"):
        out = tmp_path / f"gen_{tag}"
        assert main(["generate", str(CONFIGS / "phase_flip.json"), "-o", str(out)]) == 0
        outs.append((out / "asf.csv").read_bytes())
    assert outs[0] == outs[1]

    fits = []
    for tag in ("a", "b"):
        out = tmp_path / f"fit_{tag}"
        assert main([
            "learn", str(tmp_path / "gen_a" / "asf.csv"),
            str(CONFIGS / "learner_adagrad.json"), "-o", str(out),
        ]) == 0
        fits.append(
            (out / "result.json").read_bytes() + (out / "predicted.csv").read_bytes()
        )
    assert fits[0] == fits[1]
    report(9, "determinism", "generate and learn outputs byte-identical across reruns")
