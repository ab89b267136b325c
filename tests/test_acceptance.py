"""Acceptance suite: one test per release criterion.

Each criterion's test prints a `[acceptance] criterion N` line (run with
``pytest -s`` to see them live).  Criteria with stated runtime budgets assert
them.  The golden tests at the end pin what the two fixtures' learned nodes
report, in values that no gauge of the node moves.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from rbmpo.average import clifford_averaged_asf_curve, fit_exponential
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
from rbmpo.process_tensor import contract_asf_dense
from rbmpo.quantum import basis_state, sample_sequence
from rbmpo.rb import AsfCurve, ExperimentConfig, estimate_asf, run_sequence
from rbmpo.selfcheck import enumeration_mean, gauge_invariants, haar_unitary, joint_gradient_fd

RHO = basis_state(0, 2)
POVM = basis_state(0, 2)
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def report(number, name, detail=""):
    print(f"[acceptance] criterion {number} ({name}): PASS {detail}")


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
        model = joint_unitary(haar_unitary(4, rng), basis_state(0, 2))
        gates = sample_sequence(cliffords, m, rng)
        f_dense = contract_asf_dense(model, gates, RHO, POVM)
        f_run = run_sequence(model, gates, RHO, POVM)
        worst = max(worst, abs(f_dense - f_run))
    elapsed = time.monotonic() - started
    assert worst <= 1e-10
    assert elapsed < 30.0
    report(1, "oracle equivalence", f"max |diff| {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_two_design_identity():
    started = time.monotonic()
    rng = np.random.default_rng(20240502)
    worst = 0.0
    for _ in range(10):
        model = joint_unitary(haar_unitary(4, rng), basis_state(0, 2))
        for m in (1, 2, 3):
            worst = max(worst, abs(enumeration_mean(model, m, RHO, POVM)
                                   - clifford_averaged_asf_curve(model, RHO, POVM, m)[-1]))
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
        grad = gradient_joint(evaluate(lam, data, RHO, POVM), data, RHO, POVM, slot)
        for pos in np.argsort(np.abs(grad).ravel())[-3:]:
            idx = np.unravel_index(pos, grad.shape)
            fd = joint_gradient_fd(lam, data, slot, idx, RHO, POVM)
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
    diag = diagnose_markovianity(result.node, 2)
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
    diag = diagnose_markovianity(result.node, 2)
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


#: Gauge-invariant values of the two fixtures' learned nodes
#: (:func:`rbmpo.selfcheck.gauge_invariants`), with tolerances.  Multiplying
#: each data mean by 1 + 1e-15 x a normal draw (48 draws per fixture) moved
#: the learned node by more than 0.1 in half the runs, but these values by
#: at most 2.7e-9 (traces), 1.1e-9 (curve), 3.8e-11 (off-block) and 1.8e-9
#: (l1) on phase flip, and 9.8e-5, 1.3e-6, 3.5e-6 and 4.5e-6 on spin; each
#: tolerance is 14 to 28 times that drift.  Values and drift were taken on
#: numpy 2.4.6 with scipy-openblas 0.3.31 only, not on the OpenBLAS that CI's
#: Python 3.10 / numpy 2.0 leg runs.
GOLDEN = {
    "phase_flip_run": ({
        "traces": [[3.939026980045383, 3.8799128146692627, 3.822600833883025, 3.7670360953682307],
                   [3.8589688566835845, 3.7262058710696406, 3.6011412563888903, 3.4832480327087896]],
        "curve": [0.9599709381499439, 0.9231465280063698, 0.8892702110354263, 0.8581059684300185,
                  0.8294366766058415, 0.8030625944853012, 0.7787999718866472, 0.7564797693228595,
                  0.7359464802910343, 0.7170570478470709, 0.6996798679173569, 0.6836938724034484,
                  0.6689876856916701, 0.6554588486909732, 0.6430131049928663, 0.6315637441800434,
                  0.6210309977084887, 0.6113414831541301, 0.6024276929520584, 0.5942275240663291],
        "off_block": 7.327529371681306e-06,
        "l1": 0.05673581335789024,
    }, {"traces": 5e-8, "curve": 2e-8, "off_block": 1e-9, "l1": 5e-8}),
    "spin_run": ({
        "traces": [[3.9951640063183085, 3.9891663398157378, 3.982013527945663, 3.973712758073376],
                   [3.9577964444080993, 3.9149428411649927, 3.8714690016213495, 3.8274046618422366]],
        "curve": [0.9794634573674492, 0.9761087320453357, 0.9727416670449157, 0.969362213310449,
                  0.965970357966575, 0.9625661233002926, 0.9591495657437323, 0.9557207748583392,
                  0.9522798723210693, 0.9488270109131922, 0.9453623735122758, 0.941886172087917,
                  0.9383986467017692, 0.9349000645124026, 0.9313907187855219, 0.9278709279100468,
                  0.9243410344205538, 0.9208014040265597, 0.9172524246491123, 0.9136945054651426],
        "off_block": 0.042164921310914254,
        "l1": 0.07273668712233039,
    }, {"traces": 2e-3, "curve": 2e-5, "off_block": 5e-5, "l1": 1e-4}),
}


@pytest.mark.parametrize("fixture", GOLDEN)
def test_golden_invariants(fixture, request):
    data, result, _ = request.getfixturevalue(fixture)
    values = gauge_invariants(result.node, data, RHO, POVM)
    golden, tolerances = GOLDEN[fixture]
    moved = {key: float(np.max(np.abs(values[key] - np.asarray(golden[key]))))
             for key in golden}
    assert all(moved[key] <= tol for key, tol in tolerances.items()), moved
