"""Desk-scale self-check suites: fast invariants run by the CLI release gate.

Each suite returns a list of (name, passed, detail) triples.  The suites
cross-check independent computation paths against each other, so a sign or
conjugation error anywhere in the contraction machinery shows up as a
disagreement here.
"""

from __future__ import annotations

import numpy as np

from . import average, process_tensor
from .linalg import dagger, project_to_unitary
from .noise import joint_unitary
from .quantum import basis_state, sample_sequence, single_qubit_cliffords
from .rb import run_sequence


def _haar(n: int, rng: np.random.Generator) -> np.ndarray:
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def check_clifford_group() -> list[tuple[str, bool, str]]:
    results = []
    cl = single_qubit_cliffords()
    results.append(("clifford count", len(cl) == 24, f"found {len(cl)} elements"))
    from .quantum import equal_up_to_phase

    closed = all(
        any(equal_up_to_phase(a @ b, g) for g in cl.gates)
        for a in cl.gates[:6]
        for b in cl.gates
    )
    results.append(("clifford closure (sampled rows)", closed, "products stay in the set"))
    return results


def check_oracle_equivalence() -> list[tuple[str, bool, str]]:
    rng = np.random.default_rng(11)
    cl = single_qubit_cliffords()
    rho = basis_state(0, 2)
    worst = 0.0
    for _ in range(6):
        lam = _haar(4, rng)
        model = joint_unitary(lam, basis_state(0, 2), 2)
        m = int(rng.integers(1, 4))
        gates = sample_sequence(cl, m, rng)
        f_run = run_sequence(model, gates, rho, rho)
        f_dense = process_tensor.contract_asf_dense(model, gates, rho, rho)
        worst = max(worst, abs(f_run - f_dense))
    return [("dense tensor contraction vs direct evolution", worst < 1e-10, f"max |diff| {worst:.2e}")]


def check_average_identity() -> list[tuple[str, bool, str]]:
    rng = np.random.default_rng(12)
    cl = single_qubit_cliffords()
    rho = basis_state(0, 2)
    lam = _haar(4, rng)
    model = joint_unitary(lam, basis_state(0, 2), 2)
    vals = [run_sequence(model, [g], rho, rho) for g in cl.gates]
    exact = average.clifford_averaged_asf(model, rho, rho, 1)
    diff = abs(float(np.mean(vals)) - exact)
    return [("closed-form average vs full enumeration (m=1)", diff < 1e-10, f"|diff| {diff:.2e}")]


def check_gradient() -> list[tuple[str, bool, str]]:
    from .learner import evaluate, gradient_joint
    from .process_tensor import asf_with_joint_node, joint_node
    from .rb import AsfCurve

    rng = np.random.default_rng(13)
    lam = _haar(4, rng)
    rho = basis_state(0, 2)
    m_max = 3
    data = AsfCurve(
        tuple(range(1, m_max + 1)),
        tuple(float(x) for x in rng.uniform(0.6, 1.0, m_max)),
        (0.0,) * m_max,
        10,
    )
    steps = average.NoiseSteps.uniform(lam, 2)
    base = joint_node(lam, lam, 2, 2)
    h = 1e-5
    worst = 0.0
    fit = evaluate(lam, 2, data, rho, rho)
    # every slot pair, the raw preparation (slot 1) and final (slot m_max + 1) ones included
    for slot in range(1, m_max + 2):
        grad = gradient_joint(fit, 2, data, rho, rho, slot)

        def cost_at(joint):
            total = 0.0
            for n, f_exp in zip(data.lengths, data.means):
                if n >= max(slot - 1, 1):
                    f = asf_with_joint_node(steps, slot, n, rho, rho, joint, joint)
                else:
                    f = average.clifford_averaged_asf(steps, rho, rho, n)
                total += 0.5 * (f - f_exp) ** 2
            return total

        for idx in [(0, 0, 0, 0, 0, 0), (1, 0, 1, 0, 1, 0), (0, 1, 1, 1, 0, 1)]:
            probe = np.zeros_like(base)
            probe[idx] = 1.0
            d_re = (cost_at(base + h * probe) - cost_at(base - h * probe)) / (2 * h)
            d_im = (cost_at(base + 1j * h * probe) - cost_at(base - 1j * h * probe)) / (2 * h)
            fd = -(d_re + 1j * d_im) / 2.0
            worst = max(worst, abs(grad[idx] - fd) / max(abs(fd), 1e-12))
    return [("joint-node gradient vs finite differences", worst < 1e-6, f"max rel err {worst:.2e}")]


def check_projection() -> list[tuple[str, bool, str]]:
    rng = np.random.default_rng(14)
    results = []
    worst_unitarity = 0.0
    for _ in range(5):
        x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        p = project_to_unitary(x)
        worst_unitarity = max(worst_unitarity, float(np.linalg.norm(dagger(p) @ p - np.eye(4))))
    results.append(("unitary projection unitarity", worst_unitarity < 1e-12, f"max defect {worst_unitarity:.2e}"))
    x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    p = project_to_unitary(x)
    d0 = np.linalg.norm(x - p)
    beaten = all(
        d0 <= np.linalg.norm(x - _haar(4, rng)) + 1e-12 for _ in range(200)
    )
    results.append(("projection beats random unitaries", beaten, f"distance {d0:.3f}"))
    return results


ALL_SUITES = [
    ("clifford group", check_clifford_group),
    ("oracle equivalence", check_oracle_equivalence),
    ("2-design average", check_average_identity),
    ("gradient", check_gradient),
    ("unitary projection", check_projection),
]


def run_all() -> tuple[bool, list[tuple[str, str, bool, str]]]:
    """Run every suite; returns (all passed, [(suite, check, ok, detail), ...])."""
    rows = []
    ok_all = True
    for suite_name, fn in ALL_SUITES:
        for check_name, ok, detail in fn():
            rows.append((suite_name, check_name, bool(ok), detail))
            ok_all = ok_all and bool(ok)
    return ok_all, rows
