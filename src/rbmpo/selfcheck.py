"""Desk-scale self-check suites: fast invariants run by the CLI release gate.

Each suite returns a list of (name, passed, detail) triples.  The suites
cross-check independent computation paths against each other, so a sign or
conjugation error anywhere in the contraction machinery shows up as a
disagreement here.  The tests import the same arbiters: the Haar sampler,
numpy's own per-sample stream, the full Clifford enumeration and the
finite-difference joint-node gradient, and the gauge-invariant values that
pin a learned node.
"""

from __future__ import annotations

import numpy as np

from .average import clifford_averaged_asf_curve, sector_maps
from .learner import evaluate, gradient_joint
from .linalg import project_to_unitary, unitarity_defect
from .noise import NoiseSteps, diagnose_markovianity, joint_unitary, kraus_stack
from .process_tensor import (asf_joint_coefficient, contract_asf_dense,
                             contract_asf_dense_averaged, joint_node, split_joint)
from .quantum import basis_state, equal_up_to_phase, sample_sequence, single_qubit_cliffords
from .rb import AsfCurve, run_sequence


def haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def sample_stream(seed: int, m: int, index: int) -> np.random.Generator:
    """Independent random stream for sample `index` at sequence length `m`: numpy's
    own, whose ``.integers`` draws :func:`rbmpo.rb._stream_indices` yields step by step."""
    return np.random.default_rng([seed & (2**64 - 1), m, index])


def enumeration_mean(model: NoiseSteps, m: int, rho_sys, povm) -> float:
    """Mean survival probability over all 24**m Clifford sequences of length m, one batch."""
    table = np.stack(single_qubit_cliffords().gates)
    picks = np.indices((len(table),) * m).reshape(m, -1).T
    return float(np.mean(run_sequence(model, table[picks], rho_sys, povm)))


def joint_fidelity(steps: NoiseSteps, slot: int, n: int, joint, rho_sys, povm) -> float:
    """Averaged fidelity at length n with ``joint`` on both chains at (slot, slot - 1)."""
    bond = np.prod(joint.shape[:3])
    bra = split_joint(np.eye(bond, dtype=np.complex128), joint.reshape(bond, -1), joint.shape)
    coeff = asf_joint_coefficient(steps, slot, {n: 1.0}, rho_sys, povm, bra)
    return float(np.real(np.sum(joint * np.conj(coeff))))


def joint_gradient_fd(node, data: AsfCurve, slot: int, idx: tuple, rho_sys, povm) -> complex:
    """Central-difference Wirtinger derivative -dC/d conj(L) at entry ``idx`` of the
    learner's cost in the joint node L = joint_node(node, node) at (slot, slot - 1).

    L moves on both chains (:func:`joint_fidelity`), through the contraction the
    gradient uses, :func:`rbmpo.process_tensor.asf_joint_coefficient`.  So this
    pins that the gradient is the Wirtinger derivative of the cost, but not the
    contraction itself: ``test_physical_evaluation_*`` (against the closed form)
    and ``TestGoldenValues`` pin that.
    """
    d_env = node.shape[0] // np.shape(rho_sys)[0]
    steps = NoiseSteps.uniform(node, d_env)
    base = joint_node(node, node, d_env)
    curve = clifford_averaged_asf_curve(steps, rho_sys, povm, max(data.lengths))

    def cost_at(joint):
        total = 0.0
        for n, f_exp in zip(data.lengths, data.means):
            if n >= max(slot - 1, 1):
                f = joint_fidelity(steps, slot, n, joint, rho_sys, povm)
            else:
                f = curve[n - 1]
            total += 0.5 * (f - f_exp) ** 2
        return total

    probe = np.zeros_like(base)
    probe[idx] = 1.0
    h = 1e-5
    d_re = (cost_at(base + h * probe) - cost_at(base - h * probe)) / (2 * h)
    d_im = (cost_at(base + 1j * h * probe) - cost_at(base - 1j * h * probe)) / (2 * h)
    return -(d_re + 1j * d_im) / 2.0


def gauge_invariants(node, data: AsfCurve, rho_sys, povm) -> dict:
    """What the method reads off a learned node, in values that no gauge of the
    node moves: ``traces``, tr(M^k) and tr(T^k) for k = 1 .. d_env^2 of the bulk
    slot's :func:`rbmpo.average.sector_maps` (M the mixed map), as (2, d_env^2);
    the ``curve`` predicted at the data's lengths; the ``off_block`` norm of
    :func:`rbmpo.noise.diagnose_markovianity`; and the ``l1`` distance from the
    data.  The power traces are polynomials in the maps, so they stay smooth
    where the maps' eigenvalues are degenerate, as sorted eigenvalues do not."""
    d_env = len(node) // len(rho_sys)
    stack = kraus_stack((node,), d_env)
    maps = sector_maps(stack, stack)
    traces = [np.trace(np.linalg.matrix_power(maps, k), axis1=-2, axis2=-1)
              for k in range(1, d_env * d_env + 1)]
    fit = evaluate(node, data, rho_sys, povm)
    return {"traces": np.array(traces).T, "curve": fit.predicted,
            "off_block": diagnose_markovianity(node, d_env).off_block_norm, "l1": fit.l1}


def check_clifford_group() -> list[tuple[str, bool, str]]:
    results = []
    cl = single_qubit_cliffords()
    results.append(("clifford count", len(cl) == 24, f"found {len(cl)} elements"))
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
        model = joint_unitary(haar_unitary(4, rng), rho)
        gates = sample_sequence(cl, int(rng.integers(1, 4)), rng)
        f_run = run_sequence(model, gates, rho, rho)
        f_dense = contract_asf_dense(model, gates, rho, rho)
        worst = max(worst, abs(f_run - f_dense))
    return [("dense tensor contraction vs direct evolution", worst < 1e-10, f"max |diff| {worst:.2e}")]


def check_average_identity() -> list[tuple[str, bool, str]]:
    rng = np.random.default_rng(12)
    rho = basis_state(0, 2)
    model = joint_unitary(haar_unitary(4, rng), rho)
    curve = clifford_averaged_asf_curve(model, rho, rho, 3)
    # the bulk powers first show at m = 2; neither the enumeration nor the
    # dense oracle shares a kernel with the chain
    enum = {m: abs(enumeration_mean(model, m, rho, rho) - curve[m - 1]) for m in (1, 3)}
    dense = max(abs(curve[m - 1] - contract_asf_dense_averaged(model, m, rho, rho))
                for m in (2, 3))
    rows = [(f"closed-form average vs full enumeration (m={m})", diff < 1e-10, f"|diff| {diff:.2e}")
            for m, diff in enum.items()]
    return [*rows, ("closed form vs dense averaged oracle (m=2-3)", dense < 1e-10,
                    f"|diff| {dense:.2e}")]


def check_gradient() -> list[tuple[str, bool, str]]:
    rng = np.random.default_rng(13)
    lam = haar_unitary(4, rng)
    rho = basis_state(0, 2)
    m_max = 3
    data = AsfCurve(tuple(range(1, m_max + 1)),
                    tuple(float(x) for x in rng.uniform(0.6, 1.0, m_max)), (0.0,) * m_max, 10)
    worst = 0.0
    fit = evaluate(lam, data, rho, rho)
    # every slot pair, the raw preparation (slot 1) and final (slot m_max + 1) ones included
    for slot in range(1, m_max + 2):
        grad = gradient_joint(fit, data, rho, rho, slot)
        for idx in [(0, 0, 0, 0, 0, 0), (1, 0, 1, 0, 1, 0), (0, 1, 1, 1, 0, 1)]:
            fd = joint_gradient_fd(lam, data, slot, idx, rho, rho)
            worst = max(worst, abs(grad[idx] - fd) / max(abs(fd), 1e-12))
    return [("joint-node gradient vs finite differences", worst < 1e-6, f"max rel err {worst:.2e}")]


def check_projection() -> list[tuple[str, bool, str]]:
    rng = np.random.default_rng(14)
    results = []
    worst_unitarity = 0.0
    for _ in range(5):
        x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        p = project_to_unitary(x)
        worst_unitarity = max(worst_unitarity, unitarity_defect(p))
    results.append(("unitary projection unitarity", worst_unitarity < 1e-12, f"max defect {worst_unitarity:.2e}"))
    x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    p = project_to_unitary(x)
    d0 = np.linalg.norm(x - p)
    beaten = all(d0 <= np.linalg.norm(x - haar_unitary(4, rng)) + 1e-12 for _ in range(200))
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
