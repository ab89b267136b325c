"""Exact Clifford-averaged sequence fidelity, in closed form.

Averaging an RB sequence over a unitary 2-design collapses the gate average
into two environment-only superoperators per noise step:

* the *mixed-input* (pound) map: eps -> tr_S[ Lambda(eps x I/d) ],
  which propagates the trace sector, and
* the *loop map*: eps -> sum_{s,s'} <s| Lambda(eps x |s><s'|) |s'>, whose
  combination T = (loop - mixed)/(d^2 - 1) propagates the traceless sector.

The averaged step never mixes the two sectors.  This module holds its one
implementation, shared by the closed-form curve here and by the joint-node
contractions in :mod:`rbmpo.process_tensor`: :func:`env_maps` builds both maps
from a ket and a bra node stack, each as one pairwise contraction (the mixed
map pairs the nodes' system legs, the loop map is the outer product of their
partial traces), :func:`sector_maps` stacks a slot's [mixed, T] as
d_env^2 x d_env^2 matrices, and :func:`sector_pairs` pairs a 4-leg state
X[e, s, f, t] = <es|X|ft> with a functional into the matrices [Y, P] of the
two sectors, which those maps act on.  The fidelity after m bulk steps is
tr(M^m Y) + tr(T^m P) (M the mixed map), one chain of matrix products over
any leading batch axes of the Kraus operators, traced in blocks of about
sqrt(m_max) lengths, so that its memory is O(nodes * sqrt(m_max)); a
1-dimensional environment gives A p^m + B.
:func:`raw_slot` and :func:`raw_slot_adjoint` apply an undressed preparation
or final slot, each as two pairwise contractions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, UnsupportedConfigurationError
from .noise import NoiseSteps, kraus_stack
from .quantum import GateSet, validate_state_and_povm
from .rb import AsfCurve


def env_maps(ket: np.ndarray, bra: np.ndarray) -> np.ndarray:
    """The mixed-input (pound) and loop maps of one slot, stacked on axis 0.

    ``ket`` and ``bra`` are node stacks (..., k, e, s, f, t) whose Kraus axis
    k is summed over (the slot acts as X -> sum_k ket_k X bra_k^dag) and
    whose leading batch axes broadcast.  Each map is returned as
    (..., e, h, f, g), sending the environment operator eps[f, g] to
    ``tr_S[slot(eps x I/d_sys)]`` (mixed) or to
    ``sum_{s,s'} <s| slot(eps x |s><s'|) |s'>`` (loop), indexed [e, h].
    Each map is one pairwise contraction of the two nodes: the mixed map
    pairs their system legs, the loop map is the outer product of their
    partial traces.
    """
    bra = np.conj(bra)
    mixed = np.einsum("...qetfu,...qhtgu->...ehfg", ket, bra) / ket.shape[-1]
    loop = np.einsum("...qef,...qhg->...ehfg", np.einsum("...qetft->...qef", ket),
                     np.einsum("...qhtgt->...qhg", bra))
    return np.array([mixed, loop])


def env_loop_map(ops: tuple[np.ndarray, ...], d_env: int) -> np.ndarray:
    """The loop map of one slot's Kraus operators as a (d_env^2, d_env^2) matrix
    on row-major vectorized environment operators (d_sys^2 x identity for the
    identity step).  Nothing in the package calls it; :func:`env_maps` does the work."""
    stack = kraus_stack(ops, d_env)
    return env_maps(stack, stack)[1].reshape(d_env * d_env, d_env * d_env)


def env_mixed_map(ops: tuple[np.ndarray, ...], d_env: int) -> np.ndarray:
    """The mixed-input map as :func:`env_loop_map` gives the loop map; trace
    preserving whenever the step is."""
    stack = kraus_stack(ops, d_env)
    return env_maps(stack, stack)[0].reshape(d_env * d_env, d_env * d_env)


def sector_maps(ket: np.ndarray, bra: np.ndarray) -> np.ndarray:
    """One averaged slot as the stacked matrices [mixed, T] of :func:`env_maps`,
    T = (loop - mixed)/(d_sys^2 - 1), shaped (..., 2, e h, f g).  The sector
    axis sits just before the matrix axes, so the stacks' batch axes broadcast
    in front of it.  Left multiplication takes :func:`sector_pairs` one slot
    on; right multiplication pulls the functional back one slot."""
    mixed, loop = env_maps(ket, bra)
    d_sys = ket.shape[-1]
    maps = np.concatenate([mixed[..., None, :, :, :, :],
                           ((loop - mixed) / (d_sys * d_sys - 1))[..., None, :, :, :, :]], axis=-5)
    e, h, f, g = maps.shape[-4:]
    return maps.reshape(*maps.shape[:-4], e * h, f * g)


def sector_pairs(x: np.ndarray, l: np.ndarray) -> np.ndarray:
    """A state x[..., e, s, f, t] paired with a functional l[..., g, s, h, t]:
    Y = tr_S(x) tr_S(l)^T / d_sys (trace sector) and P = x l^T - Y (traceless
    sector), stacked as (..., 2, e f, g h).  The trace of Y + P is sum(l * x)."""
    d_sys = x.shape[-1]
    trace_part = np.einsum("...esfs,...gtht->...efgh", x, l) / d_sys
    traceless = np.einsum("...esft,...gsht->...efgh", x, l) - trace_part
    pairs = np.concatenate([trace_part[..., None, :, :, :, :], traceless[..., None, :, :, :, :]],
                           axis=-5)
    e, f, g, h = pairs.shape[-4:]
    return pairs.reshape(*pairs.shape[:-4], e * f, g * h)


def raw_slot(ket: np.ndarray, bra: np.ndarray, x: np.ndarray) -> np.ndarray:
    """One slot without gate averaging: X -> sum_k ket_k X bra_k^dag.

    Node stacks as in :func:`env_maps`; x is (..., f, t, g, u).  The
    environment leg sizes may differ per argument (free bonds of a split
    joint node are threaded through this way).  Two pairwise contractions:
    ket_k X, then its product with each bra_k^dag.
    """
    kx = np.einsum("...qaibj,...bjcl->...qaicl", ket, x)
    return np.einsum("...qaicl,...qdmcl->...aidm", kx, np.conj(bra))


def raw_slot_adjoint(ket: np.ndarray, bra: np.ndarray, l: np.ndarray) -> np.ndarray:
    """Adjoint of :func:`raw_slot` under the pairing sum(l * X):
    l -> sum_k ket_k^T l conj(bra_k), as two pairwise contractions."""
    kl = np.einsum("...qaibj,...aidm->...qbjdm", ket, l)
    return np.einsum("...qbjdm,...qdmcl->...bjcl", kl, np.conj(bra))


def prepared_state(steps: NoiseSteps, rho_sys: np.ndarray, prep: bool = True) -> np.ndarray:
    """rho_env x rho_sys as a 4-leg operator, passed through the preparation
    slot unless ``prep`` is False."""
    x = np.einsum("ef,st->esft", steps.rho_env, rho_sys)
    if prep:
        ops = kraus_stack(steps.prep, steps.d_env)
        x = raw_slot(ops, ops, x)
    return x


def measurement_functional(steps: NoiseSteps, povm: np.ndarray, final: bool = True) -> np.ndarray:
    """The functional l with sum(l * X) = tr[(I_env x M) Final(X)], i.e. the
    measurement pulled back through the final slot (left out when ``final``
    is False)."""
    l = np.einsum("ef,ts->esft", np.eye(steps.d_env, dtype=np.complex128), povm)
    if final:
        ops = kraus_stack(steps.final, steps.d_env)
        l = raw_slot_adjoint(ops, ops, l)
    return l


def _chain_curve(noise: NoiseSteps, rho_sys: np.ndarray, povm: np.ndarray, m_max: int):
    """Averaged fidelity at lengths 1..m_max, (..., m_max) over the batch axes
    of ``noise``'s Kraus operators; unchecked inputs.  The prepared state's
    :func:`sector_pairs` with the measurement functional go through the bulk
    slot's :func:`sector_maps` once per length, in blocks of k = ceil(sqrt(m_max))
    lengths: each block's pairs are written into one reusable (k, ...) buffer
    that one einsum traces into the block's slice of the curve, and the last
    pairs carry over to the next block.  Memory is O(nodes * sqrt(m_max)), and
    each value is the one tracing all lengths at once would give, bit for bit."""
    states = sector_pairs(prepared_state(noise, rho_sys), measurement_functional(noise, povm))
    bulk = kraus_stack(noise.bulk, noise.d_env)
    ops = sector_maps(bulk, bulk)
    k = math.isqrt(m_max - 1) + 1
    block = np.empty((k, *np.broadcast_shapes(ops.shape, states.shape)), dtype=np.complex128)
    curve = np.empty((*block.shape[1:-3], m_max))
    for start in range(0, m_max, k):
        size = min(k, m_max - start)
        for n in range(size):
            states = np.matmul(ops, states, out=block[n])
        curve[..., start:start + size] = np.einsum("m...kii->...m", block[:size]).real
    return curve


def clifford_averaged_asf_curve(
    noise: NoiseSteps,
    rho_sys: np.ndarray,
    povm: np.ndarray,
    m_max: int,
    gate_set: GateSet | None = None,
) -> np.ndarray:
    """Exact 2-design-averaged sequence fidelity for every length 1..m_max.

    All lengths share one chain of (d_env^2, d_env^2) matrix products, one
    product per length (see the module docstring).

    Args:
        noise: the noise slots on environment x system; a memoryless
            channel has ``d_env == 1``.
        rho_sys: initial system state.
        povm: measured POVM element.
        m_max: largest sequence length.
        gate_set: optional; if given it must be flagged as a unitary
            2-design, otherwise the closed form does not apply.
    """
    if gate_set is not None and not gate_set.is_two_design:
        raise UnsupportedConfigurationError(
            f"gate set {gate_set.label!r} is not flagged as a unitary 2-design; "
            "use the Monte Carlo estimator instead"
        )
    if m_max < 1:
        raise InputError(f"m_max must be >= 1, got {m_max}")
    rho_sys, povm = validate_state_and_povm(rho_sys, povm, noise.d_sys)
    return _chain_curve(noise, rho_sys, povm, m_max)


@dataclass(frozen=True)
class ExpFit:
    """Least-squares fit of an ASF curve to amplitude * decay^m + offset + slope * m.

    ``slope`` is nonzero only for a ``degenerate`` fit: the line
    offset + slope * m, the p -> 1 limit of the exponential family (A -> inf
    with A (p - 1) -> slope), reported with amplitude 0 and decay 1 when no
    exponential with p in [-1, 1) fits better.  A flat curve is its slope-0
    case.  ``max_residual`` is the largest pointwise residual of the fit.
    """

    amplitude: float
    decay: float
    offset: float
    max_residual: float
    degenerate: bool = False
    slope: float = 0.0


def _solve_linear(column: np.ndarray, ys: np.ndarray) -> tuple[float, float, float]:
    """Best (A, B) of ys ~ A * column + B; returns (A, B, sse)."""
    design = np.column_stack([column, np.ones_like(column)])
    coef, *_ = np.linalg.lstsq(design, ys, rcond=None)
    resid = design @ coef - ys
    return float(coef[0]), float(coef[1]), float(resid @ resid)


def _golden_steps(lo: float, hi: float, tol: float, max_iter: int):
    """Golden-section minimization on [lo, hi] as a generator: it yields each
    trial point, receives the objective's value there, and returns the
    bracket's midpoint once narrower than `tol` or after `max_iter` shrinks."""
    phi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    fc = yield c
    fd = yield d
    for _ in range(max_iter):
        if b - a < tol:
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = yield c
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = yield d
    return float((a + b) / 2.0)


def _lockstep(searches: list, objective) -> list:
    """Run search generators to their ends in lockstep; returns their results.
    Each step answers the trial points {index: point} of the searches still
    running with one ``objective`` call; a search ends as it would alone."""
    trials = {r: next(search) for r, search in enumerate(searches)}
    results = {}
    while trials:
        for r, value in zip(list(trials), objective(trials)):
            try:
                trials[r] = searches[r].send(float(value))
            except StopIteration as stop:
                results[r] = stop.value
                del trials[r]
    return [results[r] for r in range(len(searches))]


def fit_exponential(curve: AsfCurve) -> ExpFit:
    """Fit A p^m + B with p constrained to [-1, 1), or its p -> 1 limit, a line.

    Deterministic: a fixed grid over p followed by golden-section refinement;
    (A, B) are solved linearly at each candidate p.  When the least-squares
    line fits at least as well (to rounding), the line is returned as the
    degenerate fit: without it a near-linear curve comes back as a huge A and
    B cancelling at p = 1 - 1e-9.
    """
    if len(curve.lengths) < 4:
        raise InputError("exponential fit needs at least 4 points")
    ms = np.asarray(curve.lengths, dtype=np.float64)
    ys = np.asarray(curve.means, dtype=np.float64)

    grid = np.linspace(-1.0, 1.0, 4001)
    sses = np.array([_solve_linear(p ** ms, ys)[2] for p in grid])
    k = int(np.argmin(sses))
    lo = grid[max(k - 1, 0)]
    hi = grid[min(k + 1, len(grid) - 1)]

    p_best = _lockstep([_golden_steps(lo, hi, 1e-15, 200)],
                       lambda trials: [_solve_linear(p ** ms, ys)[2] for p in trials.values()])[0]
    amp, off, sse = _solve_linear(p_best ** ms, ys)
    slope, line_off, line_sse = _solve_linear(ms, ys)
    if line_sse <= sse + len(ys) * (1e-14 * float(np.max(np.abs(ys)))) ** 2:
        resid = float(np.max(np.abs(slope * ms + line_off - ys)))
        return ExpFit(0.0, 1.0, line_off, resid, degenerate=True, slope=slope)
    resid = float(np.max(np.abs(amp * p_best ** ms + off - ys)))
    return ExpFit(amp, p_best, off, resid)
