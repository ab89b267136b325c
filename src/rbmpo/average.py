"""Exact Clifford-averaged sequence fidelity, in closed form.

Averaging an RB sequence over a unitary 2-design collapses the gate average
into two environment-only superoperators per noise step:

* the *mixed-input* (pound) map: eps -> tr_S[ Lambda(eps x I/d) ],
  which propagates the trace sector, and
* the *loop map*: eps -> sum_{s,s'} <s| Lambda(eps x |s><s'|) |s'>, whose
  combination T = (loop - mixed)/(d^2 - 1) propagates the traceless sector.

This module holds the one implementation of that averaged step, shared by
the closed-form curve here and by the joint-node contractions in
:mod:`rbmpo.process_tensor`: :func:`env_maps` builds both maps with a single
einsum from a ket and a bra node stack, :func:`twirled_step` applies them to
a 4-leg operator X[e, s, f, t] = <es|X|ft> (and, with transposed maps, pulls
a functional backwards), and :func:`raw_slot` / :func:`raw_slot_adjoint`
apply an undressed preparation or final slot.

The step never mixes the sectors: with M the mixed map, the fidelity after m
steps is tr(M^m Y) + tr(T^m P) (Y, P: the prepared state's two sectors paired
with the measurement), one chain of d_env^2 x d_env^2 products over any leading
batch axes of the Kraus operators.  A 1-dimensional environment gives A p^m + B.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, ShapeError, UnsupportedConfigurationError
from .noise import NoiseSteps
from .quantum import GateSet, validate_density_matrix, validate_povm_element
from .rb import AsfCurve


def kraus_stack(ops: tuple[np.ndarray, ...], d_env: int, d_sys: int) -> np.ndarray:
    """Kraus operators on environment x system as one (..., k, e, s, f, t) node
    stack; leading batch axes of the operators are kept in front."""
    stack = np.stack([np.asarray(k, dtype=np.complex128) for k in ops], axis=-3)
    return stack.reshape(*stack.shape[:-3], -1, d_env, d_sys, d_env, d_sys)


def env_maps(ket: np.ndarray, bra: np.ndarray) -> np.ndarray:
    """The mixed-input (pound) and loop maps of one slot, stacked on axis 0.

    ``ket`` and ``bra`` are node stacks (..., k, e, s, f, t) whose Kraus axis
    k is summed over (the slot acts as X -> sum_k ket_k X bra_k^dag) and
    whose leading batch axes broadcast.  Each map is returned as
    (..., e, h, f, g), sending the environment operator eps[f, g] to
    ``tr_S[slot(eps x I/d_sys)]`` (mixed) or to
    ``sum_{s,s'} <s| slot(eps x |s><s'|) |s'>`` (loop), indexed [e, h].
    """
    d_sys = ket.shape[-1]
    eye = np.eye(d_sys)
    patterns = np.stack([
        np.einsum("tv,uw->tuvw", eye, eye) / d_sys,
        np.einsum("tu,vw->tuvw", eye, eye),
    ])
    return np.einsum("...qetfu,...qhvgw,ptuvw->p...ehfg", ket, np.conj(bra), patterns)


def env_loop_map(ops: tuple[np.ndarray, ...], d_env: int, d_sys: int) -> np.ndarray:
    """The loop map of one slot's Kraus operators as a (d_env^2, d_env^2) matrix
    on row-major vectorized environment operators (d_sys^2 x identity for the
    identity step).  Nothing in the package calls it; :func:`env_maps` does the work."""
    stack = kraus_stack(ops, d_env, d_sys)
    return env_maps(stack, stack)[1].reshape(d_env * d_env, d_env * d_env)


def env_mixed_map(ops: tuple[np.ndarray, ...], d_env: int, d_sys: int) -> np.ndarray:
    """The mixed-input map as :func:`env_loop_map` gives the loop map; trace
    preserving whenever the step is."""
    stack = kraus_stack(ops, d_env, d_sys)
    return env_maps(stack, stack)[0].reshape(d_env * d_env, d_env * d_env)


def bulk_maps(steps: NoiseSteps) -> np.ndarray:
    """:func:`env_maps` of the bulk slot: the mixed and loop maps as (e, h, f, g)
    arrays, stacked on axis 0."""
    stack = kraus_stack(steps.bulk, steps.d_env, steps.d_sys)
    return env_maps(stack, stack)


def _traceless_map(mixed: np.ndarray, loop: np.ndarray, d_sys: int) -> np.ndarray:
    """The traceless sector's environment map T = (loop - mixed)/(d_sys^2 - 1)."""
    return (loop - mixed) / (d_sys * d_sys - 1)


def twirled_step(x: np.ndarray, mixed: np.ndarray, loop: np.ndarray, d_sys: int) -> np.ndarray:
    """One 2-design-averaged slot acting on a 4-leg operator x[..., f, s, g, t].

    The trace sector tr_S[x] goes through the mixed map and the traceless
    remainder through T (:func:`_traceless_map`); written here as
    ``T(x) + ((mixed - T) tr_S[x]) x I/d_sys``.  With the maps transposed
    ([e, h, f, g] -> [f, g, e, h]) this is the adjoint step under the
    pairing sum(l * x), which pulls functionals backwards.
    """
    traceless = _traceless_map(mixed, loop, d_sys)
    t_env = np.einsum("...fsgs->...fg", x)
    out = np.einsum("...ehfg,...fsgt->...esht", traceless, x)
    trace_part = np.einsum("...ehfg,...fg->...eh", mixed - traceless, t_env) / d_sys
    return out + trace_part[..., :, None, :, None] * np.eye(d_sys)[:, None, :]


def raw_slot(ket: np.ndarray, bra: np.ndarray, x: np.ndarray) -> np.ndarray:
    """One slot without gate averaging: X -> sum_k ket_k X bra_k^dag.

    Node stacks as in :func:`env_maps`; x is (..., f, t, g, u).  The
    environment leg sizes may differ per argument (free bonds of a split
    joint node are threaded through this way).
    """
    return np.einsum("...qaibj,...bjcl,...qdmcl->...aidm", ket, x, np.conj(bra))


def raw_slot_adjoint(ket: np.ndarray, bra: np.ndarray, l: np.ndarray) -> np.ndarray:
    """Adjoint of :func:`raw_slot` under the pairing sum(l * X):
    l -> sum_k ket_k^T l conj(bra_k)."""
    return np.einsum("...qaibj,...aidm,...qdmcl->...bjcl", ket, l, np.conj(bra))


def prepared_state(steps: NoiseSteps, rho_sys: np.ndarray, prep: bool = True) -> np.ndarray:
    """rho_env x rho_sys as a 4-leg operator, passed through the preparation
    slot unless ``prep`` is False."""
    x = np.einsum("ef,st->esft", steps.rho_env, rho_sys)
    if prep:
        ops = kraus_stack(steps.prep, steps.d_env, steps.d_sys)
        x = raw_slot(ops, ops, x)
    return x


def measurement_functional(steps: NoiseSteps, povm: np.ndarray, final: bool = True) -> np.ndarray:
    """The functional l with sum(l * X) = tr[(I_env x M) Final(X)], i.e. the
    measurement pulled back through the final slot (left out when ``final``
    is False)."""
    l = np.einsum("ef,ts->esft", np.eye(steps.d_env, dtype=np.complex128), povm)
    if final:
        ops = kraus_stack(steps.final, steps.d_env, steps.d_sys)
        l = raw_slot_adjoint(ops, ops, l)
    return l


def _chain_curve(noise: NoiseSteps, rho_sys: np.ndarray, povm: np.ndarray, m_max: int):
    """Averaged fidelity at lengths 1..m_max, (..., m_max) over the batch axes
    of ``noise``'s Kraus operators; unchecked inputs.  With x the prepared state
    and l the measurement functional, Y = tr_S(x) tr_S(l)^T / d_sys and
    P = x l^T - Y pair them over (ket, bra) environment legs."""
    d_sys, n = noise.d_sys, noise.d_env * noise.d_env
    x = prepared_state(noise, rho_sys)
    meas = measurement_functional(noise, povm)
    mixed, loop = bulk_maps(noise)
    trace_part = np.einsum("...esfs,...gtht->...efgh", x, meas) / d_sys
    states = np.stack([trace_part, np.einsum("...esft,...gsht->...efgh", x, meas) - trace_part])
    ops = np.stack([mixed, _traceless_map(mixed, loop, d_sys)])
    states, ops = (a.reshape(*a.shape[:-4], n, n) for a in (states, ops))
    values = []
    for _ in range(m_max):
        states = ops @ states
        values.append(np.einsum("k...ii->...", states).real)
    return np.stack(values, axis=-1)


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
    rho_sys = validate_density_matrix(np.asarray(rho_sys, dtype=np.complex128), name="rho_sys")
    povm = validate_povm_element(np.asarray(povm, dtype=np.complex128))
    if rho_sys.shape[0] != noise.d_sys or povm.shape[0] != noise.d_sys:
        raise ShapeError("state/POVM dimension does not match the noise model's system")

    return _chain_curve(noise, rho_sys, povm, m_max)


def clifford_averaged_asf(
    noise: NoiseSteps,
    rho_sys: np.ndarray,
    povm: np.ndarray,
    m: int,
    gate_set: GateSet | None = None,
) -> float:
    """Exact 2-design-averaged sequence fidelity at one length."""
    return float(clifford_averaged_asf_curve(noise, rho_sys, povm, m, gate_set)[-1])


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


def golden_section(objective, lo: float, hi: float, tol: float, max_iter: int) -> float:
    """Golden-section minimization of a unimodal `objective` on [lo, hi]: the
    bracket's midpoint once narrower than `tol` or after `max_iter` shrinks."""
    search = _golden_steps(lo, hi, tol, max_iter)
    return _lockstep([search], lambda trials: [objective(p) for p in trials.values()])[0]


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

    p_best = golden_section(lambda p: _solve_linear(p ** ms, ys)[2], lo, hi, 1e-15, 200)
    amp, off, sse = _solve_linear(p_best ** ms, ys)
    slope, line_off, line_sse = _solve_linear(ms, ys)
    if line_sse <= sse + len(ys) * (1e-14 * float(np.max(np.abs(ys)))) ** 2:
        resid = float(np.max(np.abs(slope * ms + line_off - ys)))
        return ExpFit(0.0, 1.0, line_off, resid, degenerate=True, slope=slope)
    resid = float(np.max(np.abs(amp * p_best ** ms + off - ys)))
    return ExpFit(amp, p_best, off, resid)
