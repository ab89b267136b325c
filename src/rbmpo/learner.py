"""Sweeping learner: fits a unitary environment-coupled noise node to ASF data.

The model is a single time-independent unitary node on environment x system,
repeated in every noise slot of the process tensor, with the environment
fixed in |0><0|.  One iteration of the sweep:

1. fuse the node with its neighbour at the scheduled slot pair into a joint
   node (contracting their shared environment bond);
2. take the gradient of the quadratic cost in the joint node (the fidelity
   is linear in it, so the gradient is a residual-weighted sum of
   coefficient tensors) and apply the optimizer's update (Adagrad or Adam,
   each with ``init`` and ``step``);
3. split the updated joint node by SVD, keep the leading d_env singular
   directions and project each regrouped factor onto the unitary group;
4. replace the shared node in all slots by the principal unitary square
   root of the projected pair, which reproduces an unperturbed node exactly.

The no-noise start is a stationary saddle of the cost on the unitary group,
so no first-order step leaves it.  Training first departs it: each round
measures the cost gradient and Hessian along the unitary tangent directions
by finite differences, line-minimizes along the descent ray and every
negative-curvature eigenray, and moves to the best endpoint, until the data
is matched or no ray descends.  Correlated data develops negative curvature
in the environment-coupling directions, memoryless data does not.  The one
evaluator, :func:`evaluate`, takes a node or a stack (one averaged chain for
the stack) into a :class:`Fit` (cost, l1, node, predicted curve), and
:func:`cost` reads its cost: a round's probes are cost calls of at most
2 dim^2 nodes each, its rays' line searches one cost call per lockstep step,
and its endpoints one evaluation.  Every probe and ray direction is
eigendecomposed once, in one stacked ``eigh`` per round, and each rotation
exp(-i theta H) is taken from it.  Each node is evaluated once; the sweep and
:func:`train` read residuals and traces off the fits they keep.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import ClassVar, NamedTuple, Union

import numpy as np

from .average import _chain_curve, _golden_steps, _lockstep
from .errors import DomainError, NumericalError, ShapeError
from .linalg import principal_unitary_sqrt, project_to_unitary, svd, unitarity_defect
from .noise import UNITARITY_TOL, NoiseSteps, diagnose_markovianity, eigh_expm, kraus_stack
from .process_tensor import asf_joint_coefficient, joint_node, split_joint
from .quantum import validate_state_and_povm
from .rb import AsfCurve


# --------------------------------------------------------------------------
# optimizers
# --------------------------------------------------------------------------

def _check_rates(opt: "Adagrad | Adam") -> None:
    """Both optimizers need a positive rate and a positive epsilon."""
    if not (opt.rate > 0.0 and opt.epsilon > 0.0):
        raise DomainError(f"{opt.kind} rate and epsilon must be positive, "
                          f"got {opt.rate}, {opt.epsilon}")


@dataclass(frozen=True)
class Adagrad:
    """Per-entry adaptive rate alpha / sqrt(sum |g|^2).

    ``init(shape)`` builds the accumulators; ``step(acc, grad)`` returns the
    scaled update for one gradient and updates them in place.  Complex
    entries share one magnitude accumulator per entry: |g|^2 drives the
    adaptive denominator for both quadratures.
    """

    kind: ClassVar[str] = "adagrad"
    rate: float = 1e-5
    epsilon: float = 1e-8

    def __post_init__(self):
        _check_rates(self)

    def init(self, shape: tuple[int, ...]) -> dict:
        return {"sq_sum": np.zeros(shape, dtype=np.float64)}

    def step(self, acc: dict, grad: np.ndarray) -> np.ndarray:
        if acc["sq_sum"].shape != grad.shape:
            raise ShapeError("accumulator shape does not match the gradient")
        acc["sq_sum"] += np.abs(grad) ** 2
        return self.rate * grad / np.sqrt(acc["sq_sum"] + self.epsilon)


@dataclass(frozen=True)
class Adam:
    """Bias-corrected first/second moment update, with the same ``init`` and
    ``step`` as :class:`Adagrad`; |g|^2 drives a complex entry's second moment."""

    kind: ClassVar[str] = "adam"
    rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.99
    epsilon: float = 1e-8

    def __post_init__(self):
        _check_rates(self)
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise DomainError(f"Adam betas must lie in [0, 1), got {self.beta1}, {self.beta2}")

    def init(self, shape: tuple[int, ...]) -> dict:
        return {"m1": np.zeros(shape, dtype=np.complex128), "m2": np.zeros(shape), "t": 0}

    def step(self, acc: dict, grad: np.ndarray) -> np.ndarray:
        if acc["m1"].shape != grad.shape:
            raise ShapeError("accumulator shape does not match the gradient")
        acc["t"] += 1
        acc["m1"] = self.beta1 * acc["m1"] + (1.0 - self.beta1) * grad
        acc["m2"] = self.beta2 * acc["m2"] + (1.0 - self.beta2) * np.abs(grad) ** 2
        m_hat = acc["m1"] / (1.0 - self.beta1 ** acc["t"])
        v_hat = acc["m2"] / (1.0 - self.beta2 ** acc["t"])
        return self.rate * m_hat / (np.sqrt(v_hat) + self.epsilon)


OptimizerConfig = Union[Adagrad, Adam]


# --------------------------------------------------------------------------
# configuration and result
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class LearnerConfig:
    d_env: int = 2
    optimizer: OptimizerConfig = field(default_factory=Adagrad)
    max_iterations: int = 200
    convergence_divisor: float = 1.0
    departure_rounds: int = 8

    def __post_init__(self):
        if self.d_env < 1:
            raise DomainError("d_env must be positive")
        if not self.convergence_divisor >= 1.0:
            raise DomainError("convergence divisor must be >= 1")
        if self.departure_rounds < 0:
            raise DomainError("departure_rounds must be >= 0")
        if self.max_iterations < 0:
            raise DomainError("max_iterations must be >= 0")


@dataclass(frozen=True)
class TrainingResult:
    node: np.ndarray
    predicted: AsfCurve
    cost_trace: tuple[float, ...]
    l1_trace: tuple[float, ...]
    unitarity_trace: tuple[float, ...]
    converged: bool
    best_iteration: int

    @property
    def iterations(self) -> int:
        return len(self.cost_trace) - 1


# --------------------------------------------------------------------------
# pieces of one sweep iteration
# --------------------------------------------------------------------------

def predicted_curve(node: np.ndarray, d_env: int, rho_sys, povm, lengths) -> np.ndarray:
    """The model's averaged curve at ``lengths``: (len(lengths),) for one node,
    (..., len(lengths)) for a stack of nodes (..., dim, dim), in one chain.
    ``rho_sys`` and ``povm`` are not checked here; :func:`train` checks them."""
    full = _chain_curve(NoiseSteps.uniform(node, d_env), rho_sys, povm, max(lengths))
    # np.take keeps rows contiguous, so they sum in the order single curves do
    return np.take(full, np.asarray(lengths) - 1, axis=-1)


class Fit(NamedTuple):
    """Cost, l1 distance and predicted curve at ``node``, over a stack's leading axes."""

    cost: float | np.ndarray
    l1: float | np.ndarray
    node: np.ndarray
    predicted: np.ndarray


def evaluate(node: np.ndarray, data: AsfCurve, rho_sys, povm) -> Fit:
    """The model at one node (dim, dim) or a stack (..., dim, dim), evaluated once into a
    :class:`Fit`; each row of a stack's fit equals its node's own, bit for bit.  The
    environment's size is the node's dim over ``rho_sys``'s."""
    predicted = predicted_curve(node, node.shape[-1] // len(rho_sys), rho_sys, povm, data.lengths)
    resid = predicted - np.asarray(data.means)
    return Fit(0.5 * np.sum(resid * resid, -1), np.sum(np.abs(resid), -1), node, predicted)


def cost(node: np.ndarray, data: AsfCurve, rho_sys, povm) -> float | np.ndarray:
    """Quadratic cost between model predictions and the measured curve: a
    float for one node, an array over the leading axes of a node stack."""
    return evaluate(node, data, rho_sys, povm).cost


def gradient_joint(fit: Fit, data: AsfCurve, rho_sys, povm, slot_i: int) -> np.ndarray:
    """Descent direction for the joint node at slots (slot_i, slot_i - 1).

    Sum over curve points of (measured - predicted), read off ``fit``, times
    the fidelity's coefficient tensor in the joint node of ``fit.node``, as
    one weighted coefficient; lengths n < slot_i - 1 contribute nothing.
    """
    steps = NoiseSteps.uniform(fit.node, len(fit.node) // len(rho_sys))
    stack = kraus_stack(steps.bulk, steps.d_env)
    resid = fit.predicted - np.asarray(data.means)
    return asf_joint_coefficient(steps, slot_i, dict(zip(data.lengths, -resid)), rho_sys, povm,
                                 (stack, stack))


def split_truncate(joint: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """SVD-split a joint node and keep the leading d_env bond directions.

    The (e_up, s_i, s_i', e_dn, s_j, s_j') joint node's (d_env d_sys^2)
    square matrix is factored as (U sqrt(S)) (sqrt(S) V^dag), truncated to
    bond d_env, and each factor is regrouped by
    :func:`rbmpo.process_tensor.split_joint` into a square d_env*d_sys node:
    the bond becomes the upper factor's environment input and the lower
    factor's environment output.
    """
    d_env, d_sys = joint.shape[:2]
    u, s, vh = svd(joint.reshape(d_env * d_sys * d_sys, -1))
    sqrt_s = np.sqrt(s[:d_env])
    upper, lower = split_joint(u[:, :d_env] * sqrt_s, sqrt_s[:, None] * vh[:d_env, :], joint.shape)
    n = d_env * d_sys
    return upper.reshape(n, n), lower.reshape(n, n)


def replacement_node(
    upper: np.ndarray, lower: np.ndarray, near: np.ndarray | None = None
) -> np.ndarray:
    """Single-slot node that replaces every slot after a joint update.

    Both factors are projected onto the unitary group and composed over the
    bond into the two-slot propagator; the time-independent per-slot node is
    its unitary square root, with the branch chosen closest to ``near`` (the
    node being replaced), so that splitting an unperturbed joint hands back
    the original node.  Since project(A @ W) = project(A) @ W, a unitary W on
    the bond (upper @ W, W^dag @ lower), such as the SVD's phase gauge, does
    not change the result.
    """
    return principal_unitary_sqrt(project_to_unitary(upper) @ project_to_unitary(lower), near=near)


#: Angle of the finite-difference probes along the unitary tangent directions.
_PROBE_ANGLE = 1e-3


def _hermitian_basis(dim: int) -> np.ndarray:
    """An orthonormal basis of the Hermitian dim x dim matrices, (dim^2, dim, dim)."""
    basis = [np.diag(e) for e in np.eye(dim, dtype=np.complex128)]
    for j, k in combinations(range(dim), 2):
        sym, asym = np.zeros((2, dim, dim), dtype=np.complex128)
        sym[j, k] = sym[k, j] = 1.0 / np.sqrt(2.0)
        asym[j, k], asym[k, j] = -1j / np.sqrt(2.0), 1j / np.sqrt(2.0)
        basis += [sym, asym]
    return np.stack(basis)


def _tangent_probe(
    node: np.ndarray, c0: float, data: AsfCurve, rho_sys, povm
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradient and Hessian of the cost on the unitary tangent space at `node`.

    Central differences of cost(exp(-i eta H) node), eta = _PROBE_ANGLE, along
    each Hermitian basis element H and each pairwise sum; `c0` is the known
    cost at `node`.  The probe directions +-H (272 at dim 4, 1,332 at dim 6)
    are eigendecomposed once each, in one stacked ``eigh``
    (:func:`_ray_rotations`), and the probe nodes are rotated and costed in
    order, in batched :func:`cost` calls of at most 2 dim^2 nodes, the size of
    a line-search step's stack, so the probe's memory is that of one slice.
    Returns (gradient coefficients, Hessian matrix, basis).
    """
    basis = _hermitian_basis(node.shape[0])
    unit = np.eye(len(basis))
    j, k = np.triu_indices(len(basis), 1)
    coeffs = np.concatenate([unit, unit[j] + unit[k]])
    # each direction in both orientations, +H then -H; the coefficients are 0 and +-1, so each
    # entry is one exact sum, which einsum forms without a (threaded) BLAS product
    signed = np.stack([coeffs, -coeffs], axis=1).reshape(-1, len(basis))
    rotate = _ray_rotations(node, np.einsum("rb,bij->rij", signed, basis))
    rays, size = range(len(signed)), 2 * len(basis)
    plus, minus = np.concatenate([
        cost(rotate(dict.fromkeys(rays[s:s + size], _PROBE_ANGLE)), data, rho_sys, povm)
        for s in range(0, len(rays), size)]).reshape(-1, 2).T
    grad = (plus[:len(basis)] - minus[:len(basis)]) / (2.0 * _PROBE_ANGLE)
    second = (plus - 2.0 * c0 + minus) / _PROBE_ANGLE**2
    diag = second[:len(basis)]
    hess = np.diag(diag)
    hess[j, k] = hess[k, j] = (second[len(basis):] - diag[j] - diag[k]) / 2.0
    return grad, hess, basis


def _ray_rotations(node: np.ndarray, directions: np.ndarray):
    """The rotations of ``node`` along Hermitian ``directions`` (r, dim, dim),
    each eigendecomposed once, in one stacked ``eigh``.  Returns ``rotate``:
    {ray index: angle theta} -> the stack of exp(-i theta H_r) node, in the
    dict's order, equal bit for bit to ``hermitian_expm(H_r, -1j * theta) @ node``."""
    w, v = np.linalg.eigh(directions)

    def rotate(trials: dict[int, float]) -> np.ndarray:
        rays = list(trials)
        scale = -1j * np.array(list(trials.values()))[:, None]
        return eigh_expm(w[rays], v[rays], scale) @ node

    return rotate


def _search_rays(node: np.ndarray, c0: float, directions: np.ndarray, data: AsfCurve,
                 rho_sys, povm):
    """Line-minimize the cost along each ray exp(-i theta H_r) node, H_r in
    ``directions`` (r, dim, dim), given the cost ``c0`` at ``node``.  The
    searches run in lockstep, one batched :func:`cost` call per step over the
    rays still searching, and every rotation comes from :func:`_ray_rotations`.
    Returns the minimizing angles and that ``rotate``."""
    rotate = _ray_rotations(node, directions)
    thetas = _lockstep([_line_minimize(c0) for _ in directions],
                       lambda trials: cost(rotate(trials), data, rho_sys, povm))
    return thetas, rotate


def _line_minimize(f0: float):
    """Deterministic 1-D minimization of a cost over 0 <= theta <= pi, given its
    value `f0` at theta = 0, as a generator: it yields each trial angle,
    receives the cost there, and returns the minimizing angle (possibly 0).

    Geometric expansion from 1e-4 brackets the minimum, golden-section
    refines it.
    """
    thetas = [0.0]
    values = [f0]
    t = 1e-4
    while t <= np.pi:
        thetas.append(t)
        values.append((yield t))
        if len(values) >= 3 and values[-1] > values[-2] and values[-2] <= values[0]:
            break
        t *= 2.0
    k = int(np.argmin(values))
    if k == 0:
        return 0.0
    lo = thetas[k - 1]
    hi = thetas[k + 1] if k + 1 < len(thetas) else min(thetas[k] * 2.0, np.pi)
    return (yield from _golden_steps(lo, hi, 1e-12, 120))


def saddle_departure(
    node: np.ndarray,
    data: AsfCurve,
    rho_sys,
    povm,
    max_rounds: int,
    l1_stop: float,
) -> Fit:
    """Second-order departure from a stationary start, by best-ray descent.

    Each round probes the cost gradient and Hessian on the unitary tangent
    space and line-minimizes along every candidate ray: the
    descent-gradient ray and each negative-curvature eigenray (beyond the
    probe's round-off) in both orientations.  If some endpoints already
    match the data to within ``l1_stop``, the round moves to the one among
    them with the least environment coupling (the model should carry no
    more non-Markovianity than the data demands); otherwise it moves to the
    lowest-cost endpoint.  Rounds stop when the data is matched, no ray
    improves the cost, or ``max_rounds`` have run.  The start is evaluated
    once, a round's endpoints at non-zero angles once, as one stack, and the
    round carries the chosen row's :class:`Fit`.  A round's probes are costed
    in slices of at most 2 dim^2 nodes (:func:`_tangent_probe`), and its
    rays' line searches run in lockstep, one batched cost call per
    bracketing or golden-section step over the rays still searching
    (:func:`_search_rays`).  The round's ray directions are
    eigendecomposed once, as one stacked ``eigh``, and every trial and
    endpoint is rotated from it.
    Deterministic: no randomness enters at any point.
    """
    current = evaluate(node.copy(), data, rho_sys, povm)
    for _ in range(max_rounds):
        if current.l1 <= l1_stop:
            break
        grad, hess, basis = _tangent_probe(current.node, current.cost, data, rho_sys, povm)
        rays = []
        gnorm = float(np.linalg.norm(grad))
        if gnorm > 0.0:
            rays.append(-grad / gnorm)
        w, v = np.linalg.eigh(hess)
        # the second differences carry a round-off of about 4 eps c0 / eta^2:
        # a less negative eigenvalue is no curvature
        floor = -4.0 * np.finfo(float).eps * current.cost / _PROBE_ANGLE**2
        for k in np.flatnonzero(w < floor):
            rays += [v[:, k], -v[:, k]]
        if not rays:
            break

        thetas, rotate = _search_rays(current.node, current.cost, np.tensordot(rays, basis, axes=1),
                                      data, rho_sys, povm)
        moved = {r: theta for r, theta in enumerate(thetas) if theta != 0.0}
        if not moved:
            break
        ends = evaluate(rotate(moved), data, rho_sys, povm)
        better = np.flatnonzero(ends.cost < current.cost - 1e-15)
        if not better.size:
            break
        matched = better[ends.l1[better] <= l1_stop]
        if matched.size:
            k = min(matched, key=lambda i: diagnose_markovianity(
                ends.node[i], len(node) // len(rho_sys)).off_block_norm)
        else:
            k = better[np.argmin(ends.cost[better])]
        current = Fit._make(value[k] for value in ends)
    return current


def sweep_iteration(
    fit: Fit,
    accumulators: dict,
    iteration: int,
    data: AsfCurve,
    rho_sys,
    povm,
    config: LearnerConfig,
) -> np.ndarray:
    """One full sweep update of the shared node ``fit.node``; returns the next node.

    The joint node sits at slots (i, i - 1), with i = 1 + iteration mod
    (m_max + 1); the optimizer accumulators are updated in place.  A zero
    gradient is a stationary point: the node is returned untouched rather
    than run through the split/recombine cycle.
    """
    node, d_env = fit.node, config.d_env
    m_max = max(data.lengths)
    slot_i = 1 + iteration % (m_max + 1)

    grad = gradient_joint(fit, data, rho_sys, povm, slot_i)
    if not np.abs(grad).max() > 0.0:
        return node
    update = config.optimizer.step(accumulators, grad)
    joint = joint_node(node, node, d_env) + update
    upper, lower = split_truncate(joint)
    new_node = replacement_node(upper, lower, near=node)
    defect = unitarity_defect(new_node)
    if not defect <= UNITARITY_TOL:
        raise NumericalError(f"updated node violates unitarity ({defect:.3e} > {UNITARITY_TOL})")
    return new_node


def train(data: AsfCurve, rho_sys, povm, config: LearnerConfig) -> TrainingResult:
    """Run the sweeping algorithm on an ASF curve.

    Starts from the identity node (no noise) with the environment in |0><0|.
    Unless the data is already matched there, the identity is a stationary
    saddle of the cost, so the curvature-probing departure stage positions
    the node first (see :func:`saddle_departure`); iteration counting and
    the traces start at the fit it returns.  The sweep then iterates until
    the l1 distance between predicted and measured curves drops below (sum
    of measurement standard errors) divided by convergence_divisor, or the
    iteration budget runs out.  Each iterate is one :class:`Fit`; the first
    minimum-cost fit, not the final one (the cost trace is not monotone),
    gives the returned node and its predicted curve.
    """
    rho_sys, povm = validate_state_and_povm(rho_sys, povm)
    d_sys = rho_sys.shape[0]
    sigma_total = float(np.sum(np.abs(data.stderrs)))
    # floating-point floor: noiseless curves carry ~1e-16 round-off per point,
    # which would make an exactly-zero l1 target unreachable
    threshold = max(sigma_total / config.convergence_divisor, 1e-10)

    accumulators = config.optimizer.init((config.d_env, d_sys, d_sys) * 2)
    fits = [saddle_departure(np.eye(config.d_env * d_sys, dtype=np.complex128), data, rho_sys,
                             povm, config.departure_rounds, threshold)]
    while True:
        fit, iteration = fits[-1], len(fits) - 1
        if not np.isfinite(fit.cost):
            raise NumericalError(f"cost diverged at iteration {iteration}")
        if fit.l1 <= threshold or iteration >= config.max_iterations:
            break
        node = sweep_iteration(fit, accumulators, iteration, data, rho_sys, povm, config)
        fits.append(evaluate(node, data, rho_sys, povm))

    cost_trace = tuple(float(f.cost) for f in fits)
    best_iteration = int(np.argmin(cost_trace))
    best = fits[best_iteration]
    lengths = tuple(data.lengths)
    return TrainingResult(
        node=best.node,
        predicted=AsfCurve(
            lengths=lengths,
            means=tuple(float(min(max(v, 0.0), 1.0)) for v in best.predicted),
            stderrs=tuple(0.0 for _ in lengths),
            n_samples=1,
        ),
        cost_trace=cost_trace,
        l1_trace=tuple(float(f.l1) for f in fits),
        unitarity_trace=tuple(unitarity_defect(f.node) for f in fits),
        converged=bool(fit.l1 <= threshold),
        best_iteration=best_iteration,
    )
