"""Monte Carlo randomized-benchmarking engine.

The protocol per sequence: prepare rho_S, apply m uniformly random gates and
the compiled inverse with the model's noise slots interleaved (see
:mod:`rbmpo.noise` for the slot convention), and measure a POVM element.
Averaging the survival probability over resampled sequences at each length
gives the average sequence fidelity (ASF) curve with standard errors.

Determinism contract: the random stream for sample k at length m is derived
from (seed, m, k), so results are independent of evaluation order.

Batches: :func:`run_sequence` runs one sequence, or a stack of n sequences
of one length as one stack of n joint states; a single sequence is the batch
of one.  :func:`estimate_asf` draws each sample's gate indices from its own
stream, exactly as :func:`rbmpo.quantum.sample_sequence` would, and makes one
batched call per length, so its values are those of running the samples one
at a time, bit for bit.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, NumericalError, ShapeError
from .noise import NoiseSteps
from .quantum import (
    GateSet,
    _draw_indices,
    _kraus_sum,
    basis_state,
    compile_undo,
    dagger,
    single_qubit_cliffords,
    validate_density_matrix,
    validate_povm_element,
)


@dataclass(frozen=True)
class AsfCurve:
    """Average sequence fidelity per length, with standard errors of the mean."""

    lengths: tuple[int, ...]
    means: tuple[float, ...]
    stderrs: tuple[float, ...]
    n_samples: int

    def __post_init__(self):
        if not (len(self.lengths) == len(self.means) == len(self.stderrs)):
            raise ShapeError("lengths, means and stderrs must have equal length")
        if any(m < 1 for m in self.lengths):
            raise InputError("sequence lengths must be positive")
        if any(b <= a for a, b in zip(self.lengths, self.lengths[1:])):
            raise InputError("sequence lengths must be strictly increasing")
        if any(not -1e-12 <= v <= 1 + 1e-12 for v in self.means):
            raise InputError("ASF means must lie in [0, 1]")
        if any(not 0.0 <= s < np.inf for s in self.stderrs):
            raise InputError("standard errors must be finite and non-negative")
        if self.n_samples < 1:
            raise InputError("n_samples must be positive")

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("m,mean,stderr,n_samples\n")
        for m, mu, se in zip(self.lengths, self.means, self.stderrs):
            buf.write(f"{m},{mu!r},{se!r},{self.n_samples}\n")
        return buf.getvalue()

    @staticmethod
    def from_csv(text: str) -> "AsfCurve":
        lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
        if not lines:
            raise InputError("empty ASF curve file")
        if lines[0].replace(" ", "") != "m,mean,stderr,n_samples":
            raise InputError(f"unexpected ASF header {lines[0]!r}")
        if len(lines) == 1:
            raise InputError("ASF curve file has a header but no data rows")
        lengths, means, stderrs, counts = [], [], [], []
        for ln in lines[1:]:
            parts = ln.split(",")
            if len(parts) != 4:
                raise InputError(f"malformed ASF row {ln!r}")
            try:
                lengths.append(int(parts[0]))
                means.append(float(parts[1]))
                stderrs.append(float(parts[2]))
                counts.append(int(parts[3]))
            except ValueError as exc:
                raise InputError(f"malformed ASF row {ln!r}: {exc}") from exc
        if len(set(counts)) != 1:
            raise InputError("ASF rows disagree on n_samples")
        return AsfCurve(tuple(lengths), tuple(means), tuple(stderrs), counts[0])


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce one RB data set."""

    noise: NoiseSteps
    m_max: int
    n_samples: int
    seed: int
    gate_set: GateSet = field(default_factory=single_qubit_cliffords)
    rho_sys: np.ndarray = field(default_factory=lambda: basis_state(0, 2))
    povm: np.ndarray = field(default_factory=lambda: basis_state(0, 2))

    def __post_init__(self):
        if self.m_max < 1 or self.n_samples < 1:
            raise InputError("m_max and n_samples must be positive")
        rho = validate_density_matrix(self.rho_sys, name="rho_sys")
        povm = validate_povm_element(self.povm)
        if rho.shape[0] != self.noise.d_sys or povm.shape[0] != self.noise.d_sys:
            raise ShapeError("state/POVM dimension must match the noise model's system")
        if self.gate_set.dim != rho.shape[0]:
            raise ShapeError("gate dimension must match the system dimension")
        object.__setattr__(self, "rho_sys", rho)
        object.__setattr__(self, "povm", povm)


def run_sequence(noise: NoiseSteps, gates, rho_sys, povm):
    """Survival probability of RB sequences (the inverse gate is appended here).

    ``gates`` is one sequence, a list of m (d, d) matrices, which gives a
    float; or a stack (n, m, d, d) of n sequences of one length, which gives
    an (n,) array.  A single sequence runs as the batch of one.  The joint
    states of all n sequences go as one stack (n, dim, dim) through one pass
    over the slots (prep, bulk x m, final) of ``noise.slots``: rho_env x
    rho_sys goes through the preparation slot, each gate is followed by a
    bulk slot and the compiled inverse by the final slot, and I_env x povm is
    measured.  Gates act on the system leg of the joint state; a memoryless
    channel is the case ``noise.d_env == 1``.  A survival probability outside
    [-1e-10, 1 + 1e-10] raises :class:`NumericalError`; the others are
    clipped to [0, 1].
    """
    undo = compile_undo(gates)
    stack = np.asarray(gates)
    d = noise.d_sys
    if stack.ndim not in (3, 4) or stack.shape[-2:] != (d, d):
        raise ShapeError(f"gates of shape {stack.shape} are not (m, {d}, {d}) or (n, m, {d}, {d})")
    rho_sys, povm = np.asarray(rho_sys), np.asarray(povm)
    if rho_sys.shape != (d, d) or povm.shape != (d, d):
        raise ShapeError("state/POVM dimensions do not match the noise model")
    batch = stack if stack.ndim == 4 else stack[None]
    n, m = batch.shape[:2]
    d_env, dim = noise.d_env, noise.dim
    state = (noise.rho_env[:, None, :, None] * rho_sys[None, :, None, :]).reshape(dim, dim)
    state = np.broadcast_to(state, (n, dim, dim))
    controls = [None, *batch.swapaxes(0, 1), undo.reshape(n, d, d)]
    for g, ops in zip(controls, noise.slots(m)):
        if g is not None:
            state = (g[:, None] @ state.reshape(n, d_env, d, dim)).reshape(n, dim, d_env, d)
            state = (state @ dagger(g)[:, None]).reshape(n, dim, dim)
        state = _kraus_sum(ops, state)
    reduced = np.trace(state.reshape(n, d_env, d, d_env, d), axis1=1, axis2=3)
    f = np.trace(povm @ reduced, axis1=1, axis2=2).real
    escaped = ~((f >= -1e-10) & (f <= 1 + 1e-10))
    if escaped.any():
        raise NumericalError(f"survival probability {f[escaped][0]} escaped [0, 1]")
    f = np.clip(f, 0.0, 1.0)
    return float(f[0]) if stack.ndim == 3 else f


def sample_stream(seed: int, m: int, index: int) -> np.random.Generator:
    """Independent random stream for sample `index` at sequence length `m`."""
    return np.random.default_rng([seed & 0xFFFFFFFFFFFFFFFF, m, index])


def estimate_asf(cfg: ExperimentConfig) -> AsfCurve:
    """Monte Carlo ASF estimate over lengths 1..m_max.

    For each length, n_samples independent sequences are drawn and the sample
    mean and standard error (ddof=1, divided by sqrt(n)) are reported.  The
    samples of one length go through :func:`run_sequence` as one batch, whose
    gate stack (n_samples, m, d, d) is gathered from the gate set's table.
    Memory therefore grows as O(n_samples * m * d^2), with (n_samples, dim,
    dim) state temporaries besides: negligible at a few hundred samples, but
    1e6 samples at m_max 100 need several GB.
    """
    lengths, means, stderrs = [], [], []
    table = np.stack(cfg.gate_set.gates)
    for m in range(1, cfg.m_max + 1):
        picks = np.stack([_draw_indices(cfg.gate_set, m, sample_stream(cfg.seed, m, k))
                          for k in range(cfg.n_samples)])
        values = run_sequence(cfg.noise, table[picks], cfg.rho_sys, cfg.povm)
        lengths.append(m)
        means.append(float(values.mean()))
        if cfg.n_samples > 1:
            stderrs.append(float(values.std(ddof=1) / np.sqrt(cfg.n_samples)))
        else:
            stderrs.append(0.0)
    return AsfCurve(tuple(lengths), tuple(means), tuple(stderrs), cfg.n_samples)
