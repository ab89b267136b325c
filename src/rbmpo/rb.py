"""Monte Carlo randomized-benchmarking engine.

The protocol per sequence: prepare rho_S, apply m uniformly random gates and
the compiled inverse with the model's noise slots interleaved (see
:mod:`rbmpo.noise` for the slot convention), and measure a POVM element.
Averaging the survival probability over resampled sequences at each length
gives the average sequence fidelity (ASF) curve with standard errors.

Determinism contract: the random stream for sample k at length m is derived
from (seed, m, k), so results are independent of evaluation order.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, NumericalError, ShapeError
from .noise import NoiseSteps
from .quantum import (
    GateSet,
    _kraus_sum,
    basis_state,
    compile_undo,
    dagger,
    sample_sequence,
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


def run_sequence(noise: NoiseSteps, gates, rho_sys, povm) -> float:
    """Survival probability of one RB sequence (the inverse gate is appended here).

    One pass over the slots (prep, bulk x m, final) of ``noise.slots``:
    rho_env x rho_sys goes through the preparation slot, each gate is followed
    by a bulk slot and the compiled inverse by the final slot, and I_env x povm
    is measured.  Gates act on the system leg of the joint state; a
    memoryless channel is the case ``noise.d_env == 1``.
    """
    if not gates:
        raise InputError("run_sequence needs at least one gate")
    d = noise.d_sys
    for g in gates:
        if g.shape != (d, d):
            raise ShapeError(f"gate shape {g.shape} does not match system dim {d}")
    rho_sys, povm = np.asarray(rho_sys), np.asarray(povm)
    if rho_sys.shape != (d, d) or povm.shape != (d, d):
        raise ShapeError("state/POVM dimensions do not match the noise model")
    d_env, dim = noise.d_env, noise.dim
    state = (noise.rho_env[:, None, :, None] * rho_sys[None, :, None, :]).reshape(dim, dim)
    controls = [None, *gates, compile_undo(gates)]
    for g, ops in zip(controls, noise.slots(len(gates))):
        if g is not None:
            state = (g @ state.reshape(d_env, d, dim)).reshape(dim, d_env, d)
            state = (state @ dagger(g)).reshape(dim, dim)
        state = _kraus_sum(ops, state)
    reduced = np.trace(state.reshape(d_env, d, d_env, d), axis1=0, axis2=2)
    f = float(np.trace(povm @ reduced).real)
    if not -1e-10 <= f <= 1 + 1e-10:
        raise NumericalError(f"survival probability {f} escaped [0, 1]")
    return min(max(f, 0.0), 1.0)


def sample_stream(seed: int, m: int, index: int) -> np.random.Generator:
    """Independent random stream for sample `index` at sequence length `m`."""
    return np.random.default_rng([seed & 0xFFFFFFFFFFFFFFFF, m, index])


def estimate_asf(cfg: ExperimentConfig) -> AsfCurve:
    """Monte Carlo ASF estimate over lengths 1..m_max.

    For each length, n_samples independent sequences are drawn and the sample
    mean and standard error (ddof=1, divided by sqrt(n)) are reported.
    """
    lengths, means, stderrs = [], [], []
    for m in range(1, cfg.m_max + 1):
        values = np.empty(cfg.n_samples, dtype=np.float64)
        for k in range(cfg.n_samples):
            rng = sample_stream(cfg.seed, m, k)
            gates = sample_sequence(cfg.gate_set, m, rng)
            values[k] = run_sequence(cfg.noise, gates, cfg.rho_sys, cfg.povm)
        lengths.append(m)
        means.append(float(values.mean()))
        if cfg.n_samples > 1:
            stderrs.append(float(values.std(ddof=1) / np.sqrt(cfg.n_samples)))
        else:
            stderrs.append(0.0)
    return AsfCurve(tuple(lengths), tuple(means), tuple(stderrs), cfg.n_samples)
