"""Noise models for the RB experiments, and the slot layout they fill.

Two families:

* Markovian single-qubit channels (phase flip, amplitude damping,
  depolarizing) that attach independently to every gate, and
* a two-qubit environment-system unitary generated by a static spin
  Hamiltonian, whose memory makes the averaged sequence fidelity deviate
  from a single exponential.

Slot convention: a length-m sequence has m + 2 noise slots, in the order
(prep, bulk x m, final).  The preparation slot acts on rho_env x rho_sys
before the first gate, one bulk slot follows each of the m gates, and the
final slot follows the compiled inverse, just before I_env x M is measured.
``prep`` defaults to the identity and ``final`` to the bulk channel; a set
``final`` takes the bulk channel's place in the last slot.  A Markovian
channel is the case of a one-dimensional environment.  :class:`NoiseSteps`
holds this layout, and the Monte Carlo simulator, the closed-form average
and the dense oracle all read it from there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import DomainError, InputError, ShapeError
from .quantum import (
    I2,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    KrausChannel,
    basis_state,
    validate_density_matrix,
    validate_unitary,
)


@dataclass(frozen=True)
class MarkovianChannel:
    """Memoryless noise: one Kraus channel on the system, reapplied per gate."""

    channel: KrausChannel
    prep: KrausChannel | None = None
    final: KrausChannel | None = None
    label: str = "markovian"

    def __post_init__(self):
        for slot in (self.prep, self.final):
            if slot is not None and slot.dim != self.channel.dim:
                raise ShapeError("prep/final slots must act on the same space as the channel")

    @property
    def d_sys(self) -> int:
        return self.channel.dim

    @property
    def d_env(self) -> int:
        return 1


@dataclass(frozen=True)
class JointUnitary:
    """Unitary noise on environment x system with a fixed fiducial state.

    ``unitary`` acts on the composite space with the environment as the first
    tensor factor; ``rho_env`` is the initial environment state.
    """

    unitary: np.ndarray
    rho_env: np.ndarray
    d_env: int
    prep: KrausChannel | None = None
    final: KrausChannel | None = None
    label: str = "joint_unitary"

    def __post_init__(self):
        u = validate_unitary(self.unitary, tol=1e-9, name="joint unitary")
        rho = validate_density_matrix(self.rho_env, name="rho_env")
        if self.d_env < 1:
            raise DomainError(f"d_env must be positive, got {self.d_env}")
        if rho.shape[0] != self.d_env:
            raise ShapeError(f"rho_env has dim {rho.shape[0]}, expected d_env={self.d_env}")
        if u.shape[0] % self.d_env != 0:
            raise ShapeError(
                f"joint unitary dim {u.shape[0]} is not divisible by d_env={self.d_env}"
            )
        for slot in (self.prep, self.final):
            if slot is not None and slot.dim != u.shape[0]:
                raise ShapeError("prep/final slots must act on the full joint space")
        object.__setattr__(self, "unitary", u)
        object.__setattr__(self, "rho_env", rho)

    @property
    def d_sys(self) -> int:
        return self.unitary.shape[0] // self.d_env


NoiseModel = Union[MarkovianChannel, JointUnitary]


@dataclass(frozen=True)
class NoiseSteps:
    """Per-slot Kraus decomposition of a noise process on environment x system.

    ``bulk`` fills the m gate-interleaved slots, ``prep`` the slot before the
    first gate and ``final`` the slot after the compiled inverse; :meth:`slots`
    lists them in sequence order.
    """

    d_env: int
    d_sys: int
    rho_env: np.ndarray
    bulk: tuple[np.ndarray, ...]
    prep: tuple[np.ndarray, ...]
    final: tuple[np.ndarray, ...]

    @property
    def dim(self) -> int:
        return self.d_env * self.d_sys

    def slots(self, m: int) -> list[tuple[np.ndarray, ...]]:
        """Kraus operators of the m + 2 slots of a length-m sequence, in order."""
        return [self.prep] + [self.bulk] * m + [self.final]

    @staticmethod
    def from_model(model: NoiseModel) -> "NoiseSteps":
        if isinstance(model, MarkovianChannel):
            d_env, d_sys = 1, model.d_sys
            rho_env = np.ones((1, 1), dtype=np.complex128)
            bulk = model.channel.operators
        elif isinstance(model, JointUnitary):
            d_env, d_sys = model.d_env, model.d_sys
            rho_env = model.rho_env
            bulk = (model.unitary,)
        else:
            raise InputError(f"unknown noise model type {type(model)!r}")
        dim = d_env * d_sys
        prep = model.prep.operators if model.prep is not None else (np.eye(dim, dtype=np.complex128),)
        final = model.final.operators if model.final is not None else bulk
        return NoiseSteps(d_env, d_sys, rho_env, bulk, prep, final)

    @staticmethod
    def uniform(node: np.ndarray, rho_env: np.ndarray, d_env: int) -> "NoiseSteps":
        """Time-independent unitary noise with the same node in every slot,
        including preparation and final: the learner's model class."""
        node = np.asarray(node, dtype=np.complex128)
        d_sys = node.shape[0] // d_env
        return NoiseSteps(d_env, d_sys, np.asarray(rho_env, dtype=np.complex128),
                          (node,), (node,), (node,))


def _check_probability(p: float, name: str) -> float:
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"{name} must lie in [0, 1], got {p}")
    return p


def phase_flip(p: float) -> MarkovianChannel:
    """Phase-flip channel with Kraus pair sqrt(1-p) I and sqrt(p) Z."""
    p = _check_probability(p, "phase-flip probability")
    ops = (np.sqrt(1.0 - p) * I2, np.sqrt(p) * PAULI_Z)
    return MarkovianChannel(KrausChannel(ops), label=f"phase_flip(p={p})")


def amplitude_damping(gamma: float) -> MarkovianChannel:
    """Amplitude damping: K0 = diag(1, sqrt(1-gamma)), K1 = sqrt(gamma)|0><1|."""
    gamma = _check_probability(gamma, "damping strength")
    k0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - gamma)]], dtype=np.complex128)
    k1 = np.array([[0.0, np.sqrt(gamma)], [0.0, 0.0]], dtype=np.complex128)
    return MarkovianChannel(KrausChannel((k0, k1)), label=f"amplitude_damping(gamma={gamma})")


def depolarizing(p: float) -> MarkovianChannel:
    """Depolarizing channel rho -> (1-p) rho + p I/2, via four Pauli Kraus ops."""
    p = _check_probability(p, "depolarizing probability")
    ops = (
        np.sqrt(1.0 - 3.0 * p / 4.0) * I2,
        np.sqrt(p / 4.0) * PAULI_X,
        np.sqrt(p / 4.0) * PAULI_Y,
        np.sqrt(p / 4.0) * PAULI_Z,
    )
    return MarkovianChannel(KrausChannel(ops), label=f"depolarizing(p={p})")


def spin_hamiltonian(coupling: float, field_x: float, field_y: float) -> np.ndarray:
    """Two-spin Hamiltonian J X1 X2 + h_x (X1 + X2) + h_y (Y1 + Y2).

    Site 1 is the environment qubit, site 2 the system qubit.
    """
    xx = np.kron(PAULI_X, PAULI_X)
    x1 = np.kron(PAULI_X, I2)
    x2 = np.kron(I2, PAULI_X)
    y1 = np.kron(PAULI_Y, I2)
    y2 = np.kron(I2, PAULI_Y)
    return coupling * xx + field_x * (x1 + x2) + field_y * (y1 + y2)


def hermitian_expm(h: np.ndarray, scale: complex) -> np.ndarray:
    """exp(scale * h) for Hermitian h via eigendecomposition (exact at 4x4)."""
    w, v = np.linalg.eigh(h)
    return (v * np.exp(scale * w)) @ np.conj(v).T


def spin_unitary(
    coupling: float, field_x: float, field_y: float, delta: float
) -> JointUnitary:
    """Static two-qubit noise unitary exp(-i delta H) with one environment qubit.

    The environment starts in |0><0|.  For small delta the unitary is close to
    the identity but couples environment and system, which is what produces
    the non-exponential sequence-fidelity signature.
    """
    if not delta > 0:
        raise DomainError(f"delta must be positive, got {delta}")
    h = spin_hamiltonian(coupling, field_x, field_y)
    lam = hermitian_expm(h, -1j * float(delta))
    return JointUnitary(
        unitary=lam,
        rho_env=basis_state(0, 2),
        d_env=2,
        label=f"spin_unitary(J={coupling}, hx={field_x}, hy={field_y}, delta={delta})",
    )
