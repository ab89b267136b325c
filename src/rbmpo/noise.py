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
:class:`NoiseSteps` is the one noise type: it holds rho_env and the Kraus
operators of each slot, and the Monte Carlo simulator, the closed-form
average, the dense oracle and the learner all read it.  A Markovian channel
is the case of a one-dimensional environment.  :func:`markovian_channel` and
:func:`joint_unitary` build validated noise; ``prep`` defaults to the
identity and ``final`` to the bulk noise, and a set ``final`` takes the bulk
noise's place in the last slot.  :func:`kraus_stack` regroups a slot's
operators into the (k, e, s, f, t) node layout that every contraction reads.
:func:`diagnose_markovianity` reads a node's memory off that layout: the
block that couples the environment's fiducial level to the others.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ShapeError
from .linalg import dagger
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

#: Largest ||U^dag U - I||_F a noise node may have; :func:`joint_unitary`, the
#: learner's sweep update and :func:`diagnose_markovianity` reject a larger one.
UNITARITY_TOL = 1e-9


@dataclass(frozen=True)
class MarkovianityReport:
    markovian: bool
    off_block_norm: float
    system_block: np.ndarray
    tol: float


def diagnose_markovianity(node: np.ndarray, d_env: int, tol: float = 1e-2) -> MarkovianityReport:
    """Read the Markovianity of a learned node off its block structure.

    With the environment first and fiducial in |0><0|, the off-block norm
    ||(I - P0 x I) node (P0 x I)||_F is that of node[d_sys:, :d_sys]; it
    measures how much the node couples the populated environment level to
    the rest.  Below `tol` the node acts on the system as the (then unitary)
    block node[:d_sys, :d_sys] alone: memoryless noise.  The measure is
    invariant under a global phase.  `tol` must be finite and >= 0, and
    `d_env` at least 1.
    """
    if not 0.0 <= tol < np.inf:
        raise DomainError(f"Markovianity tolerance must be finite and >= 0, got {tol}")
    if d_env < 1:
        raise DomainError(f"environment dimension must be >= 1, got {d_env}")
    node = validate_unitary(node, tol=UNITARITY_TOL, name="noise node")
    dim = node.shape[0]
    if dim % d_env != 0:
        raise ShapeError(f"node dimension {dim} not divisible by d_env {d_env}")
    d_sys = dim // d_env
    off_norm = float(np.linalg.norm(node[d_sys:, :d_sys]))
    return MarkovianityReport(
        markovian=off_norm <= tol,
        off_block_norm=off_norm,
        system_block=node[:d_sys, :d_sys].copy(),
        tol=tol,
    )


@dataclass(frozen=True)
class NoiseSteps:
    """Noise on environment x system, as the Kraus operators of each slot.

    ``rho_env`` is the initial environment state.  ``bulk`` fills the m
    gate-interleaved slots, ``prep`` the slot before the first gate and
    ``final`` the slot after the compiled inverse; :meth:`slots` lists them in
    sequence order.  Only arrays are stored: ``d_env`` and ``d_sys`` are read
    off ``rho_env`` and the bulk operators.  The fields are not validated
    here: build checked noise with :func:`markovian_channel` or
    :func:`joint_unitary`.
    """

    rho_env: np.ndarray
    bulk: tuple[np.ndarray, ...]
    prep: tuple[np.ndarray, ...]
    final: tuple[np.ndarray, ...]
    label: str = ""

    @property
    def d_env(self) -> int:
        return self.rho_env.shape[0]

    @property
    def d_sys(self) -> int:
        return self.bulk[0].shape[-1] // self.d_env

    def slots(self, m: int) -> list[tuple[np.ndarray, ...]]:
        """Kraus operators of the m + 2 slots of a length-m sequence, in order."""
        return [self.prep] + [self.bulk] * m + [self.final]

    @staticmethod
    def uniform(node: np.ndarray, d_env: int) -> "NoiseSteps":
        """Time-independent unitary noise with the same node in every slot,
        including preparation and final, and the environment starting in
        |0><0|: the learner's model class.  A stack of nodes (..., dim, dim)
        gives a stack of models, whose averaged curves are computed together."""
        node = np.asarray(node, dtype=np.complex128)
        return NoiseSteps(basis_state(0, d_env), (node,), (node,), (node,))


def kraus_stack(ops: tuple[np.ndarray, ...], d_env: int) -> np.ndarray:
    """Kraus operators on environment x system as one (..., k, e, s, f, t) node
    stack; leading batch axes of the operators are kept in front."""
    stack = np.concatenate([np.asarray(k, dtype=np.complex128)[..., None, :, :] for k in ops],
                           axis=-3)
    d_sys = stack.shape[-1] // d_env
    return stack.reshape(*stack.shape[:-3], -1, d_env, d_sys, d_env, d_sys)


def _with_slots(rho_env: np.ndarray, bulk: tuple[np.ndarray, ...],
                prep: KrausChannel | None, final: KrausChannel | None, label: str) -> NoiseSteps:
    """Noise around validated bulk operators; ``prep`` defaults to the identity
    and ``final`` to the bulk, and a set slot must act on the bulk's space."""
    dim = bulk[0].shape[0]
    for slot in (prep, final):
        if slot is not None and slot.dim != dim:
            raise ShapeError(f"prep/final slots must act on the noise's dim {dim}, got {slot.dim}")
    prep_ops = prep.operators if prep is not None else (np.eye(dim, dtype=np.complex128),)
    final_ops = final.operators if final is not None else bulk
    return NoiseSteps(rho_env, bulk, prep_ops, final_ops, label)


def markovian_channel(channel: KrausChannel, prep: KrausChannel | None = None,
                      final: KrausChannel | None = None, label: str = "markovian") -> NoiseSteps:
    """Memoryless noise: one Kraus channel on the system, reapplied per gate,
    with a one-dimensional environment."""
    return _with_slots(np.ones((1, 1), dtype=np.complex128), channel.operators, prep, final, label)


def joint_unitary(unitary: np.ndarray, rho_env: np.ndarray, *,
                  prep: KrausChannel | None = None, final: KrausChannel | None = None,
                  label: str = "joint_unitary") -> NoiseSteps:
    """Unitary noise on environment x system with a fixed fiducial state.

    ``unitary`` acts on the composite space with the environment as the first
    tensor factor; ``rho_env`` is the initial environment state, whose dim is d_env.
    """
    u = validate_unitary(unitary, tol=UNITARITY_TOL, name="joint unitary")
    rho = validate_density_matrix(rho_env, name="rho_env")
    if u.shape[0] % len(rho):
        raise ShapeError(f"joint unitary dim {u.shape[0]} is not divisible by d_env={len(rho)}")
    return _with_slots(rho, (u,), prep, final, label)


def _check_probability(p: float, name: str) -> float:
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"{name} must lie in [0, 1], got {p}")
    return p


def phase_flip(p: float) -> NoiseSteps:
    """Phase-flip channel with Kraus pair sqrt(1-p) I and sqrt(p) Z."""
    p = _check_probability(p, "phase-flip probability")
    ops = (np.sqrt(1.0 - p) * I2, np.sqrt(p) * PAULI_Z)
    return markovian_channel(KrausChannel(ops), label=f"phase_flip(p={p})")


def amplitude_damping(gamma: float) -> NoiseSteps:
    """Amplitude damping: K0 = diag(1, sqrt(1-gamma)), K1 = sqrt(gamma)|0><1|."""
    gamma = _check_probability(gamma, "damping strength")
    k0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - gamma)]], dtype=np.complex128)
    k1 = np.array([[0.0, np.sqrt(gamma)], [0.0, 0.0]], dtype=np.complex128)
    return markovian_channel(KrausChannel((k0, k1)), label=f"amplitude_damping(gamma={gamma})")


def depolarizing(p: float) -> NoiseSteps:
    """Depolarizing channel rho -> (1-p) rho + p I/2, via four Pauli Kraus ops."""
    p = _check_probability(p, "depolarizing probability")
    ops = (
        np.sqrt(1.0 - 3.0 * p / 4.0) * I2,
        np.sqrt(p / 4.0) * PAULI_X,
        np.sqrt(p / 4.0) * PAULI_Y,
        np.sqrt(p / 4.0) * PAULI_Z,
    )
    return markovian_channel(KrausChannel(ops), label=f"depolarizing(p={p})")


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
    return eigh_expm(*np.linalg.eigh(h), scale)


def eigh_expm(w: np.ndarray, v: np.ndarray, scale) -> np.ndarray:
    """exp(scale * h) from the eigendecomposition (w, v) = ``np.linalg.eigh(h)``.

    Takes stacks, w (..., n) and v (..., n, n), and a ``scale`` that
    broadcasts against w (one scale per matrix as a (..., 1) array), so that
    one decomposition serves every scale applied to the same h.
    """
    return (v * np.exp(scale * w)[..., None, :]) @ dagger(v)


def spin_unitary(
    coupling: float, field_x: float, field_y: float, delta: float
) -> NoiseSteps:
    """Static two-qubit noise unitary exp(-i delta H) with one environment qubit.

    The environment starts in |0><0|.  For small delta the unitary is close to
    the identity but couples environment and system, which is what produces
    the non-exponential sequence-fidelity signature.
    """
    if not delta > 0:
        raise DomainError(f"delta must be positive, got {delta}")
    # every phase of exp(-i delta H) is at most delta ||H|| <= delta (|J| + 2|hx| + 2|hy|)
    if not np.isfinite(delta * (abs(coupling) + 2 * abs(field_x) + 2 * abs(field_y))):
        raise DomainError(f"delta * (|J| + 2|hx| + 2|hy|) must be finite, got delta={delta}, "
                          f"J={coupling}, hx={field_x}, hy={field_y}")
    h = spin_hamiltonian(coupling, field_x, field_y)
    lam = hermitian_expm(h, -1j * float(delta))
    label = f"spin_unitary(J={coupling}, hx={field_x}, hy={field_y}, delta={delta})"
    return joint_unitary(lam, basis_state(0, 2), label=label)
