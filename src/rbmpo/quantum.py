"""Quantum primitives: states, measurements, channels and the 1-qubit Clifford group.

States, POVM elements and gates are plain complex matrices; the validators
here are applied at API boundaries (and liberally in tests).  Channels and
gate sets carry a little structure, so they get small frozen dataclasses.

The single-qubit Clifford group is enumerated by closing {H, S} under
multiplication modulo global phase, rather than from a hard-coded table; a
regression test pins the count to 24.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, ShapeError
from .linalg import dagger, unitarity_defect

I2 = np.eye(2, dtype=np.complex128)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)
HADAMARD = np.array([[1, 1], [1, -1]], dtype=np.complex128) / np.sqrt(2.0)
PHASE_S = np.array([[1, 0], [0, 1j]], dtype=np.complex128)


def basis_state(index: int, dim: int) -> np.ndarray:
    """Density matrix |index><index| on a dim-dimensional space."""
    rho = np.zeros((dim, dim), dtype=np.complex128)
    rho[index, index] = 1.0
    return rho


def validate_povm_element(m, name: str = "povm") -> np.ndarray:
    m = np.asarray(m, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ShapeError(f"{name} must be square, got {m.shape}")
    if not np.linalg.norm(m - dagger(m)) <= 1e-12:
        raise InputError(f"{name} is not Hermitian")
    ev = np.linalg.eigvalsh(m)
    if ev.min() < -1e-10 or ev.max() > 1 + 1e-10:
        raise InputError(f"{name} has eigenvalues outside [0, 1]: [{ev.min()}, {ev.max()}]")
    return m


def validate_density_matrix(rho, name: str = "rho") -> np.ndarray:
    """A POVM element of unit trace."""
    rho = validate_povm_element(rho, name)
    if not abs(np.trace(rho) - 1.0) <= 1e-12:
        raise InputError(f"{name} has trace {np.trace(rho):.6g}, expected 1")
    return rho


def validate_state_and_povm(rho_sys, povm, d_sys: int | None = None):
    """The one check of an experiment's prepared state and measured POVM element:
    both valid, and both d_sys x d_sys (rho_sys's size if d_sys is None)."""
    rho_sys = validate_density_matrix(rho_sys, name="rho_sys")
    povm = validate_povm_element(povm)
    d = rho_sys.shape[0] if d_sys is None else d_sys
    if rho_sys.shape != (d, d) or povm.shape != (d, d):
        raise ShapeError(f"rho_sys {rho_sys.shape} and povm {povm.shape} must both be {d} x {d}")
    return rho_sys, povm


def validate_unitary(u, tol: float = 1e-10, name: str = "gate") -> np.ndarray:
    u = np.asarray(u, dtype=np.complex128)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ShapeError(f"{name} must be square, got {u.shape}")
    defect = unitarity_defect(u)
    if not defect <= tol:
        raise InputError(f"{name} is not unitary (||U^dag U - I|| = {defect:.3e} > {tol})")
    return u


@dataclass(frozen=True)
class KrausChannel:
    """Completely positive trace-preserving map given by Kraus operators."""

    operators: tuple[np.ndarray, ...]

    def __post_init__(self):
        if not self.operators:
            raise InputError("a channel needs at least one Kraus operator")
        ops = tuple(np.asarray(k, dtype=np.complex128) for k in self.operators)
        d = ops[0].shape[0]
        for k in ops:
            if k.shape != (d, d):
                raise ShapeError(f"Kraus operators must share one square shape, got {k.shape}")
        # an overflowing sum is inf or NaN, which fails the check without a warning
        with np.errstate(over="ignore", invalid="ignore"):
            defect = np.linalg.norm(sum(dagger(k) @ k for k in ops) - np.eye(d))
        if not defect <= 1e-10:
            raise InputError("Kraus operators do not satisfy sum K^dag K = I within 1e-10")
        object.__setattr__(self, "operators", ops)

    @property
    def dim(self) -> int:
        return self.operators[0].shape[0]


def apply_channel(ch: KrausChannel, rho) -> np.ndarray:
    """Apply a Kraus channel: rho -> sum_i K_i rho K_i^dag."""
    rho = np.asarray(rho, dtype=np.complex128)
    if rho.shape != (ch.dim, ch.dim):
        raise ShapeError(f"state has shape {rho.shape}, channel acts on dim {ch.dim}")
    return sum(k @ rho @ dagger(k) for k in ch.operators)


@dataclass(frozen=True)
class GateSet:
    """Ordered collection of same-dimension unitaries to sample RB gates from."""

    gates: tuple[np.ndarray, ...]
    label: str = ""
    is_two_design: bool = False

    def __post_init__(self):
        if not self.gates:
            raise InputError("gate set must be non-empty")
        gates = tuple(validate_unitary(g) for g in self.gates)
        d = gates[0].shape[0]
        for g in gates:
            if g.shape != (d, d):
                raise ShapeError("all gates in a set must share one dimension")
        object.__setattr__(self, "gates", gates)

    @property
    def dim(self) -> int:
        return self.gates[0].shape[0]

    def __len__(self) -> int:
        return len(self.gates)


def fix_global_phase(u) -> np.ndarray:
    """Canonical representative of a unitary modulo global phase: the first
    entry with magnitude above 1e-8 (row-major scan) is made real positive."""
    u = np.asarray(u, dtype=np.complex128)
    flat = u.ravel()
    idx = int(np.argmax(np.abs(flat) > 1e-8))
    pivot = flat[idx]
    return u / (pivot / abs(pivot))


def equal_up_to_phase(a, b, tol: float = 1e-10) -> bool:
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    if a.shape != b.shape:
        return False
    overlap = np.trace(dagger(a) @ b) / a.shape[0]
    if abs(abs(overlap) - 1.0) > tol:
        return False
    phase = overlap / abs(overlap)
    return bool(np.linalg.norm(a * phase - b) <= tol)


def single_qubit_cliffords() -> GateSet:
    """The 24-element single-qubit Clifford group modulo global phase.

    Built as the closure of {I, H, S} under multiplication, deduplicated and
    canonicalized with :func:`fix_global_phase`.  The enumeration order is
    deterministic: breadth-first, one queue that grows while it is read.
    """
    def key(c: np.ndarray) -> tuple:
        return tuple(np.round(c.ravel(), 8).tolist())

    gates = [fix_global_phase(g) for g in (I2, HADAMARD, PHASE_S)]
    seen = set(map(key, gates))
    for u in gates:
        for g in (HADAMARD, PHASE_S):  # multiplying by I is a no-op
            c = fix_global_phase(g @ u)
            if (k := key(c)) not in seen:
                seen.add(k)
                gates.append(c)
    return GateSet(gates=tuple(gates), label="clifford_1q", is_two_design=True)


def sample_sequence(gate_set: GateSet, m: int, rng: np.random.Generator) -> list[np.ndarray]:
    """Draw m gates i.i.d. uniformly from the gate set.

    The random source is an explicit argument so sampling is reproducible and
    safe to parallelize with independent streams.
    """
    if m < 1:
        raise InputError(f"sequence length must be >= 1, got {m}")
    return [gate_set.gates[int(i)] for i in rng.integers(0, len(gate_set), size=m)]


def compile_undo(gates) -> np.ndarray:
    """Inverse of the composed sequence: (G_m ... G_1)^dag.

    ``gates`` is a list of m (d, d) matrices, which gives one (d, d) inverse,
    or a stack (..., m, d, d) of sequences, which gives a stack (..., d, d):
    one running product ``prod = g @ prod`` over the m gates of every
    sequence at once.  Appending the inverse to its sequence makes the ideal
    circuit the identity up to a global phase.
    """
    try:
        stack = np.asarray(gates)
    except ValueError as exc:
        raise ShapeError(f"gates in a sequence must share one shape: {exc}") from exc
    if stack.size == 0:
        raise InputError("cannot compile the inverse of an empty sequence")
    if stack.ndim < 3 or stack.shape[-1] != stack.shape[-2]:
        raise ShapeError(f"gates must stack as (..., m, d, d), got {stack.shape}")
    d = stack.shape[-1]
    prod = np.broadcast_to(np.eye(d, dtype=np.complex128), (*stack.shape[:-3], d, d))
    for j in range(stack.shape[-3]):
        prod = stack[..., j, :, :] @ prod
    return dagger(prod)
