"""Dense complex linear algebra used throughout the toolkit.

Everything here operates on plain ``numpy.ndarray`` matrices with
``complex128`` entries.  The two non-obvious pieces are the deterministic
phase convention applied on top of LAPACK's SVD (so factorizations and the
truncations built on them are reproducible run to run) and the closest-unitary
projection, which is the constraint step of the learner's projected gradient
descent.

Tolerance conventions: 1e-12 for algebraic identities (unitarity of exact
factors), 1e-10 for reconstructions from factors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FactorizationError, InputError, ShapeError, SingularMatrixError

#: Absolute singular-value floor below which a square matrix is treated as
#: rank deficient for the purposes of the unitary projection.
RANK_TOL = 1e-12


def as_complex_matrix(m, name: str = "matrix") -> np.ndarray:
    """Coerce input to a 2-D complex128 array and reject non-finite entries."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2 or a.size == 0:
        raise ShapeError(f"{name} must be a non-empty 2-D array, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ShapeError(f"{name} contains non-finite entries")
    return a


def dagger(m: np.ndarray) -> np.ndarray:
    return np.conj(m).T


@dataclass(frozen=True)
class SvdResult:
    """Thin SVD ``m = u @ diag(s) @ v.conj().T`` with a fixed phase gauge.

    ``u`` is rows x k, ``v`` is cols x k and ``s`` is length k with
    k = min(rows, cols), sorted non-increasing.
    """

    u: np.ndarray
    s: np.ndarray
    v: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return (self.u * self.s) @ dagger(self.v)


def _fix_svd_phases(u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rotate each singular-vector pair so the largest-magnitude component of
    the left vector is real positive.  Leaves u @ diag(s) @ v^dag unchanged."""
    u = u.copy()
    v = v.copy()
    for k in range(u.shape[1]):
        col = u[:, k]
        idx = int(np.argmax(np.abs(col)))
        pivot = col[idx]
        if abs(pivot) > 0:
            phase = pivot / abs(pivot)
            u[:, k] = col / phase
            v[:, k] = v[:, k] * np.conj(phase)
    return u, v


def svd(m) -> SvdResult:
    """Thin SVD with the deterministic phase convention.

    Raises:
        FactorizationError: if the underlying LAPACK routine fails to
            converge; the error records the input dimensions.
    """
    a = as_complex_matrix(m)
    try:
        u, s, vh = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise FactorizationError(f"SVD did not converge: {exc}", a.shape[0], a.shape[1]) from exc
    v = dagger(vh)
    u, v = _fix_svd_phases(u, v)
    return SvdResult(u=u, s=s.astype(np.float64), v=v)


def project_to_unitary(x) -> np.ndarray:
    """Closest unitary to a full-rank square matrix in Frobenius norm.

    With the SVD x = U S V^dag the minimizer over the unitary group is
    U V^dag (replace the singular spectrum by the identity).

    Raises:
        SingularMatrixError: if the smallest singular value is below
            ``RANK_TOL``; the projection is not well defined there.
    """
    a = as_complex_matrix(x)
    if a.shape[0] != a.shape[1]:
        raise ShapeError(f"unitary projection needs a square matrix, got {a.shape}")
    res = svd(a)
    if res.s[-1] <= RANK_TOL:
        raise SingularMatrixError(
            f"matrix is rank deficient (smallest singular value {res.s[-1]:.3e}); "
            "closest-unitary projection is not well defined"
        )
    return res.u @ dagger(res.v)


def principal_unitary_sqrt(u, near: np.ndarray | None = None) -> np.ndarray:
    """Square root of a unitary matrix, itself unitary.

    Computed by functional calculus on the eigendecomposition and polished
    with the closest-unitary projection so the result is unitary to machine
    precision even when the eigenbasis is returned poorly conditioned for
    degenerate eigenvalues.  By default the principal branch is taken; with
    ``near`` given, each eigencomponent's branch sign is chosen to match
    that reference (so the root of a squared unitary recovers the original
    even when its rotation angles exceed the principal range).
    """
    a = as_complex_matrix(u)
    w, v = np.linalg.eig(a)
    vi = np.linalg.inv(v)
    roots = np.sqrt(w)
    if near is not None:
        overlap = np.diag(vi @ as_complex_matrix(near, "near") @ v)
        flip = np.real(np.conj(roots) * overlap) < 0.0
        roots = np.where(flip, -roots, roots)
    candidate = (v * roots) @ vi
    return project_to_unitary(candidate)


def matrix_to_json_dict(m) -> dict:
    """Serialize a complex matrix as ``{rows, cols, re, im}`` with 2-D lists.

    Python's float repr is shortest-round-trip, so writing through ``json``
    reproduces every entry exactly on load.
    """
    a = as_complex_matrix(m)
    return {
        "rows": int(a.shape[0]),
        "cols": int(a.shape[1]),
        "re": a.real.tolist(),
        "im": a.imag.tolist(),
    }


def matrix_from_json_dict(d: dict) -> np.ndarray:
    try:
        rows, cols = d["rows"], d["cols"]
        re = np.asarray(d["re"], dtype=np.float64)
        im = np.asarray(d["im"], dtype=np.float64)
    except (KeyError, TypeError, ValueError) as exc:
        raise ShapeError(f"malformed matrix record: {exc}") from exc
    if type(rows) is not int or type(cols) is not int:
        raise InputError(f"matrix record sizes must be integers, got {rows!r}x{cols!r}")
    if re.shape != (rows, cols) or im.shape != (rows, cols):
        raise ShapeError(
            f"matrix record claims {rows}x{cols} but carries {re.shape}/{im.shape} arrays"
        )
    if not (np.isfinite(re).all() and np.isfinite(im).all()):
        raise InputError("matrix record contains non-finite entries")
    return re + 1j * im
