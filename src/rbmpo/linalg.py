"""Dense complex linear algebra used throughout the toolkit.

Everything here operates on plain ``numpy.ndarray`` matrices with
``complex128`` entries.  The one non-obvious piece is the closest-unitary
projection, which is the constraint step of the learner's projected gradient
descent.  The SVD hands back LAPACK's factors as they come: no caller depends
on the phase of a singular-vector pair, since U @ diag(s) @ Vh and U @ Vh do
not.

Tolerance conventions: 1e-12 for algebraic identities (unitarity of exact
factors), 1e-10 for reconstructions from factors.
"""

from __future__ import annotations

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
    """Conjugate transpose of a matrix, or of each matrix in a stack (..., r, c)."""
    return np.conj(m).swapaxes(-1, -2)


def svd(m):
    """Thin SVD ``m = U @ diag(S) @ Vh``, as numpy's ``SVDResult(U, S, Vh)``.

    ``U`` is rows x k, ``Vh`` is k x cols and ``S`` is length k with
    k = min(rows, cols), sorted non-increasing.

    Raises:
        FactorizationError: if the underlying LAPACK routine fails to
            converge; the error records the input dimensions.
    """
    a = as_complex_matrix(m)
    try:
        return np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise FactorizationError(f"SVD did not converge: {exc}", a.shape[0], a.shape[1]) from exc


def project_to_unitary(x) -> np.ndarray:
    """Closest unitary to a full-rank square matrix in Frobenius norm.

    With the SVD x = U S Vh the minimizer over the unitary group is
    U Vh (replace the singular spectrum by the identity).

    Raises:
        SingularMatrixError: if the smallest singular value is below
            ``RANK_TOL``; the projection is not well defined there.
    """
    a = as_complex_matrix(x)
    if a.shape[0] != a.shape[1]:
        raise ShapeError(f"unitary projection needs a square matrix, got {a.shape}")
    u, s, vh = svd(a)
    if s[-1] <= RANK_TOL:
        raise SingularMatrixError(
            f"matrix is rank deficient (smallest singular value {s[-1]:.3e}); "
            "closest-unitary projection is not well defined"
        )
    return u @ vh


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
