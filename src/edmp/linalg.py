"""Dense symmetric linear-algebra kernel.

The rank cut, the semidefiniteness bound and the spectral inverse are
each written once, as methods of one eigendecomposition, so a caller that
already holds a factorization reuses it for all three.  All inputs are
symmetrized explicitly before factorization; there is no unsymmetric
code path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import NumericalFailure

__all__ = [
    "TolerancePolicy",
    "DEFAULT_TOL",
    "EigDecomp",
    "symmetrize",
    "sym_eig",
    "pinv",
    "rank_of",
    "nullspace_basis",
    "min_eigenvalue",
    "fix_column_signs",
]


@dataclass(frozen=True)
class TolerancePolicy:
    """Thresholds shared by every numerical decision.

    rank_rel: relative eigenvalue/singular-value cutoff for rank and
        pseudoinversion, anchored to the largest magnitude.
    psd_abs_scale: slack for semidefiniteness tests, scaled by
        max(1, largest |eigenvalue|).
    recon_rel: relative tolerance for reconstruction-style identities.
    """

    rank_rel: float = 1e-10
    psd_abs_scale: float = 1e-9
    recon_rel: float = 1e-8

    def __post_init__(self):
        for field in fields(self):
            value = getattr(self, field.name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(
                    f"tolerance {field.name}={value!r} must be finite and strictly positive"
                )


DEFAULT_TOL = TolerancePolicy()


def symmetrize(a) -> np.ndarray:
    """Return the symmetric part (A + A^T)/2 of a square matrix."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return 0.5 * (a + a.T)


@dataclass(frozen=True)
class EigDecomp:
    """Spectral factorization A = V diag(values) V^T, eigenvalues descending."""

    values: np.ndarray
    vectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return (self.vectors * self.values) @ self.vectors.T

    def _kept(self, tol: TolerancePolicy) -> np.ndarray:
        """Mask of eigenvalues above rank_rel * max|lambda| in magnitude."""
        cut = tol.rank_rel * (np.abs(self.values).max() if self.values.size else 0.0)
        return np.abs(self.values) > cut

    def rank(self, tol: TolerancePolicy = DEFAULT_TOL) -> int:
        """Numerical rank under the shared cutoff."""
        return int(np.count_nonzero(self._kept(tol)))

    def pinv(self, tol: TolerancePolicy = DEFAULT_TOL) -> np.ndarray:
        """Moore-Penrose inverse: kept eigenvalues inverted, the rest zeroed."""
        inv = np.zeros_like(self.values)
        np.divide(1.0, self.values, out=inv, where=self._kept(tol))
        return symmetrize((self.vectors * inv) @ self.vectors.T)

    def is_psd(self, scale: float) -> bool:
        """Smallest eigenvalue at least -scale * max(1, max|lambda|)."""
        bound = scale * max(1.0, np.abs(self.values).max())
        return bool(self.values[-1] >= -bound)


def sym_eig(a) -> EigDecomp:
    """Eigendecomposition of the symmetrized input, eigenvalues descending."""
    s = symmetrize(a)
    try:
        values, vectors = np.linalg.eigh(s)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"eigendecomposition failed: {exc}") from exc
    return EigDecomp(values[::-1].copy(), vectors[:, ::-1].copy())


def pinv(a, tol: TolerancePolicy = DEFAULT_TOL) -> np.ndarray:
    """Moore-Penrose inverse of a symmetric matrix via its spectrum."""
    return sym_eig(a).pinv(tol)


def rank_of(a, tol: TolerancePolicy = DEFAULT_TOL) -> int:
    """Numerical rank of a symmetric matrix under the shared cutoff."""
    return sym_eig(a).rank(tol)


def nullspace_basis(a, tol: TolerancePolicy = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis of the null space {x : Ax = 0}, as columns.

    Accepts any rectangular matrix; the result has A.shape[1] rows and
    one column per singular value below rank_rel * max singular value.
    Column signs are fixed deterministically.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    _, sing, vt = np.linalg.svd(a)
    cut = tol.rank_rel * (sing.max() if sing.size else 0.0)
    rank = int(np.count_nonzero(sing > cut))
    return fix_column_signs(vt[rank:].T.copy())


def min_eigenvalue(a) -> float:
    """Smallest eigenvalue of the symmetrized input."""
    return float(sym_eig(a).values[-1])


def fix_column_signs(m: np.ndarray, rel: float = 1e-12) -> np.ndarray:
    """Flip column signs so the first significant entry of each is positive."""
    m = np.array(m, dtype=float)
    for col in range(m.shape[1]):
        column = m[:, col]
        top = np.abs(column).max()
        if top == 0.0:
            continue
        lead = np.argmax(np.abs(column) > rel * top)
        if column[lead] < 0.0:
            m[:, col] = -column
    return m
