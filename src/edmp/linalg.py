"""Dense symmetric linear-algebra kernel.

The rank cut, the condition number, the semidefiniteness bound and the
spectral inverse are each written once, as methods of one
eigendecomposition, so a caller that holds a factorization reuses it.
The rank cut is the one settable tolerance (TolerancePolicy); the
semidefiniteness slack PSD_SLACK and the reconstruction tolerance
RECON_REL are constants.
All inputs are symmetrized explicitly before factorization; there is no
unsymmetric code path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalFailure

__all__ = [
    "TolerancePolicy",
    "DEFAULT_TOL",
    "PSD_SLACK",
    "RECON_REL",
    "EigDecomp",
    "symmetrize",
    "sym_eig",
    "pinv",
    "fix_column_signs",
]


# Slack for semidefiniteness tests, scaled by max(1, largest |eigenvalue|).
PSD_SLACK = 1e-9
# Relative tolerance for reconstruction-style identities.
RECON_REL = 1e-8


@dataclass(frozen=True)
class TolerancePolicy:
    """The rank cut: the relative eigenvalue cutoff for rank and
    pseudoinversion, anchored to the largest magnitude."""

    rank_rel: float = 1e-10

    def __post_init__(self):
        if not (math.isfinite(self.rank_rel) and self.rank_rel > 0.0):
            raise ValueError(
                f"tolerance rank_rel={self.rank_rel!r} must be finite and strictly positive"
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

    def cond(self, tol: TolerancePolicy = DEFAULT_TOL) -> float:
        """Largest |lambda| over the smallest kept |lambda|; inf when none is kept."""
        kept = np.abs(self.values[self._kept(tol)])
        return float(kept.max() / kept.min()) if kept.size else math.inf

    def is_psd(self, scale: float = PSD_SLACK) -> bool:
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


def fix_column_signs(m: np.ndarray) -> np.ndarray:
    """Flip column signs so the first significant entry of each is positive."""
    m = np.array(m, dtype=float)
    for col in range(m.shape[1]):
        column = m[:, col]
        top = np.abs(column).max()
        if top == 0.0:
            continue
        lead = np.argmax(np.abs(column) > 1e-12 * top)
        if column[lead] < 0.0:
            m[:, col] = -column
    return m
