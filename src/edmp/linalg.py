"""Dense symmetric linear-algebra kernel.

sym_eig is the one eigensolver, for a single matrix or a stack of them.
The rank cut, the condition number, the semidefiniteness bound and the
spectral inverse are each written once, as methods of one
eigendecomposition, so a caller that holds a factorization reuses it.
The rank cut is the one settable tolerance (TolerancePolicy); the
semidefiniteness slack PSD_SLACK and the reconstruction tolerance
RECON_REL are constants; every other threshold is a constant Cut.
All inputs are symmetrized explicitly before factorization; there is no
unsymmetric code path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import NumericalFailure

__all__ = [
    "TolerancePolicy",
    "DEFAULT_TOL",
    "PSD_SLACK",
    "RECON_REL",
    "Cut",
    "Decision",
    "EigDecomp",
    "symmetrize",
    "sym_eig",
    "fix_column_signs",
]


# Slack for semidefiniteness tests, scaled by max(1, largest |eigenvalue|).
PSD_SLACK = 1e-9
# Relative tolerance for reconstruction-style identities.
RECON_REL = 1e-8


class Decision(NamedTuple):
    """A Cut's verdict on a float, or elementwise on an array: threshold is the
    cut's times the scale (below and above are False at NaN), and near marks a
    margin, measured / scale, within the cut's band (threshold, band]."""

    name: str
    measured: float | np.ndarray
    threshold: float | np.ndarray
    margin: float | np.ndarray
    near: bool | np.ndarray

    below = property(lambda self: self.measured <= self.threshold)
    above = property(lambda self: self.measured > self.threshold)


class Cut(NamedTuple):
    """A named threshold on measured / scale, with an optional warning band."""

    name: str
    threshold: float
    band: float | None = None

    def decide(self, measured, scale=1.0) -> Decision:
        margin = measured / scale
        near = self.band is not None and (self.threshold < margin) & (margin <= self.band)
        return Decision(self.name, measured, self.threshold * scale, margin, near)


@dataclass(frozen=True)
class TolerancePolicy:
    """The rank cut: the relative eigenvalue cutoff for rank and
    pseudoinversion, anchored to the largest magnitude.  Below machine
    epsilon it keeps round-off as rank; at one it cuts every eigenvalue."""

    rank_rel: float = 1e-10

    def __post_init__(self):
        eps = float(np.finfo(float).eps)
        if not eps <= self.rank_rel < 1.0:  # also false for NaN
            raise ValueError(
                f"tolerance rank_rel={self.rank_rel!r} must lie in [{eps!r}, 1)"
            )


DEFAULT_TOL = TolerancePolicy()


def symmetrize(a) -> np.ndarray:
    """Return the symmetric part (A + A^T)/2 of each square matrix of a stack."""
    a = np.asarray(a, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return 0.5 * (a + a.swapaxes(-1, -2))


@dataclass(frozen=True)
class EigDecomp:
    """Spectral factorization A = V diag(values) V^T, eigenvalues descending."""

    values: np.ndarray
    # None when only the eigenvalues were computed.
    vectors: np.ndarray | None

    def _kept(self, tol: TolerancePolicy) -> np.ndarray:
        """Mask of eigenvalues above rank_rel * max|lambda| in magnitude."""
        mag = np.abs(self.values)
        return mag > tol.rank_rel * mag.max(axis=-1, keepdims=True, initial=0.0)

    def rank(self, tol: TolerancePolicy = DEFAULT_TOL) -> int:
        """Numerical rank of one matrix (a stack's would be pooled) under the cutoff."""
        return int(np.count_nonzero(self._kept(tol)))

    def pinv(self, tol: TolerancePolicy = DEFAULT_TOL) -> np.ndarray:
        """Moore-Penrose inverse: kept eigenvalues inverted, the rest zeroed."""
        return self._inverse(self._kept(tol))

    def _inverse(self, kept: np.ndarray) -> np.ndarray:
        """pinv for a rank-cut mask the caller already holds."""
        inv = np.zeros_like(self.values)
        np.divide(1.0, self.values, out=inv, where=kept)
        return symmetrize((self.vectors * inv[..., None, :]) @ self.vectors.swapaxes(-1, -2))

    def cond(self, tol: TolerancePolicy = DEFAULT_TOL) -> float:
        """Largest over smallest kept |lambda| of one matrix (pooled on a stack),
        inf when none is kept."""
        kept = np.abs(self.values[self._kept(tol)])
        return float(kept.max() / kept.min()) if kept.size else math.inf

    def is_psd(self, scale: float = PSD_SLACK):
        """Smallest eigenvalue at least -scale * max(1, max|lambda|), per matrix."""
        return self.values[..., -1] >= -scale * np.abs(self.values).max(axis=-1, initial=1.0)


def sym_eig(a, vectors: bool = True) -> EigDecomp:
    """Eigendecomposition of a symmetrized matrix, eigenvalues descending; a
    stack (..., n, n) keeps its leading axes and is factored in one LAPACK call,
    bit for bit each matrix alone.  With vectors=False only the eigenvalues are
    computed (eigvalsh, whose last bits may differ)."""
    s = symmetrize(a)
    try:
        if not vectors:
            return EigDecomp(np.linalg.eigvalsh(s)[..., ::-1].copy(), None)
        values, vecs = np.linalg.eigh(s)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"eigendecomposition failed: {exc}") from exc
    return EigDecomp(values[..., ::-1].copy(), vecs[..., ::-1].copy())


def fix_column_signs(m: np.ndarray) -> np.ndarray:
    """Flip column signs so the first significant entry of each is positive."""
    m = np.array(m, dtype=float)
    mag = np.abs(m)
    # A zero column has no significant entry; argmax then reads its 0 at row 0.
    lead = np.argmax(mag > 1e-12 * mag.max(axis=0), axis=0)
    flip = m[lead, np.arange(m.shape[1])] < 0.0
    m[:, flip] = -m[:, flip]
    return m
