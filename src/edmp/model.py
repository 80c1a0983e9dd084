"""EDM recognition and the derived profile of one distance matrix.

A hollow symmetric nonnegative matrix D is an EDM exactly when the
centroid Gram matrix B = -JDJ/2 is positive semidefinite.  From one
eigendecomposition of B the profile derives the EDM verdict and the
embedding dimension, and on first read a deterministic configuration,
B+ and the Gale basis (B's null eigenvectors with e projected out); one
of D gives D+, w with Dw = e, D's spectrum, whence kappa(D) and rank(D),
and the eigenvectors above the rank cut, a basis of range(D).  It also
holds the sphericity data (center, regularity, and the radius and unit
verdict, which are views of the one Sphericity record).  Spherical EDMs
of radius one are the domain of the perturbation machinery in the rest
of the package, and require_unit is its one guard.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import NotAnEdm, NotUnitSpherical
from .linalg import (
    DEFAULT_TOL,
    RECON_REL,
    Cut,
    EigDecomp,
    TolerancePolicy,
    fix_column_signs,
    sym_eig,
    symmetrize,
)

__all__ = [
    "DistanceMatrix",
    "EdmProfile",
    "Sphericity",
    "SphereColumns",
    "sphericity",
    "sphericities",
    "is_edm_array",
    "profile",
]

# Spherical above 1e-8 of the dimensionless (e.w) * (e.D.e / n^2), which is
# ~1 for spherical inputs and ~1e-16 for nonspherical ones.
SPHERICITY = Cut("sphericity", 1e-8)

# |2 e.w - 1| at most 1e-8 n decides unit sphericity.
UNIT_RADIUS = Cut("unit-radius", 1e-8)


class Sphericity(NamedTuple):
    """What w with a w = e says about the circumsphere of a."""

    e_dot_w: float
    # 1 / (2 e.w), or None when a fails the SPHERICITY cut.
    radius_sq: float | None
    # |2 e.w - 1|, zero at radius one.
    unit_residual: float
    # Spherical with unit_residual within the UNIT_RADIUS cut.
    unit: bool


class SphereColumns(NamedTuple):
    """Sphericity as columns, one row per matrix of a stack; radius_sq is NaN
    where a matrix fails the SPHERICITY cut."""

    e_dot_w: np.ndarray
    radius_sq: np.ndarray
    unit_residual: np.ndarray
    unit: np.ndarray
    # (s, m): the eigenvalues, descending, each row's w was solved from, if given.
    eigenvalues: np.ndarray | None = None


def sphericities(etw, ede, n: int, eigenvalues=None) -> SphereColumns:
    """The one sphericity rule, per e.w of matrices a of order n, where a w = e
    and e.a.e is ede (one scalar, or one per e.w).

    It judges a profile and each stack of perturbed matrices alike.
    """
    etw = np.asarray(etw, dtype=float).reshape(-1)
    spherical, two_etw = SPHERICITY.decide(etw * (ede / n**2)).above, 2.0 * etw
    radius_sq = np.where(spherical, 1.0, np.nan) / two_etw  # NaN / 0 raises no warning
    residual = np.abs(two_etw - 1.0)
    return SphereColumns(etw, radius_sq, residual,
                         spherical & UNIT_RADIUS.decide(residual, n).below, eigenvalues)


def sphericity(a: np.ndarray, w: np.ndarray) -> Sphericity:
    """Sphericity, squared radius and unit verdict of a from its w (a w = e)."""
    e = np.ones(a.shape[0])
    one = sphericities(float(e @ w), float(e @ a @ e), a.shape[0])
    radius_sq = one.radius_sq.item()
    return Sphericity(one.e_dot_w.item(), None if math.isnan(radius_sq) else radius_sq,
                      one.unit_residual.item(), one.unit.item())


@dataclass(frozen=True)
class DistanceMatrix:
    """Symmetric hollow matrix of squared interpoint distances, n >= 3."""

    d: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.d, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"distance matrix must be square, got shape {a.shape}")
        n = a.shape[0]
        if n < 3:
            raise ValueError("distance matrices of order < 3 are not supported")
        bad = np.argwhere(~np.isfinite(a))
        if bad.size:
            i, j = bad[0]
            raise ValueError(
                f"squared distances must be finite, got {a[i, j]} at entry ({i + 1},{j + 1})"
            )
        # Within this range max|a|^2 and its reciprocal stay finite, with room
        # for the factors of n that Gram and pseudoinverse norms add.
        top = float(np.abs(a).max())
        if top != 0.0 and not 1e-150 <= top <= 1e150:
            i, j = np.unravel_index(np.argmax(np.abs(a)), a.shape)
            raise ValueError(
                f"largest squared distance {a[i, j]} at entry ({i + 1},{j + 1}) is outside "
                "[1e-150, 1e150] in magnitude"
            )
        asym = np.abs(a - a.T)
        if asym.max() > 1e-12 * top:
            i, j = np.unravel_index(np.argmax(asym), asym.shape)
            raise ValueError(
                f"distance matrix must be symmetric: entry ({i + 1},{j + 1}) is "
                f"{a[i, j]} but ({j + 1},{i + 1}) is {a[j, i]}"
            )
        a = 0.5 * (a + a.T)
        scale = max(float(np.abs(a).max()), 1.0)
        if np.abs(np.diag(a)).max() > 1e-12 * scale:
            raise ValueError("diagonal entries must be zero")
        if a.min() < -1e-12 * scale:
            raise ValueError("squared distances must be nonnegative")
        np.fill_diagonal(a, 0.0)
        np.clip(a, 0.0, None, out=a)
        a.flags.writeable = False
        object.__setattr__(self, "d", a)

    @property
    def n(self) -> int:
        return self.d.shape[0]


@dataclass(frozen=True)
class EdmProfile:
    """Derived data of one EDM, immutable: the fields are built at construction,
    and each cached property from them on first read, then kept."""

    d: DistanceMatrix
    tol: TolerancePolicy
    r: int
    B: np.ndarray
    # B's factorization, values and vectors: the on-demand parts read it.
    b_dec: EigDecomp
    D_dag: np.ndarray
    # Eigenvalues alone of the factorization that gives D+: kappa(D), rank(D).
    d_spectrum: EigDecomp
    # Its eigenvectors above the rank cut: an orthonormal basis of range(D).
    d_range: np.ndarray
    w: np.ndarray
    sphere: Sphericity
    # Zero-test scale of w, floored at 1e-300: max |w|.
    w_scale: float

    @property
    def n(self) -> int:
        return self.d.n

    @property
    def spherical(self) -> bool:
        return self.sphere.radius_sq is not None

    @property
    def unit_spherical(self) -> bool:
        return self.sphere.unit

    @property
    def radius(self) -> float | None:
        return float(np.sqrt(self.sphere.radius_sq)) if self.spherical else None

    @cached_property
    def B_dag(self) -> np.ndarray:
        return _readonly(self.b_dec.pinv(self.tol))

    @cached_property
    def P(self) -> np.ndarray:
        """Configuration: B's leading r eigenvectors scaled by sqrt(eigenvalue),
        signs fixed so the first significant entry of each column is positive."""
        vals_r = np.clip(self.b_dec.values[: self.r], 0.0, None)
        return _readonly(fix_column_signs(self.b_dec.vectors[:, : self.r] * np.sqrt(vals_r)))

    @cached_property
    def regular(self) -> bool:
        de = self.d.d @ np.ones(self.n)
        return self.spherical and bool(np.linalg.norm(de - de.mean())
                                       <= RECON_REL * max(np.linalg.norm(de), 1.0))

    @cached_property
    def Z(self) -> np.ndarray | None:
        """Gale basis, None unless r <= n-2: B's trailing n-r eigenvectors span
        null(B), which holds e; e/sqrt(n) is projected out, the rest orthonormalized."""
        n, r = self.n, self.r
        if r > n - 2:
            return None
        u = np.ones(n) / np.sqrt(n)
        v = self.b_dec.vectors[:, r:]
        q, _, _ = np.linalg.svd(v - np.outer(u, u @ v), full_matrices=False)
        return _readonly(fix_column_signs(q[:, : n - r - 1]))

    @cached_property
    def Z_tilde(self) -> np.ndarray:
        """[w Z], or w alone as one column when Z is None."""
        return _readonly(self.w[:, None] if self.Z is None else np.column_stack([self.w, self.Z]))

    # Zero-test scales, floored at 1e-300: the max row norms of Z and of [w Z].
    @cached_property
    def z_scale(self) -> float | None:
        return None if self.Z is None else _max_row_norm(self.Z)

    @cached_property
    def zt_scale(self) -> float:
        return _max_row_norm(self.Z_tilde)

    @cached_property
    def center(self) -> np.ndarray | None:
        """Circumcenter in P's coordinates: the least squares c with
        P c = (diag B - mean(diag B)) / 2; None unless spherical."""
        if not self.spherical:
            return None
        rhs = 0.5 * (np.diag(self.B) - np.full(self.n, np.diag(self.B).mean()))
        return _readonly(np.linalg.lstsq(self.P, rhs, rcond=None)[0])


def centroid_gram(a: np.ndarray, u: np.ndarray | None = None) -> np.ndarray:
    """B = -JDJ/2, J = I - uu^T/(u.u), per matrix of a stack; u is e (default) or Q^T e."""
    u = np.ones(a.shape[-1]) if u is None else u
    j = np.eye(len(u)) - u[:, None] * u / (u @ u)
    return symmetrize(-0.5 * j @ a @ j)


def nonnegative_entries(least, top):
    """No entry below -1e-12 * top, given the least and top = max(1, max|entry|)."""
    return least >= -1e-12 * top


def is_edm_array(a: np.ndarray, gram: EigDecomp | None = None):
    """EDM test for a raw hollow symmetric array, one verdict per matrix of a stack.

    A negative entry fails (it cannot be a squared distance); otherwise the
    matrix must be negative semidefinite on the complement of the ones
    vector.  `gram` is the eigendecomposition of centroid_gram(a) when the
    caller already holds it; else its eigenvalues alone are computed.
    """
    if gram is None:
        gram = sym_eig(centroid_gram(a), vectors=False)
    top = np.abs(a).max(axis=(-2, -1), initial=1.0)
    return nonnegative_entries(a.min(axis=(-2, -1)), top) & gram.is_psd()


def _max_row_norm(a: np.ndarray) -> float:
    return max(float(np.linalg.norm(a, axis=1).max()), 1e-300)


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.flags.writeable = False
    return a


def profile(d: DistanceMatrix, tol: TolerancePolicy = DEFAULT_TOL) -> EdmProfile:
    """Derived profile of an EDM; raises NotAnEdm otherwise.

    B is factored once, for the EDM verdict and r; the profile keeps that
    factorization, whence P, B+ and the Gale basis on first read.  D+, w,
    D's spectrum and d_range come from a second one.
    """
    a = d.d

    b = centroid_gram(a)
    dec = sym_eig(b)
    if not is_edm_array(a, gram=dec):
        raise NotAnEdm("input matrix is not a Euclidean distance matrix")
    for part in (dec.values, dec.vectors):  # kept by the profile, read-only
        part.flags.writeable = False

    d_dec = sym_eig(a)
    kept = d_dec._kept(tol)
    d_dag = d_dec._inverse(kept)
    w = d_dag @ np.ones(d.n)

    return EdmProfile(
        d=d,
        tol=tol,
        r=dec.rank(tol),
        B=_readonly(b),
        b_dec=dec,
        D_dag=_readonly(d_dag),
        d_spectrum=EigDecomp(_readonly(d_dec.values), None),
        d_range=_readonly(d_dec.vectors[:, kept]),
        w=_readonly(w),
        sphere=sphericity(a, w),
        w_scale=max(float(np.abs(w).max()), 1e-300),
    )


def require_unit(prof: EdmProfile) -> None:
    """Raise NotUnitSpherical unless `prof` profiles a unit spherical EDM."""
    if not prof.unit_spherical:
        raise NotUnitSpherical("operation requires a unit spherical EDM")
