"""EDM recognition and the derived profile of one distance matrix.

A hollow symmetric nonnegative matrix D is an EDM exactly when the
centroid Gram matrix B = -JDJ/2 is positive semidefinite.  From one
eigendecomposition of B the profile derives the EDM verdict, the
embedding dimension, a deterministic configuration, B+ and the Gale
basis (B's null eigenvectors with e projected out), plus w with Dw = e
and the sphericity data (radius, center, regularity).  Spherical EDMs of
radius one are the domain of the perturbation machinery in the rest of
the package.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotAnEdm, NotUnitSpherical
from .linalg import (
    DEFAULT_TOL,
    RECON_REL,
    EigDecomp,
    TolerancePolicy,
    fix_column_signs,
    pinv,
    sym_eig,
    symmetrize,
)

__all__ = [
    "DistanceMatrix",
    "EdmProfile",
    "SPHERICITY_TOL",
    "UNIT_RADIUS_TOL",
    "is_edm_array",
    "is_unit_radius",
    "profile",
    "bdag_identity",
    "bprime_dag_identity",
    "cm_dag_block",
]

# Dimensionless sphericity threshold on (e.w) * (e.D.e / n^2); the product
# is ~1 for spherical inputs and ~1e-16 for nonspherical ones.
SPHERICITY_TOL = 1e-8

# |2 e.w - 1| <= UNIT_RADIUS_TOL * n decides unit sphericity.
UNIT_RADIUS_TOL = 1e-8


def is_unit_radius(e_dot_w: float, n: int) -> bool:
    """Unit-radius decision for a spherical EDM of order n with D w = e."""
    return abs(2.0 * e_dot_w - 1.0) <= UNIT_RADIUS_TOL * n


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

    def perturbed_array(self, k: int, l: int, t: float) -> np.ndarray:
        """Raw copy with t added to the (k,l) and (l,k) entries (0-based).

        No validation: the result may have a negative entry, in which case
        it is simply not an EDM.
        """
        a = np.array(self.d)
        a[k, l] += t
        a[l, k] += t
        return a

    def perturbed(self, k: int, l: int, t: float) -> "DistanceMatrix":
        """Validated copy with t added to the (k,l) and (l,k) entries (0-based)."""
        return DistanceMatrix(self.perturbed_array(k, l, t))


@dataclass(frozen=True)
class EdmProfile:
    """Cached derived data of one EDM.  Immutable after construction."""

    d: DistanceMatrix
    tol: TolerancePolicy
    r: int
    B: np.ndarray
    B_dag: np.ndarray
    D_dag: np.ndarray
    P: np.ndarray
    w: np.ndarray
    Z: np.ndarray | None
    Z_tilde: np.ndarray
    spherical: bool
    unit_spherical: bool
    radius: float | None
    center: np.ndarray | None
    regular: bool
    # Zero-test scales, floored at 1e-300: max |w|, the max row norm of Z
    # (None when Z is None) and the max row norm of [w Z].
    w_scale: float
    z_scale: float | None
    zt_scale: float

    @property
    def n(self) -> int:
        return self.d.n


def centroid_gram(a: np.ndarray) -> np.ndarray:
    """B = -JDJ/2 with J the centering projector."""
    n = a.shape[0]
    j = np.eye(n) - np.full((n, n), 1.0 / n)
    return symmetrize(-0.5 * j @ a @ j)


def is_edm_array(a: np.ndarray, gram: EigDecomp | None = None) -> bool:
    """EDM test for a raw hollow symmetric array.

    A negative entry fails immediately (it cannot be a squared distance);
    otherwise the matrix must be negative semidefinite on the complement
    of the ones vector.  `gram` is the eigendecomposition of
    centroid_gram(a) when the caller already holds it.
    """
    if a.min() < -1e-12 * max(float(np.abs(a).max()), 1.0):
        return False
    if gram is None:
        gram = sym_eig(centroid_gram(a))
    return gram.is_psd()


def _max_row_norm(a: np.ndarray) -> float:
    return max(float(np.linalg.norm(a, axis=1).max()), 1e-300)


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.flags.writeable = False
    return a


def profile(d: DistanceMatrix, tol: TolerancePolicy = DEFAULT_TOL) -> EdmProfile:
    """Full derived profile of an EDM; raises NotAnEdm otherwise.

    B is factored once: the EDM verdict, r, P, B+ and the Gale basis all
    come from that decomposition.  D+ comes from a second one.  The row
    scales that every zero and parallelism test is judged against are
    computed once here.
    """
    a = d.d
    n = d.n
    e = np.ones(n)

    b = centroid_gram(a)
    dec = sym_eig(b)
    if not is_edm_array(a, gram=dec):
        raise NotAnEdm("input matrix is not a Euclidean distance matrix")
    r = dec.rank(tol)

    # Deterministic configuration: columns ordered by descending eigenvalue,
    # signs fixed so the first significant entry of each column is positive.
    vals_r = np.clip(dec.values[:r], 0.0, None)
    p = fix_column_signs(dec.vectors[:, :r] * np.sqrt(vals_r))

    d_dag = pinv(a, tol)
    w = d_dag @ e
    b_dag = dec.pinv(tol)

    etw = float(e @ w)
    mean_sq = float(e @ a @ e) / n**2
    spherical = etw * mean_sq > SPHERICITY_TOL

    unit = spherical and is_unit_radius(etw, n)
    radius = float(np.sqrt(1.0 / (2.0 * etw))) if spherical else None

    center = None
    if spherical:
        rhs = 0.5 * (np.diag(b) - np.full(n, np.diag(b).mean()))
        center, *_ = np.linalg.lstsq(p, rhs, rcond=None)

    de = a @ e
    regular = spherical and bool(
        np.linalg.norm(de - de.mean() * e) <= RECON_REL * max(np.linalg.norm(de), 1.0)
    )

    # Gale basis: B's trailing n-r eigenvectors span null(B), which holds e;
    # project out e/sqrt(n) and orthonormalize what is left.
    z = None
    if r <= n - 2:
        u = e / np.sqrt(n)
        v = dec.vectors[:, r:]
        q, _, _ = np.linalg.svd(v - np.outer(u, u @ v), full_matrices=False)
        z = fix_column_signs(q[:, : n - r - 1])
        z_tilde = np.column_stack([w, z])
        z = _readonly(z)
    else:
        z_tilde = w[:, None].copy()

    return EdmProfile(
        d=d,
        tol=tol,
        r=r,
        B=_readonly(b),
        B_dag=_readonly(b_dag),
        D_dag=_readonly(d_dag),
        P=_readonly(p),
        w=_readonly(w),
        Z=z,
        Z_tilde=_readonly(z_tilde),
        spherical=spherical,
        unit_spherical=unit,
        radius=radius,
        center=_readonly(center) if center is not None else None,
        regular=regular,
        w_scale=max(float(np.abs(w).max()), 1e-300),
        z_scale=None if z is None else _max_row_norm(z),
        zt_scale=_max_row_norm(z_tilde),
    )


def require_unit(prof: EdmProfile) -> None:
    """Raise NotUnitSpherical unless `prof` profiles a unit spherical EDM."""
    if not prof.unit_spherical:
        raise NotUnitSpherical("operation requires a unit spherical EDM")


def bdag_identity(prof: EdmProfile) -> np.ndarray:
    """Pseudoinverse of the centroid Gram matrix as -2 pinv(D) + 4 w w^T."""
    require_unit(prof)
    return symmetrize(-2.0 * prof.D_dag + 4.0 * np.outer(prof.w, prof.w))


def bprime_dag_identity(prof: EdmProfile) -> np.ndarray:
    """Pseudoinverse of E - D/2 expressed through pinv(D) and w alone."""
    require_unit(prof)
    w = prof.w
    ww = float(w @ w)
    dw = prof.D_dag @ w
    correction = (
        np.outer(dw, w) + np.outer(w, dw) - (float(w @ dw) / ww) * np.outer(w, w)
    )
    return symmetrize(-2.0 * prof.D_dag + (2.0 / ww) * correction)


def cm_dag_block(prof: EdmProfile) -> np.ndarray:
    """Closed-form pseudoinverse of the bordered matrix [[0, e^T], [e, D]].

    Equals [[-2, 2w^T], [2w, -pinv(B)/2]] for unit spherical D.
    """
    require_unit(prof)
    n = prof.n
    out = np.empty((n + 1, n + 1))
    out[0, 0] = -2.0
    out[0, 1:] = 2.0 * prof.w
    out[1:, 0] = 2.0 * prof.w
    out[1:, 1:] = -0.5 * prof.B_dag
    return symmetrize(out)
