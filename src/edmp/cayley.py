"""Bordered-matrix pathway: an independent route to the same radius data.

Bordering D with a ones row/column and a zero corner gives an
(n+1) x (n+1) matrix that is itself an EDM exactly when D is spherical
with radius at most one, and the radius satisfies

    rho^2 = 1 - e~.w~ / 2,   where  D~ w~ = e~.

For a unit spherical source the bordered matrix is a nonspherical EDM of
the same embedding dimension, its Gale matrix has the explicit block
form [[-1/2, 0], [w, Z]], and e~.w~(t) for the perturbed source has a
closed form in theta_lower, theta_upper, theta_c.  cm_w_inner reads
those values, the radius coefficients and the singleton verdict from the
entry's PerturbationReport.  Everything here is used to cross-check the
direct perturbation formulas.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    NotAnEdm,
    NotUnitSpherical,
    NumericalFailure,
    PoleAt,
    PreconditionViolated,
)
from .linalg import DEFAULT_TOL, TolerancePolicy, pinv, rank_of
from .model import DistanceMatrix, EdmProfile, centroid_gram, is_edm, profile
from .perturbation import CaseTag, PerturbationReport

__all__ = [
    "CayleyMengerView",
    "cm_build",
    "cm_is_edm",
    "cm_radius_sq",
    "cm_embedding_dim",
    "cm_gale",
    "cm_w_inner",
]

POLE_TOL = 1e-9


@dataclass(frozen=True)
class CayleyMengerView:
    """The bordered matrix of one source together with its w vector."""

    d_tilde: np.ndarray
    w_tilde: np.ndarray
    gale_tilde: np.ndarray | None
    source: DistanceMatrix
    source_profile: EdmProfile | None

    @property
    def n(self) -> int:
        """Order of the source matrix."""
        return self.source.n


def bordered(d: DistanceMatrix) -> np.ndarray:
    """D bordered by ones with a zero corner."""
    n = d.n
    out = np.ones((n + 1, n + 1))
    out[0, 0] = 0.0
    out[1:, 1:] = d.d
    return out


def cm_build(
    d: DistanceMatrix,
    tol: TolerancePolicy = DEFAULT_TOL,
    source_profile: EdmProfile | None = None,
) -> CayleyMengerView:
    """Construct the bordered view; works for any distance matrix."""
    d_tilde = bordered(d)
    w_tilde = pinv(d_tilde, tol) @ np.ones(d.n + 1)

    prof = source_profile
    if prof is None and is_edm(d, tol):
        prof = profile(d, tol)

    gale = None
    if prof is not None and prof.unit_spherical:
        if prof.Z is None:
            gale = np.concatenate([[-0.5], prof.w])[:, None]
        else:
            cols = prof.Z.shape[1]
            gale = np.zeros((d.n + 1, cols + 1))
            gale[0, 0] = -0.5
            gale[1:, 0] = prof.w
            gale[1:, 1:] = prof.Z
    d_tilde.flags.writeable = False
    w_tilde.flags.writeable = False
    return CayleyMengerView(d_tilde, w_tilde, gale, d, prof)


def cm_is_edm(view: CayleyMengerView, tol: TolerancePolicy = DEFAULT_TOL) -> bool:
    """The bordered matrix is an EDM iff the source is spherical with rho <= 1."""
    return is_edm(DistanceMatrix(view.d_tilde), tol)


def cm_radius_sq(view: CayleyMengerView, tol: TolerancePolicy = DEFAULT_TOL) -> float:
    """Squared source radius through the border: 1 - e~.w~ / 2."""
    if not cm_is_edm(view, tol):
        raise NotAnEdm("bordered matrix is not an EDM: source radius exceeds one")
    return 1.0 - 0.5 * float(view.w_tilde.sum())


def _require_unit_source(view: CayleyMengerView) -> EdmProfile:
    prof = view.source_profile
    if prof is None or not prof.unit_spherical:
        raise NotUnitSpherical("operation requires a unit spherical source")
    return prof


def cm_embedding_dim(view: CayleyMengerView, tol: TolerancePolicy = DEFAULT_TOL) -> int:
    """Embedding dimension of the bordered matrix; equals that of the source."""
    _require_unit_source(view)
    return rank_of(centroid_gram(view.d_tilde), tol)


def cm_gale(view: CayleyMengerView, tol: TolerancePolicy = DEFAULT_TOL) -> np.ndarray:
    """Explicit Gale matrix of the bordered matrix, verified against its null space."""
    prof = _require_unit_source(view)
    gale = view.gale_tilde
    if gale is None:
        raise NotUnitSpherical("operation requires a unit spherical source")
    n = view.n
    if gale.shape[1] != n - prof.r:
        raise NumericalFailure(
            f"bordered Gale matrix has {gale.shape[1]} columns, expected {n - prof.r}"
        )
    b_tilde = centroid_gram(view.d_tilde)
    stack = np.vstack([b_tilde, np.ones((1, n + 1))])
    residual = np.linalg.norm(stack @ gale)
    scale = max(np.linalg.norm(stack) * np.linalg.norm(gale), 1.0)
    if residual > tol.recon_rel * scale:
        raise NumericalFailure("bordered Gale matrix is not in the expected null space")
    return gale


def cm_w_inner(report: PerturbationReport, t: float) -> float:
    """Closed form of e~.w~(t) for the bordered matrix of D + t E^kl.

    Requires the same premise as the rational radius formula, that is a
    report with radius coefficients.  The generic branch has poles at
    theta_lower and theta_upper; in the singleton case theta_c collides
    with one of them, the pole cancels and only the other remains.
    """
    coeffs = report.coefficients
    if coeffs is None:
        raise PreconditionViolated(
            "the bordered closed form needs w_k = c w_l != 0 and r = n-1 or zero Gale rows"
        )
    lo = report.yielding_report.theta_lower
    hi = report.yielding_report.theta_upper
    tc = report.theta_c
    pole_scale = 1.0 + abs(lo) + abs(hi)

    prefactor = 8.0 * coeffs.w_l**2 * coeffs.c * t / (tc * coeffs.beta2)
    if report.case_tag is CaseTag.SINGLETON_UNIT:
        # theta_c equals theta_lower (c > 0) or theta_upper (c < 0).
        other = hi if coeffs.c > 0 else lo
        if abs(t - other) <= POLE_TOL * pole_scale:
            raise PoleAt(t)
        return prefactor / (t - other)
    if min(abs(t - lo), abs(t - hi)) <= POLE_TOL * pole_scale:
        raise PoleAt(t)
    return prefactor * (t - tc) / ((t - lo) * (t - hi))
