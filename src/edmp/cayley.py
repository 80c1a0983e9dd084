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

A view factors its bordered matrix once and keeps that decomposition and
the tolerance policy it was built under, so w~ and every cm_ test on the
view share one policy.  The bordered centroid Gram is built and factored
on first use, once, for the EDM test, the embedding dimension and the
Gale check, so views that only read w~ skip it.  Building a view does
not profile the source; cm_gale and cm_embedding_dim take the source
profile from the caller, which already holds it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    NotAnEdm,
    NotUnitSpherical,
    NumericalFailure,
    PoleAt,
    PreconditionViolated,
)
from .linalg import DEFAULT_TOL, EigDecomp, TolerancePolicy, sym_eig
from .model import DistanceMatrix, EdmProfile, centroid_gram, is_edm_array
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
    """The bordered matrix of one source, its eigendecomposition, w vector and policy."""

    d_tilde: np.ndarray
    eig: EigDecomp
    w_tilde: np.ndarray
    tol: TolerancePolicy

    @cached_property
    def b_tilde(self) -> np.ndarray:
        """Bordered centroid Gram, built on first use."""
        return centroid_gram(self.d_tilde)

    @cached_property
    def gram(self) -> EigDecomp:
        """Eigendecomposition of the bordered centroid Gram, made on first use."""
        return sym_eig(self.b_tilde)


def bordered(d: DistanceMatrix) -> np.ndarray:
    """D bordered by ones with a zero corner."""
    n = d.n
    out = np.ones((n + 1, n + 1))
    out[0, 0] = 0.0
    out[1:, 1:] = d.d
    return out


def cm_build(d: DistanceMatrix, tol: TolerancePolicy = DEFAULT_TOL) -> CayleyMengerView:
    """Factor the bordered matrix once; works for any distance matrix."""
    d_tilde = bordered(d)
    dec = sym_eig(d_tilde)
    w_tilde = dec.pinv(tol) @ np.ones(d.n + 1)
    d_tilde.flags.writeable = False
    w_tilde.flags.writeable = False
    return CayleyMengerView(d_tilde, dec, w_tilde, tol)


def cm_is_edm(view: CayleyMengerView) -> bool:
    """The bordered matrix is an EDM iff the source is spherical with rho <= 1."""
    return is_edm_array(view.d_tilde, view.tol, gram=view.gram)


def cm_radius_sq(view: CayleyMengerView) -> float:
    """Squared source radius through the border: 1 - e~.w~ / 2."""
    if not cm_is_edm(view):
        raise NotAnEdm("bordered matrix is not an EDM: source radius exceeds one")
    return 1.0 - 0.5 * float(view.w_tilde.sum())


def cm_embedding_dim(view: CayleyMengerView, prof: EdmProfile) -> int:
    """Embedding dimension of the bordered matrix; equals that of the source `prof`."""
    if not prof.unit_spherical:
        raise NotUnitSpherical("operation requires a unit spherical source")
    return view.gram.rank(view.tol)


def cm_gale(view: CayleyMengerView, prof: EdmProfile) -> np.ndarray:
    """Explicit Gale matrix [[-1/2, 0], [w, Z]] of the bordered matrix of the
    unit spherical source profiled by `prof`, verified against its null space."""
    if not prof.unit_spherical:
        raise NotUnitSpherical("operation requires a unit spherical source")
    n = prof.n
    gale = np.zeros((n + 1, prof.Z_tilde.shape[1]))
    gale[0, 0] = -0.5
    gale[1:] = prof.Z_tilde
    stack = np.vstack([view.b_tilde, np.ones((1, n + 1))])
    residual = np.linalg.norm(stack @ gale)
    scale = max(np.linalg.norm(stack) * np.linalg.norm(gale), 1.0)
    if residual > view.tol.recon_rel * scale:
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
