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
entry's PerturbationReport.

The bordered matrix is profiled like any other EDM: profile of
DistanceMatrix(bordered(d)) gives w~, its pseudoinverse, its centroid
Gram and its rank.  Everything here is used to cross-check the direct
perturbation formulas.
"""

from __future__ import annotations

import numpy as np

from .errors import PoleAt, PreconditionViolated
from .linalg import Cut
from .model import DistanceMatrix
from .perturbation import CaseTag, PerturbationReport

__all__ = ["bordered", "cm_w_inner"]

POLE = Cut("pole", 1e-9)


def bordered(d: DistanceMatrix) -> np.ndarray:
    """D bordered by ones with a zero corner."""
    n = d.n
    out = np.ones((n + 1, n + 1))
    out[0, 0] = 0.0
    out[1:, 1:] = d.d
    return out


def cm_w_inner(report: PerturbationReport, t):
    """Closed form of e~.w~(t) for the bordered matrix of D + t E^kl, a float for
    a float t (PoleAt at a pole) and for an array of t an array, NaN at each pole.

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
    ts = np.asarray(t, dtype=float)
    with np.errstate(all="ignore"):  # a pole's value is replaced
        prefactor = 8.0 * coeffs.w_l**2 * coeffs.c * ts / (tc * coeffs.beta2)
        if report.case_tag is CaseTag.SINGLETON_UNIT:
            # theta_c equals theta_lower (c > 0) or theta_upper (c < 0).
            other = hi if coeffs.c > 0 else lo
            gap, value = abs(ts - other), prefactor / (ts - other)
        else:
            gap = np.minimum(abs(ts - lo), abs(ts - hi))
            value = prefactor * (ts - tc) / ((ts - lo) * (ts - hi))
    pole = POLE.decide(gap, 1.0 + abs(lo) + abs(hi)).below
    if ts.ndim == 0 and pole:
        raise PoleAt(t)
    return float(value) if ts.ndim == 0 else np.where(pole, np.nan, value)
