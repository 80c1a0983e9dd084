"""Radius-constrained perturbation sets of a unit spherical EDM.

For a yielding entry d_kl, T<= collects the perturbations t for which
D + t E^kl stays a spherical EDM of radius at most one, and T= those for
which the radius is exactly one.  Which case applies is decided by the
rows of [w Z] (w alone when r = n-1), the rows k+1 and l+1 of the
bordered Gale matrix, so T<= is the yielding interval of (k+1, l+1) in
the bordered matrix:

  * rows k, l not parallel        -> T<= = {0}
  * rows both zero                -> T<= = [theta_lower, theta_upper], radius
                                     stays 1 throughout (T= = T<=)
  * rows parallel, scalar c       -> T<= = [theta_c, 0] or [0, theta_c];
      - w_k = w_l = 0, or w_k != 0 with a nonzero Gale row: radius stays 1
      - otherwise the radius follows the rational function f(t)/g(t) and
        T= is {0} or {0, theta_c} depending on whether |s^k| = |c| |s^l|.

The coefficients of f and g are built from entries of pinv(D) and
pinv(B):

    f(t) = 1 + 2 D+_kl t + ((D+_kl)^2 - D+_kk D+_ll) t^2
    g(t) = 1 - B+_kl t + ((B+_kl)^2 - B+_kk B+_ll)/4 t^2
         = beta2 (t - theta_lower)(t - theta_upper)

classify makes this case split once per entry and returns it as a
PerturbationReport, whose case tag and T<= fix T=; it raises
NotUnitSpherical (model.require_unit, the one unit guard) for a profile
that is not unit spherical.  radius_squared evaluates the radius from
that report without classifying again.  Every threshold is a linalg.Cut;
the report keeps the Decisions classify made, and its warnings are those
that came out near their cut.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDenominator, NumericalFailure, OutsideTleq, PoleAt
from .linalg import RECON_REL, Cut, Decision
from .model import EdmProfile, require_unit
from .yielding import (
    ZERO,
    EntryIndex,
    Interval,
    ParallelKind,
    YieldingReport,
    row_interval,
    singleton_gap,
    yielding_report,
)

__all__ = [
    "CaseTag",
    "RadiusCoefficients",
    "PerturbationReport",
    "radius_squared",
    "classify",
]

# Relative gap within which |s^k|^2 = c^2 |s^l|^2 counts as exact, collapsing
# the two-point unit set to {0}; up to ten thousand times that it warns,
# since the two cases meet continuously.
SINGLETON = Cut("singleton", 1e-8, band=1e-4)
# |g(t)| within 1e-12 of its terms' size is a root of g; there |f(t)| within
# 1e-8 of its terms' size shares it, unless g's slope is below 1e-300.
G_ROOT = Cut("g-root", 1e-12)
F_ZERO = Cut("f-zero", 1e-8)
FLAT = Cut("flat", 1e-300)
TLEQ_SLACK = Cut("t-leq-slack", 1e-9)


class CaseTag(enum.Enum):
    NOT_YIELDING = "NotYielding"
    TLEQ_TRIVIAL = "TleqTrivial"
    CONTINUUM_UNIT = "ContinuumUnit"
    PAIR_UNIT = "PairUnit"
    SINGLETON_UNIT = "SingletonUnit"


@dataclass(frozen=True)
class RadiusCoefficients:
    """Coefficients of f and g together with the parallelism data behind them."""

    alpha1: float
    alpha2: float
    beta1: float
    beta2: float
    c: float
    w_l: float

    def f(self, t: float) -> float:
        return 1.0 + self.alpha1 * t + self.alpha2 * t * t

    def g(self, t: float) -> float:
        return 1.0 + self.beta1 * t + self.beta2 * t * t


@dataclass(frozen=True)
class PerturbationReport:
    """Every per-entry answer, from one classification of the entry.

    radius_squared and cayley.cm_w_inner read this report instead of
    classifying the entry again.
    """

    entry: EntryIndex
    yielding_report: YieldingReport
    case_tag: CaseTag
    t_leq: Interval
    coefficients: RadiusCoefficients | None
    decisions: tuple[Decision, ...] = ()

    @property
    def warnings(self) -> tuple[str, ...]:
        """The text of each decision that came out near its cut."""
        return tuple(_warning(d, self.case_tag) for d in self.decisions if d.near)

    @property
    def theta_c(self) -> float | None:
        """theta_c of the [w Z] scalar c, the nonzero end of T<=, in the
        rational case, else None."""
        if self.coefficients is None:
            return None
        return self.t_leq.lo if self.coefficients.c > 0 else self.t_leq.hi

    @property
    def t_eq(self) -> tuple[float, ...]:
        """T=, which the case and T<= fix: the ends of T<= for ContinuumUnit
        (T= is all of T<=), the points {0, theta_c} for PairUnit and {0}
        otherwise."""
        if self.case_tag is CaseTag.CONTINUUM_UNIT:
            return tuple(self.t_leq)
        if self.case_tag is CaseTag.PAIR_UNIT:
            return tuple(sorted((0.0, self.theta_c)))
        return (0.0,)

    def teq_members(self) -> tuple[float, ...]:
        """Representative members of T=: its points, or for ContinuumUnit the
        ends of T<= and 5 interior samples."""
        if self.case_tag is CaseTag.CONTINUUM_UNIT:
            inner = map(float, self.t_leq.interior_samples(5))
            return (self.t_leq.lo, *inner, self.t_leq.hi)
        return self.t_eq


def _build_coefficients(
    prof: EdmProfile, entry: EntryIndex, c: float
) -> RadiusCoefficients:
    i, j = entry.i, entry.j
    dd = prof.D_dag
    bd = prof.B_dag
    alpha1 = 2.0 * dd[i, j]
    alpha2 = dd[i, j] ** 2 - dd[i, i] * dd[j, j]
    beta1 = -bd[i, j]
    beta2 = (bd[i, j] ** 2 - bd[i, i] * bd[j, j]) / 4.0
    w_l = float(prof.w[j])

    # Internal consistency of the two derivations of beta1, beta2; a failure
    # here means w and the parallelism scalar disagree with the profile.
    b1_alt = alpha1 - 4.0 * c * w_l**2
    b2_alt = alpha2 + 2.0 * w_l**2 * (dd[i, i] + c * c * dd[j, j] - 2.0 * c * dd[i, j])
    # The entries of D+ carry about n kappa(D) eps of error near a rank drop.
    gate = RECON_REL + prof.n * prof.d_spectrum.cond(prof.tol) * np.finfo(float).eps
    scale1 = max(abs(beta1), abs(b1_alt), 1.0)
    scale2 = max(abs(beta2), abs(b2_alt), 1.0)
    if (abs(beta1 - b1_alt) > gate * scale1
            or abs(beta2 - b2_alt) > gate * scale2):
        raise NumericalFailure(
            f"radius coefficient identities failed for entry ({entry.k},{entry.l})"
        )
    if beta2 >= 0.0:
        raise NumericalFailure(
            f"quadratic coefficient of g is not negative for entry ({entry.k},{entry.l})"
        )
    return RadiusCoefficients(
        float(alpha1), float(alpha2), float(beta1), float(beta2), float(c), w_l
    )


def _warning(decision: Decision, tag: CaseTag) -> str:
    """The text of a near decision: a singleton gap, or the parallelism ratio
    of the rows that decided `tag` (the Gale rows unless they yield)."""
    if decision.name == SINGLETON.name:
        return ("singleton-pair proximity: |s^k|^2 and c^2 |s^l|^2 agree to "
                f"{decision.margin:.3e}; the classification band is {SINGLETON.threshold:.0e}")
    rows, verdict = (("Gale rows", "the unyielding verdict") if tag is CaseTag.NOT_YIELDING
                     else ("stacked rows", "the trivial radius-one set"))
    return (f"near-parallel {rows} (singular ratio {decision.margin:.3e}): "
            f"{verdict} is tolerance-sensitive")


def classify(prof: EdmProfile, entry: EntryIndex) -> PerturbationReport:
    """Complete per-entry report: yielding data, T<=, T=, case tag, coefficients.

    This is the only code that classifies an entry.  It raises
    NotUnitSpherical unless `prof` is unit spherical.
    """
    require_unit(prof)
    yrep = yielding_report(prof, entry)
    decisions = list(yrep.gale_relation.decisions)

    def report(tag, tleq, coefficients=None):
        return PerturbationReport(entry, yrep, tag, tleq, coefficients, tuple(decisions))

    if not yrep.yielding:
        return report(CaseTag.NOT_YIELDING, yrep.interval)

    trel, tleq = row_interval(prof, entry, prof.Z_tilde, prof.zt_scale,
                              (yrep.theta_lower, yrep.theta_upper))
    decisions += trel.decisions
    if trel.kind is ParallelKind.NOT_PARALLEL:
        return report(CaseTag.TLEQ_TRIVIAL, tleq)

    w_zero = [ZERO.decide(abs(prof.w[k]), prof.w_scale) for k in (entry.i, entry.j)]
    decisions += w_zero
    # The radius stays 1 on all of T<= when the [w Z] rows both vanish, when
    # w_k = w_l = 0 beside nonzero parallel Gale rows, and when w_k != 0
    # beside nonzero parallel Gale rows.
    if (trel.kind is ParallelKind.BOTH_ZERO or (w_zero[0].below and w_zero[1].below)
            or yrep.gale_relation.kind is ParallelKind.SCALAR):
        return report(CaseTag.CONTINUUM_UNIT, tleq)

    if yrep.theta_lower is None or yrep.theta_upper is None:
        # The rational radius formula needs both roots of g; with beta2 < 0
        # they exist, so this only triggers on numerically broken input.
        raise DegenerateDenominator(
            f"g has no usable roots for entry ({entry.k},{entry.l})"
        )
    coeffs = _build_coefficients(prof, entry, trel.c)
    singleton = SINGLETON.decide(singleton_gap(prof, entry, trel.c))
    decisions.append(singleton)
    return report(CaseTag.SINGLETON_UNIT if singleton.below else CaseTag.PAIR_UNIT, tleq, coeffs)


def _eval_f_over_g(coeffs: RadiusCoefficients, lo: float, hi: float, t):
    """f(t)/g(t) per t, with g in factored form and L'Hospital at shared roots,
    and the mask of poles, where the value is NaN."""
    with np.errstate(all="ignore"):
        g_fact = coeffs.beta2 * (t - lo) * (t - hi)
        f_val = coeffs.f(t)
        one_t = 1.0 + abs(t)
        g_scale = abs(coeffs.beta2) * (one_t + abs(lo)) * (one_t + abs(hi))
        root = G_ROOT.decide(abs(g_fact), g_scale).below
        value = f_val / g_fact
        if not root.any():  # most calls: no t at a root of g, so no pole
            return value, root
        f_scale = 1.0 + abs(coeffs.alpha1 * t) + abs(coeffs.alpha2 * t * t)
        den = coeffs.beta1 + 2.0 * coeffs.beta2 * t
        pole = root & (~F_ZERO.decide(abs(f_val), f_scale).below | FLAT.decide(abs(den)).below)
        value = np.where(root, (coeffs.alpha1 + 2.0 * coeffs.alpha2 * t) / den, value)
    return np.where(pole, np.nan, value), pole


def radius_squared(report: PerturbationReport, t, extrapolate: bool = False):
    """Squared radius of D + t E^kl for t in the radius-at-most-one set, a float
    for a float t and an array for an array of t.

    Returns exactly 1 in the cases where the radius provably never moves.
    With extrapolate=True the rational closed form is evaluated outside
    the admissible set too (meaningful only while the perturbed matrix
    stays a spherical EDM; callers label such values accordingly), and an
    array holds NaN at each pole; otherwise the first t outside the set
    raises OutsideTleq, and the first pole PoleAt.
    """
    tleq, coeffs = report.t_leq, report.coefficients
    ts = np.asarray(t, dtype=float)
    # How far each t lies beyond T<=; a NaN t is not within the slack.
    beyond = np.maximum(tleq.lo - ts, ts - tleq.hi)
    within = TLEQ_SLACK.decide(beyond, 1.0 + abs(tleq.lo) + abs(tleq.hi)).below
    outside = ~within & (coeffs is None or not extrapolate)
    if coeffs is None:
        value, pole = np.ones(ts.shape), False
    else:
        yrep = report.yielding_report
        value, pole = _eval_f_over_g(coeffs, yrep.theta_lower, yrep.theta_upper, ts)
    raised = outside | (pole & (ts.ndim == 0 or not extrapolate))
    if raised.any():
        first = np.argmax(raised)
        at = t if ts.ndim == 0 else float(ts.flat[first])
        if np.ravel(outside)[first]:
            entry = report.entry
            raise OutsideTleq(
                f"t={at} is outside the radius-one set of entry ({entry.k},{entry.l})"
            )
        raise PoleAt(at)
    return float(value) if ts.ndim == 0 else value
