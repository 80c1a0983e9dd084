"""Radius-constrained perturbation sets of a unit spherical EDM.

For a yielding entry d_kl, T<= collects the perturbations t for which
D + t E^kl stays a spherical EDM of radius at most one, and T= those for
which the radius is exactly one.  Which case applies is decided by the
rows of [w Z] (w alone when r = n-1):

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
PerturbationReport; radius_squared evaluates the radius from that report
without classifying again.  Both parallelism tests use the profile's row
scales, and the near-parallel warnings read the ratio each test measured.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateDenominator,
    NumericalFailure,
    OutsideTleq,
    PoleAt,
    PreconditionViolated,
)
from .linalg import RECON_REL
from .model import EdmProfile
from .yielding import (
    PARALLEL_TOL,
    EntryIndex,
    Interval,
    ParallelKind,
    ParallelRelation,
    YieldingReport,
    parallel_relation,
    singleton_gap,
    theta_c,
    yielding_report,
)

__all__ = [
    "CaseTag",
    "TeqKind",
    "TeqSet",
    "RadiusCoefficients",
    "PerturbationReport",
    "radius_squared",
    "classify",
]

# Relative band within which |s^k|^2 = c^2 |s^l|^2 counts as exact, collapsing
# the two-point unit set to {0}; ten thousand times the band triggers a
# proximity warning since the two cases meet continuously.
SINGLETON_BAND = 1e-8
PROXIMITY_BAND = 1e-4
# Singular ratios below this leave the semidefiniteness defect of the
# "wrong" branch near the eigenvalue noise floor (it scales with the
# ratio squared), so a not-parallel verdict is flagged up to here.
NEAR_PARALLEL_BAND = 1e-2


class CaseTag(enum.Enum):
    NOT_YIELDING = "NotYielding"
    TLEQ_TRIVIAL = "TleqTrivial"
    CONTINUUM_UNIT = "ContinuumUnit"
    PAIR_UNIT = "PairUnit"
    SINGLETON_UNIT = "SingletonUnit"


class TeqKind(enum.Enum):
    CONTINUUM = "continuum"
    PAIR = "pair"
    SINGLETON = "singleton"


@dataclass(frozen=True)
class TeqSet:
    """Perturbations keeping the EDM exactly unit spherical."""

    kind: TeqKind
    interval: Interval | None = None
    points: tuple[float, ...] = ()

    def members(self) -> tuple[float, ...]:
        """Representative members (interval endpoints plus 5 interior samples)."""
        if self.kind is TeqKind.CONTINUUM:
            assert self.interval is not None
            inner = self.interval.interior_samples(5)
            return (self.interval.lo, *map(float, inner), self.interval.hi)
        return self.points


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
    t_eq: TeqSet
    coefficients: RadiusCoefficients | None
    warnings: tuple[str, ...] = ()

    @property
    def theta_c(self) -> float | None:
        """theta_c of the [w Z] scalar c in the rational case, else None.

        It is the nonzero end of T<=: [theta_c, 0] for c > 0, [0, theta_c]
        for c < 0.
        """
        if self.coefficients is None:
            return None
        return self.t_leq.lo if self.coefficients.c > 0 else self.t_leq.hi


def _require_unit(prof: EdmProfile) -> None:
    if not prof.unit_spherical:
        raise PreconditionViolated("perturbation sets are defined for unit spherical EDMs")


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
    scale1 = max(abs(beta1), abs(b1_alt), 1.0)
    scale2 = max(abs(beta2), abs(b2_alt), 1.0)
    if (abs(beta1 - b1_alt) > RECON_REL * scale1
            or abs(beta2 - b2_alt) > RECON_REL * scale2):
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


def _near_parallel(relation: ParallelRelation, rows: str, verdict: str) -> tuple[str, ...]:
    """Warning for a not-parallel verdict whose measured ratio is near the cut."""
    if PARALLEL_TOL < relation.ratio <= NEAR_PARALLEL_BAND:
        return (
            f"near-parallel {rows} (singular ratio {relation.ratio:.3e}): "
            f"{verdict} is tolerance-sensitive",
        )
    return ()


def classify(prof: EdmProfile, entry: EntryIndex) -> PerturbationReport:
    """Complete per-entry report: yielding data, T<=, T=, case tag, coefficients.

    This is the only code that classifies an entry.
    """
    _require_unit(prof)
    yrep = yielding_report(prof, entry)
    zero_only = TeqSet(TeqKind.SINGLETON, points=(0.0,))

    def report(tag, tleq, teq, coefficients=None, warnings=()):
        return PerturbationReport(
            entry, yrep, tag, tleq, teq, coefficients, tuple(warnings)
        )

    if not yrep.yielding:
        warnings = _near_parallel(yrep.gale_relation, "Gale rows", "the unyielding verdict")
        return report(CaseTag.NOT_YIELDING, Interval(0.0, 0.0), zero_only, warnings=warnings)

    zt = prof.Z_tilde
    trel = parallel_relation(zt[entry.i], zt[entry.j], scale=prof.zt_scale)
    if trel.kind is ParallelKind.NOT_PARALLEL:
        warnings = _near_parallel(trel, "stacked rows", "the trivial radius-one set")
        return report(CaseTag.TLEQ_TRIVIAL, Interval(0.0, 0.0), zero_only, warnings=warnings)

    if trel.kind is ParallelKind.BOTH_ZERO:
        # w_k = w_l = 0 (and z^k = z^l = 0): the radius stays 1 on the whole
        # yielding interval.
        tleq = yrep.interval
        return report(CaseTag.CONTINUUM_UNIT, tleq, TeqSet(TeqKind.CONTINUUM, interval=tleq))

    c = float(trel.c)
    tc = theta_c(prof, entry, c)
    tleq = Interval(tc, 0.0) if c > 0 else Interval(0.0, tc)
    continuum = TeqSet(TeqKind.CONTINUUM, interval=tleq)

    w = prof.w
    w_zero = PARALLEL_TOL * prof.w_scale
    wk_zero = abs(w[entry.i]) <= w_zero
    wl_zero = abs(w[entry.j]) <= w_zero

    if wk_zero and wl_zero:
        # Nonzero parallel Gale rows but both w entries vanish: radius 1
        # throughout.
        return report(CaseTag.CONTINUUM_UNIT, tleq, continuum)

    z = prof.Z
    if z is not None and float(np.linalg.norm(z[entry.i])) > PARALLEL_TOL * prof.z_scale:
        # w_k != 0 with a nonzero Gale row: radius 1 throughout.
        return report(CaseTag.CONTINUUM_UNIT, tleq, continuum)

    if yrep.theta_lower is None or yrep.theta_upper is None:
        # The rational radius formula needs both roots of g; with beta2 < 0
        # they exist, so this only triggers on numerically broken input.
        raise DegenerateDenominator(
            f"g has no usable roots for entry ({entry.k},{entry.l})"
        )
    coeffs = _build_coefficients(prof, entry, c)
    gap = singleton_gap(prof, entry, c)
    warnings = []
    if SINGLETON_BAND < gap <= PROXIMITY_BAND:
        warnings.append(
            "singleton-pair proximity: |s^k|^2 and c^2 |s^l|^2 agree to "
            f"{gap:.3e}; the classification band is {SINGLETON_BAND:.0e}"
        )
    if gap <= SINGLETON_BAND:
        return report(CaseTag.SINGLETON_UNIT, tleq, zero_only, coeffs, warnings)
    pair = TeqSet(TeqKind.PAIR, points=tuple(sorted((0.0, tc))))
    return report(CaseTag.PAIR_UNIT, tleq, pair, coeffs, warnings)


def _eval_f_over_g(
    coeffs: RadiusCoefficients, lo: float, hi: float, t: float
) -> float:
    """f(t)/g(t) with g in factored form; L'Hospital at shared roots."""
    g_fact = coeffs.beta2 * (t - lo) * (t - hi)
    f_val = coeffs.f(t)
    g_scale = abs(coeffs.beta2) * (1.0 + abs(t) + abs(lo)) * (1.0 + abs(t) + abs(hi))
    if abs(g_fact) <= 1e-12 * g_scale:
        f_scale = 1.0 + abs(coeffs.alpha1 * t) + abs(coeffs.alpha2 * t * t)
        if abs(f_val) <= 1e-8 * f_scale:
            den = coeffs.beta1 + 2.0 * coeffs.beta2 * t
            if abs(den) <= 1e-300:
                raise PoleAt(t)
            return (coeffs.alpha1 + 2.0 * coeffs.alpha2 * t) / den
        raise PoleAt(t)
    return f_val / g_fact


def radius_squared(
    report: PerturbationReport, t: float, extrapolate: bool = False
) -> float:
    """Squared radius of D + t E^kl for t in the radius-at-most-one set.

    Returns exactly 1 in the cases where the radius provably never moves.
    With extrapolate=True the rational closed form is evaluated outside
    the admissible set too (meaningful only while the perturbed matrix
    stays a spherical EDM; callers label such values accordingly).
    """
    tleq = report.t_leq
    slack = 1e-9 * (1.0 + abs(tleq.lo) + abs(tleq.hi))
    inside = tleq.contains(t, slack)
    if not inside and (report.coefficients is None or not extrapolate):
        entry = report.entry
        raise OutsideTleq(
            f"t={t} is outside the radius-one set of entry ({entry.k},{entry.l})"
        )
    if report.coefficients is None:
        return 1.0
    yrep = report.yielding_report
    return _eval_f_over_g(report.coefficients, yrep.theta_lower, yrep.theta_upper, t)
