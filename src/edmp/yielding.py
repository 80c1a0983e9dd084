"""Yielding entries of an EDM and their admissible intervals.

An off-diagonal entry d_kl is yielding when it can move, all other
entries fixed, without the matrix ceasing to be an EDM.  For embedding
dimension n-1 every entry is yielding; otherwise the decision is the
parallelism of the Gale transforms z^k and z^l, decided by
parallel_relation, which keeps the ratio it measured.  row_interval maps
that relation to an interval; on the rows of [w Z] instead of Z it gives
T<=.  The interval endpoints are closed forms in entries of the
pseudoinverse of the centroid Gram matrix:

    theta_lower = 2 / (B+_kl - sqrt(B+_kk B+_ll))
    theta_upper = 2 / (B+_kl + sqrt(B+_kk B+_ll))
    theta_c     = -4c / (B+_kk + c^2 B+_ll - 2c B+_kl)
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DegenerateDenominator
from .linalg import Cut, Decision
from .model import EdmProfile

__all__ = [
    "PARALLEL",
    "ZERO",
    "EntryIndex",
    "Interval",
    "ParallelKind",
    "ParallelRelation",
    "YieldingReport",
    "parallel_relation",
    "row_interval",
    "singleton_gap",
    "theta_bounds",
    "theta_c",
    "yielding_report",
]

# A row (or w entry) at most 1e-8 of its stack's largest row norm counts as zero.
ZERO = Cut("zero", 1e-8)
# Parallel at a singular-value ratio s2/s1 up to 1e-8; up to 1e-2 the wrong branch's
# PSD defect (the ratio squared) is near eigenvalue noise, so not-parallel warns.
PARALLEL = Cut("parallel", 1e-8, band=1e-2)
# A closed-form denominator at most 1e-12 of its terms' size counts as vanished.
DEGENERATE = Cut("degenerate", 1e-12)
TINY = 1e-300  # floor of a scale that may vanish


@dataclass(frozen=True)
class EntryIndex:
    """Off-diagonal position (k, l), 1-based with k < l after normalization."""

    k: int
    l: int

    def __post_init__(self):
        k, l = int(self.k), int(self.l)
        if k == l:
            raise ValueError("diagonal entries cannot be perturbed")
        if k > l:
            k, l = l, k
        if k < 1:
            raise ValueError("entry indices are 1-based")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "l", l)

    @property
    def i(self) -> int:
        """0-based row index."""
        return self.k - 1

    @property
    def j(self) -> int:
        """0-based column index."""
        return self.l - 1

    def check_order(self, n: int) -> None:
        if self.l > n:
            raise ValueError(f"entry ({self.k},{self.l}) out of range for order {n}")


class Interval(NamedTuple):
    """Closed real interval [lo, hi]."""

    lo: float
    hi: float

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def interior_samples(self, count: int) -> np.ndarray:
        """count points strictly inside the interval, evenly placed."""
        offsets = (np.arange(count) + 0.5) / count
        return self.lo + offsets * self.width


class ParallelKind(enum.Enum):
    BOTH_ZERO = "both_zero"
    SCALAR = "scalar"
    NOT_PARALLEL = "not_parallel"


@dataclass(frozen=True)
class ParallelRelation:
    """Outcome of the parallelism test: its decisions, the singular ratio s2/s1
    of [u v] it measured (0 when both are zero) and, when SCALAR, c with u = c v."""

    kind: ParallelKind
    ratio: float = 0.0
    c: float | None = None
    decisions: tuple[Decision, ...] = ()


@dataclass(frozen=True)
class YieldingReport:
    """Yielding status and interval of one entry.

    theta_lower/theta_upper are None when their denominators vanish; that
    can only happen when the interval is governed by theta_c instead
    (e.g. for antipodal generating points the upper bound is unbounded).
    """

    entry: EntryIndex
    gale_relation: ParallelRelation
    theta_lower: float | None
    theta_upper: float | None
    interval: Interval

    @property
    def yielding(self) -> bool:
        return self.gale_relation.kind is not ParallelKind.NOT_PARALLEL

    @property
    def theta_c(self) -> float | None:
        """Nonzero end of the interval when the Gale rows are u = c v, else None."""
        c = self.gale_relation.c
        return None if c is None else (self.interval.lo if c > 0 else self.interval.hi)


def parallel_relation(u, v, scale: float) -> ParallelRelation:
    """Classify u against v: both zero, u = c v with c != 0, or not parallel.

    Zero-ness is judged against `scale`, parallelism by the singular-value
    ratio of the 2-column stack, which the relation keeps.  A zero vector
    against a nonzero one is NOT parallel: no nonzero c exists.
    """
    u = np.asarray(u, dtype=float).ravel()
    v = np.asarray(v, dtype=float).ravel()
    if u.shape != v.shape:
        raise ValueError("vectors must have equal length")
    nu = float(np.linalg.norm(u))
    nv = float(np.linalg.norm(v))
    zero_u, zero_v = ZERO.decide(nu, scale), ZERO.decide(nv, scale)
    if zero_u.below and zero_v.below:
        return ParallelRelation(ParallelKind.BOTH_ZERO, decisions=(zero_u, zero_v))
    sing = np.linalg.svd(np.column_stack([u, v]), compute_uv=False)
    par = PARALLEL.decide(sing[1] if len(sing) > 1 else 0.0, sing[0])  # length 1: rank <= 1
    made = (zero_u, zero_v, par)
    if zero_u.below or zero_v.below or par.above:
        return ParallelRelation(ParallelKind.NOT_PARALLEL, float(par.margin), decisions=made)
    c = float(u @ v) / float(v @ v)
    zero_c = ZERO.decide(abs(c) * nv, scale)
    kind = ParallelKind.NOT_PARALLEL if zero_c.below else ParallelKind.SCALAR
    return ParallelRelation(kind, float(par.margin), None if zero_c.below else c,
                            (*made, zero_c))


def _bdag_entries(prof: EdmProfile, entry: EntryIndex) -> tuple[float, float, float]:
    entry.check_order(prof.n)
    bd = prof.B_dag
    return float(bd[entry.i, entry.i]), float(bd[entry.j, entry.j]), float(bd[entry.i, entry.j])


def _vanished(entry: EntryIndex, what: str) -> DegenerateDenominator:
    return DegenerateDenominator(f"{what} vanished for entry ({entry.k},{entry.l})")


def theta_bounds(prof: EdmProfile, entry: EntryIndex) -> tuple[float, float]:
    """Closed-form endpoints 2/(B+_kl -+ sqrt(B+_kk B+_ll))."""
    kk, ll, kl = _bdag_entries(prof, entry)
    root = float(np.sqrt(max(kk, 0.0) * max(ll, 0.0)))
    lo_den = kl - root
    hi_den = kl + root
    if DEGENERATE.decide(min(abs(lo_den), abs(hi_den)), max(root + abs(kl), TINY)).below:
        raise _vanished(entry, "interval endpoint denominator")
    return 2.0 / lo_den, 2.0 / hi_den


def theta_c(prof: EdmProfile, entry: EntryIndex, c: float) -> float:
    """Closed form -4c / |s^k - c s^l|^2 for a nonzero parallelism scalar c."""
    if c == 0.0:
        raise ValueError("parallelism scalar c must be nonzero")
    kk, ll, kl = _bdag_entries(prof, entry)
    den = kk + c * c * ll - 2.0 * c * kl
    if DEGENERATE.decide(den, max(kk + c * c * ll + 2.0 * abs(c * kl), TINY)).below:
        raise _vanished(entry, "|s^k - c s^l|^2")
    return -4.0 * c / den


def singleton_gap(prof: EdmProfile, entry: EntryIndex, c: float) -> float:
    """Relative gap of |s^k|^2 = B+_kk from c^2 |s^l|^2; T= is {0} where it vanishes."""
    kk, ll, _ = _bdag_entries(prof, entry)
    cll = c * c * ll
    return abs(kk - cll) / max(kk, cll, TINY)


def row_interval(prof: EdmProfile, entry: EntryIndex, rows: np.ndarray | None,
                 scale: float | None, bounds: tuple[float | None, float | None]
                 ) -> tuple[ParallelRelation, Interval]:
    """Relation of rows k and l of `rows` (zero-tested against `scale`) and its
    interval: `bounds`, the entry's (theta_lower, theta_upper), when both are zero
    (rows None is the Gale stack at r = n-1), the half-interval ending at theta_c
    when u = c v, else [0, 0]; a vanished denominator (a None bound) raises."""
    entry.check_order(prof.n)
    if rows is None:
        relation = ParallelRelation(ParallelKind.BOTH_ZERO)
    else:
        relation = parallel_relation(rows[entry.i], rows[entry.j], scale=scale)
    if relation.kind is ParallelKind.BOTH_ZERO:
        if None in bounds:
            raise _vanished(entry, "interval endpoint denominator")
        return relation, Interval(*bounds)
    if relation.kind is ParallelKind.SCALAR:
        tc = theta_c(prof, entry, relation.c)
        return relation, Interval(tc, 0.0) if relation.c > 0 else Interval(0.0, tc)
    return relation, Interval(0.0, 0.0)


def yielding_report(prof: EdmProfile, entry: EntryIndex) -> YieldingReport:
    """Decide yielding status of d_kl and compute its interval and bounds."""
    try:
        lo, hi = theta_bounds(prof, entry)
    except DegenerateDenominator:
        lo = hi = None
    relation, interval = row_interval(prof, entry, prof.Z, prof.z_scale, (lo, hi))
    return YieldingReport(entry, relation, lo, hi, interval)
