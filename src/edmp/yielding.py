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
from .model import EdmProfile

__all__ = [
    "PARALLEL_TOL",
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

# Singular-value ratio below which a 2-column stack counts as parallel.
PARALLEL_TOL = 1e-8

# Relative size below which a closed-form denominator counts as vanished.
DEGENERATE_TOL = 1e-12


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

    def contains(self, t, slack: float = 0.0):
        """Whether t, or each t of an array, lies within slack of the interval."""
        return (self.lo - slack <= t) & (t <= self.hi + slack)

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
    """Outcome of the parallelism test: the singular ratio s2/s1 of [u v] it
    measured (0 when both are zero) and, when SCALAR, c with u = c v."""

    kind: ParallelKind
    ratio: float = 0.0
    c: float | None = None


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
    zero = PARALLEL_TOL * scale
    if nu <= zero and nv <= zero:
        return ParallelRelation(ParallelKind.BOTH_ZERO)
    sing = np.linalg.svd(np.column_stack([u, v]), compute_uv=False)
    second = sing[1] if len(sing) > 1 else 0.0  # length-1 vectors: rank <= 1
    ratio = float(second / sing[0])
    if nu <= zero or nv <= zero or second > PARALLEL_TOL * sing[0]:
        return ParallelRelation(ParallelKind.NOT_PARALLEL, ratio)
    c = float(u @ v) / float(v @ v)
    if abs(c) * nv <= zero:
        return ParallelRelation(ParallelKind.NOT_PARALLEL, ratio)
    return ParallelRelation(ParallelKind.SCALAR, ratio, c)


def _bdag_entries(prof: EdmProfile, entry: EntryIndex) -> tuple[float, float, float]:
    entry.check_order(prof.n)
    bd = prof.B_dag
    return float(bd[entry.i, entry.i]), float(bd[entry.j, entry.j]), float(bd[entry.i, entry.j])


def theta_bounds(prof: EdmProfile, entry: EntryIndex) -> tuple[float, float]:
    """Closed-form endpoints 2/(B+_kl -+ sqrt(B+_kk B+_ll))."""
    kk, ll, kl = _bdag_entries(prof, entry)
    root = float(np.sqrt(max(kk, 0.0) * max(ll, 0.0)))
    scale = max(root + abs(kl), 1e-300)
    lo_den = kl - root
    hi_den = kl + root
    if min(abs(lo_den), abs(hi_den)) <= DEGENERATE_TOL * scale:
        raise DegenerateDenominator(
            f"interval endpoint denominator vanished for entry ({entry.k},{entry.l})"
        )
    return 2.0 / lo_den, 2.0 / hi_den


def theta_c(prof: EdmProfile, entry: EntryIndex, c: float) -> float:
    """Closed form -4c / |s^k - c s^l|^2 for a nonzero parallelism scalar c."""
    if c == 0.0:
        raise ValueError("parallelism scalar c must be nonzero")
    kk, ll, kl = _bdag_entries(prof, entry)
    den = kk + c * c * ll - 2.0 * c * kl
    scale = max(kk + c * c * ll + 2.0 * abs(c * kl), 1e-300)
    if den <= DEGENERATE_TOL * scale:
        raise DegenerateDenominator(
            f"|s^k - c s^l|^2 vanished for entry ({entry.k},{entry.l})"
        )
    return -4.0 * c / den


def singleton_gap(prof: EdmProfile, entry: EntryIndex, c: float) -> float:
    """Relative gap of |s^k|^2 = B+_kk from c^2 |s^l|^2; T= is {0} where it vanishes."""
    kk, ll, _ = _bdag_entries(prof, entry)
    cll = c * c * ll
    return abs(kk - cll) / max(kk, cll, 1e-300)


def row_interval(
    prof: EdmProfile, entry: EntryIndex, rows: np.ndarray | None, scale: float | None
) -> tuple[ParallelRelation, Interval]:
    """Relation of rows k and l of `rows` (zero-tested against `scale`) and
    its interval: [theta_lower, theta_upper] when both are zero (so when
    rows is None, the Gale stack at r = n-1), the half-interval ending at
    theta_c when u = c v, else [0, 0].  A degenerate denominator propagates.
    """
    entry.check_order(prof.n)
    if rows is None:
        relation = ParallelRelation(ParallelKind.BOTH_ZERO)
    else:
        relation = parallel_relation(rows[entry.i], rows[entry.j], scale=scale)
    if relation.kind is ParallelKind.BOTH_ZERO:
        return relation, Interval(*theta_bounds(prof, entry))
    if relation.kind is ParallelKind.SCALAR:
        tc = theta_c(prof, entry, relation.c)
        return relation, Interval(tc, 0.0) if relation.c > 0 else Interval(0.0, tc)
    return relation, Interval(0.0, 0.0)


def yielding_report(prof: EdmProfile, entry: EntryIndex) -> YieldingReport:
    """Decide yielding status of d_kl and compute its interval."""
    relation, interval = row_interval(prof, entry, prof.Z, prof.z_scale)
    try:
        lo, hi = theta_bounds(prof, entry)
    except DegenerateDenominator:
        lo = hi = None
    return YieldingReport(entry, relation, lo, hi, interval)
