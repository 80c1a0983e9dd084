"""Seeded instance generators and independent verification oracles.

Generators build unit spherical EDMs with prescribed Gale structure from
unit-norm points whose affine hull is all of R^r, which pins the
circumcenter at the origin and the circumradius at one.  Oracles check
membership claims through raw eigenvalue tests and recover the minimal
feasible radius by bisection, independently of every closed form.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import Infeasible, InfeasibleSpec, NumericalFailure
from .linalg import DEFAULT_TOL, PSD_SLACK, EigDecomp, TolerancePolicy, sym_eig
from .model import (
    SPHERICITY_TOL,
    DistanceMatrix,
    EdmProfile,
    centroid_gram,
    is_unit_radius,
    profile,
)
from .yielding import EntryIndex, parallel_relation, singleton_gap

__all__ = [
    "Structure",
    "InstanceSpec",
    "SweepRecord",
    "edm_from_points",
    "gen_unit_spherical",
    "perturbed_w",
    "membership_scan",
    "sdp_min_radius_sq",
    "radius_sq_direct",
    "unit_residual",
    "in_t_leq_oracle",
    "locate_t_leq_boundary",
]

MAX_ATTEMPTS = 128

# Margins that keep generated instances robustly away from every
# classification threshold (see PARALLEL_TOL and the singleton band).
GENERIC_MARGIN = 1e-4
ZERO_MARGIN = 1e-10
# Gale entries this small make the PSD defect just beyond the yield
# interval quadratic in the overshoot and hence undetectable; reject them.
GALE_ENTRY_MARGIN = 0.05

# sdp_min_radius_sq bisects lam down to a bracket of SDP_GAP and gives up
# above SDP_CAP; locate_t_leq_boundary bisects t down to BOUNDARY_XTOL.
SDP_GAP = 1e-9
SDP_CAP = 1e4
BOUNDARY_XTOL = 1e-8


class Structure(enum.Enum):
    """Requested Gale structure of a generated instance."""

    GENERIC = "generic"
    PARALLEL_GALE_PAIR = "parallel-gale"
    ZERO_GALE_PAIR = "zero-gale"
    MIRROR_PAIR = "mirror"
    ZERO_W_PAIR = "zero-w"


@dataclass(frozen=True)
class InstanceSpec:
    """Order, embedding dimension, structure and seed of one instance."""

    n: int
    r: int
    structure: Structure = Structure.GENERIC
    entry: EntryIndex | None = None
    seed: int = 0

    def validate(self) -> None:
        if self.n < 3:
            raise InfeasibleSpec("instances need at least 3 points")
        if not 1 <= self.r <= self.n - 1:
            raise InfeasibleSpec(
                f"embedding dimension must satisfy 1 <= r <= n-1, got n={self.n} r={self.r}"
            )
        if self.structure is Structure.GENERIC:
            return
        if self.entry is None:
            raise InfeasibleSpec(f"structure {self.structure.value} needs a target entry")
        if self.entry.l > self.n:
            raise InfeasibleSpec("target entry out of range")
        if self.structure is Structure.PARALLEL_GALE_PAIR:
            if self.r > self.n - 2:
                raise InfeasibleSpec("parallel Gale rows need r <= n-2")
            if self.n != self.r + 2:
                raise InfeasibleSpec(
                    "the parallel-gale construction uses a one-column Gale matrix, n = r+2"
                )
        elif self.structure is Structure.ZERO_GALE_PAIR:
            if self.r > self.n - 3:
                raise InfeasibleSpec("zero Gale rows need r <= n-3")
            if self.r < 2:
                raise InfeasibleSpec("zero Gale rows need r >= 2")
        elif self.structure is Structure.MIRROR_PAIR:
            if self.r < 2:
                raise InfeasibleSpec("mirrored pairs need r >= 2")
        elif self.structure is Structure.ZERO_W_PAIR:
            if self.n != self.r + 1:
                raise InfeasibleSpec("the zero-w construction needs n = r+1")
            if self.n < 4:
                raise InfeasibleSpec("the zero-w construction needs n >= 4")


@dataclass(frozen=True)
class SweepRecord:
    """Raw oracle verdicts for one sampled perturbation."""

    t: float
    is_edm: bool
    is_spherical: bool
    radius_sq: float | None
    in_t_leq: bool
    in_t_eq: bool


def edm_from_points(points: np.ndarray) -> DistanceMatrix:
    """Squared-distance matrix of a point configuration (rows are points)."""
    g = points @ points.T
    sq = np.diag(g)
    d = sq[:, None] + sq[None, :] - 2.0 * g
    return DistanceMatrix(d)


def _unit_rows(rng: np.random.Generator, count: int, dim: int) -> np.ndarray:
    v = rng.normal(size=(count, dim))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _affine_rank_ok(points: np.ndarray, r: int) -> bool:
    n = points.shape[0]
    stack = np.column_stack([points, np.ones(n)])
    sing = np.linalg.svd(stack, compute_uv=False)
    if len(sing) < r + 1:
        return False
    return sing[r] > 1e-6 * sing[0]


def _points_generic(rng: np.random.Generator, n: int, r: int) -> np.ndarray:
    # Also serves the parallel-gale structure: with n = r+2 the Gale matrix
    # is a single column, generically with all entries nonzero, so z^k and
    # z^l are automatically parallel scalars.
    return _unit_rows(rng, n, r)


def _points_zero_gale(
    rng: np.random.Generator, n: int, r: int, entry: EntryIndex
) -> np.ndarray:
    # All affine dependences are confined to the complement of {k, l}: the
    # complement lies on an (r-3)-sphere slice at a fixed generic offset in
    # the last two coordinates, while points k and l are generic.  The slice
    # offset keeps the circumcenter outside the complement's affine hull, so
    # w stays nonzero at the target pair.
    points = np.zeros((n, r))
    rest = [i for i in range(n) if i not in (entry.i, entry.j)]
    if r == 2:
        # The complement collapses to a single repeated point.
        anchor = _unit_rows(rng, 1, 2)[0]
        for i in rest:
            points[i] = anchor
        points[entry.i] = _unit_rows(rng, 1, 2)[0]
        points[entry.j] = _unit_rows(rng, 1, 2)[0]
        return points
    offset = rng.uniform(0.2, 0.5, size=2)
    rho = float(np.sqrt(1.0 - offset @ offset))
    sub = _unit_rows(rng, len(rest), r - 2)
    for row, i in enumerate(rest):
        points[i, : r - 2] = rho * sub[row]
        points[i, r - 2 :] = offset
    points[entry.i] = _unit_rows(rng, 1, r)[0]
    points[entry.j] = _unit_rows(rng, 1, r)[0]
    return points


def _points_mirror(
    rng: np.random.Generator, n: int, r: int, entry: EntryIndex
) -> np.ndarray:
    # Reflection through the last coordinate hyperplane swaps points k and l
    # and fixes every other point, so w_k = w_l and z^k = z^l exactly.  The
    # fixed points have last coordinate exactly 0, which makes the symmetry
    # bitwise exact in floating point.
    points = np.zeros((n, r))
    rest = [i for i in range(n) if i not in (entry.i, entry.j)]
    fixed = _unit_rows(rng, len(rest), r - 1)
    for row, i in enumerate(rest):
        points[i, : r - 1] = fixed[row]
    q = rng.uniform(0.3, 0.9) * _unit_rows(rng, 1, r - 1)[0]
    s = float(np.sqrt(1.0 - q @ q))
    points[entry.i, : r - 1] = q
    points[entry.i, r - 1] = s
    points[entry.j, : r - 1] = q
    points[entry.j, r - 1] = -s
    return points


def _points_zero_w(
    rng: np.random.Generator, n: int, r: int, entry: EntryIndex
) -> np.ndarray:
    # An antipodal pair among the complement puts the circumcenter in the
    # affine hull of the complement alone, forcing w to vanish off the pair.
    points = _unit_rows(rng, n, r)
    rest = [i for i in range(n) if i not in (entry.i, entry.j)]
    points[rest[1]] = -points[rest[0]]
    return points


def _pair_gap(prof: EdmProfile, i: int, j: int) -> float:
    """Relative distance of B+_kk from c^2 B+_ll, the singleton criterion."""
    if abs(prof.w[j]) < 1e-300:
        return 1.0
    return singleton_gap(prof, EntryIndex(i + 1, j + 1), float(prof.w[i] / prof.w[j]))


def _dip_margin(prof: EdmProfile, i: int, j: int) -> float:
    """Depth scale |c w_l^2 theta_c| of the radius dip between unit points.

    Between the members of a discrete unit set the squared radius deviates
    from one by about this amount; instances where it is tiny cannot be
    told apart from a continuum at any fixed tolerance.
    """
    if abs(prof.w[j]) < 1e-300:
        return 0.0
    c = float(prof.w[i] / prof.w[j])
    bd = prof.B_dag
    den = float(bd[i, i] + c * c * bd[j, j] - 2.0 * c * bd[i, j])
    if den <= 1e-300:
        return 0.0
    return 4.0 * c * c * float(prof.w[j]) ** 2 / den


def _structure_ok(spec: InstanceSpec, prof: EdmProfile) -> bool:
    if prof.r != spec.r or not prof.unit_spherical:
        return False
    if prof.radius is None or abs(prof.radius - 1.0) > 1e-10:
        return False
    # Conditioning gate: near-degenerate simplexes blow up w and the dual
    # Gram entries, and with them every closed-form tolerance.
    w_scale = prof.w_scale
    if w_scale > 5.0:
        return False
    if float(np.diag(prof.B_dag).max()) > 100.0:
        return False
    entry = spec.entry
    if spec.structure is Structure.GENERIC:
        if spec.n == spec.r + 1:
            # Every w entry away from zero, every pair clear of the
            # singleton band, and a detectable radius dip keep the
            # classification unambiguous at the declared tolerances.
            if np.abs(prof.w).min() <= GENERIC_MARGIN * w_scale:
                return False
            return all(
                _pair_gap(prof, i, j) > 1e-5 and _dip_margin(prof, i, j) > 2e-5
                for i in range(spec.n)
                for j in range(i + 1, spec.n)
            )
        if entry is not None and prof.Z is not None and prof.Z.shape[1] >= 2:
            # The designated pair must be robustly nonparallel.  A one-column
            # Z has a single singular value and is exempt.
            rel = parallel_relation(prof.Z[entry.i], prof.Z[entry.j], scale=prof.z_scale)
            return rel.ratio > GENERIC_MARGIN
        return True
    if spec.structure is Structure.PARALLEL_GALE_PAIR:
        assert prof.Z is not None
        col = prof.Z[:, 0]
        if np.abs(col).min() <= GALE_ENTRY_MARGIN * np.abs(col).max():
            return False
        # The stacked [w z] rows must be robustly nonparallel at the entry.
        zt = prof.Z_tilde
        rel = parallel_relation(zt[entry.i], zt[entry.j], scale=prof.zt_scale)
        return rel.ratio > GENERIC_MARGIN
    if spec.structure is Structure.ZERO_GALE_PAIR:
        assert prof.Z is not None
        z_zero = ZERO_MARGIN * prof.z_scale
        rows_zero = (
            np.linalg.norm(prof.Z[entry.i]) <= z_zero
            and np.linalg.norm(prof.Z[entry.j]) <= z_zero
        )
        w_ok = (
            abs(prof.w[entry.i]) > GENERIC_MARGIN * w_scale
            and abs(prof.w[entry.j]) > GENERIC_MARGIN * w_scale
        )
        return (
            rows_zero
            and w_ok
            and _pair_gap(prof, entry.i, entry.j) > 1e-5
            and _dip_margin(prof, entry.i, entry.j) > 2e-5
        )
    if spec.structure is Structure.MIRROR_PAIR:
        mirrored = abs(prof.w[entry.i] - prof.w[entry.j]) <= 1e-12 * w_scale
        if not (mirrored and abs(prof.w[entry.i]) > GENERIC_MARGIN * w_scale):
            return False
        if prof.Z is not None:
            # The shared Gale row must be robustly nonzero so the radius
            # provably stays at one on the whole admissible interval and the
            # cone exit beyond it stays first-order detectable.
            return bool(np.linalg.norm(prof.Z[entry.i]) > GALE_ENTRY_MARGIN * prof.z_scale)
        return _dip_margin(prof, entry.i, entry.j) > 2e-5
    if spec.structure is Structure.ZERO_W_PAIR:
        return bool(
            abs(prof.w[entry.i]) <= ZERO_MARGIN * w_scale
            and abs(prof.w[entry.j]) <= ZERO_MARGIN * w_scale
        )
    return False


def gen_unit_spherical(
    spec: InstanceSpec, tol: TolerancePolicy = DEFAULT_TOL
) -> DistanceMatrix:
    """Deterministic unit spherical EDM with the requested structure."""
    spec.validate()
    rng = np.random.default_rng(np.uint64(spec.seed))
    for _ in range(MAX_ATTEMPTS):
        if spec.structure in (Structure.GENERIC, Structure.PARALLEL_GALE_PAIR):
            points = _points_generic(rng, spec.n, spec.r)
        elif spec.structure is Structure.ZERO_GALE_PAIR:
            points = _points_zero_gale(rng, spec.n, spec.r, spec.entry)
        elif spec.structure is Structure.MIRROR_PAIR:
            points = _points_mirror(rng, spec.n, spec.r, spec.entry)
        else:
            points = _points_zero_w(rng, spec.n, spec.r, spec.entry)
        if not _affine_rank_ok(points, spec.r):
            continue
        d = edm_from_points(points)
        try:
            prof = profile(d, tol)
        except NumericalFailure:
            continue
        if _structure_ok(spec, prof):
            return d
    raise NumericalFailure(f"instance generation did not converge for {spec}")


def in_t_leq_oracle(
    d: DistanceMatrix, entry: EntryIndex, t: float, slack: float = PSD_SLACK
) -> bool:
    """Membership in the radius-one set by the raw test 2E - D - tE^kl >= 0.

    slack is the semidefiniteness slack; boundary location uses a much
    tighter value since interior eigenvalue noise sits at ~1e-15.
    """
    return sym_eig(2.0 - d.perturbed_array(entry.i, entry.j, t)).is_psd(slack)


def perturbed_w(
    d: DistanceMatrix, entry: EntryIndex, t: float, tol: TolerancePolicy = DEFAULT_TOL
) -> tuple[np.ndarray, EigDecomp]:
    """w(t) = pinv(D + t E^kl) e and the eigendecomposition it came from."""
    dec = sym_eig(d.perturbed_array(entry.i, entry.j, t))
    return dec.pinv(tol) @ np.ones(d.n), dec


def membership_scan(
    d: DistanceMatrix,
    entry: EntryIndex,
    ts,
    tol: TolerancePolicy = DEFAULT_TOL,
) -> list[SweepRecord]:
    """Raw eigenvalue verdicts for each sampled perturbation."""
    entry.check_order(d.n)
    n = d.n
    e = np.ones(n)
    records = []
    for t in np.asarray(ts, dtype=float):
        t = float(t)
        pert = d.perturbed_array(entry.i, entry.j, t)
        edm_ok = sym_eig(centroid_gram(pert)).is_psd()

        spherical = False
        radius_sq = None
        etw = 0.0
        if edm_ok:
            w_t = perturbed_w(d, entry, t, tol)[0]
            etw = float(e @ w_t)
            mean_sq = float(e @ pert @ e) / n**2
            spherical = etw * mean_sq > SPHERICITY_TOL
            if spherical:
                radius_sq = 1.0 / (2.0 * etw)

        leq = edm_ok and in_t_leq_oracle(d, entry, t)
        eq = leq and spherical and is_unit_radius(etw, n)
        records.append(SweepRecord(t, edm_ok, spherical, radius_sq, leq, eq))
    return records


def radius_sq_direct(
    d: DistanceMatrix, entry: EntryIndex, t: float, tol: TolerancePolicy = DEFAULT_TOL
) -> float:
    """Squared radius of the perturbed matrix via 1 / (2 e.w(t))."""
    w_t = perturbed_w(d, entry, t, tol)[0]
    return 1.0 / (2.0 * float(w_t.sum()))


def unit_residual(
    d: DistanceMatrix, entry: EntryIndex, t: float, tol: TolerancePolicy
) -> tuple[float, EigDecomp]:
    """|2 e.w(t) - 1|, zero when the perturbed matrix has radius one, and
    the eigendecomposition w(t) came from."""
    w_t, dec = perturbed_w(d, entry, t, tol)
    return abs(2.0 * float(w_t.sum()) - 1.0), dec


def _bisect(holds, yes: float, no: float, xtol: float) -> tuple[float, float]:
    """Halve the bracket between yes and no until it is at most xtol wide,
    keeping holds(yes) true and holds(no) false."""
    while abs(no - yes) > xtol:
        mid = 0.5 * (yes + no)
        if holds(mid):
            yes = mid
        else:
            no = mid
    return yes, no


def sdp_min_radius_sq(d: DistanceMatrix, entry: EntryIndex, t: float) -> float:
    """Least lam with 2 lam E - t E^kl - D >= 0, located by bisection.

    The feasible set in lam is a ray, so bisection against the minimum
    eigenvalue is exact; the optimum equals the squared radius of the
    perturbed matrix whenever that matrix is a spherical EDM.  For a
    nonspherical target the PSD defect decays like 1/lam while eigenvalue
    noise grows like lam, so SDP_CAP must stay moderate for Infeasible to
    be detectable.
    """
    entry.check_order(d.n)
    pert = d.perturbed_array(entry.i, entry.j, t)
    ones = np.ones((d.n, d.n))
    feas_abs = 1e-13 * max(1.0, float(np.abs(pert).max()))

    def feasible(lam: float) -> bool:
        slack = feas_abs + 1e-14 * d.n * abs(lam)
        return sym_eig(2.0 * lam * ones - pert).values[-1] >= -slack

    lo, hi = 0.0, 1.0
    while not feasible(hi):
        lo = hi
        hi *= 2.0
        if hi > SDP_CAP:
            raise Infeasible("no feasible radius bound below the cap")
    if feasible(lo):
        return lo
    return _bisect(feasible, hi, lo, SDP_GAP)[0]


def locate_t_leq_boundary(
    d: DistanceMatrix, entry: EntryIndex, inside: float, outside: float
) -> float:
    """Bisect the boundary of the radius-one set between a member and a non-member."""
    slack = 1e-12
    if not in_t_leq_oracle(d, entry, inside, slack):
        raise ValueError(f"t={inside} is not inside the radius-one set")
    if in_t_leq_oracle(d, entry, outside, slack):
        raise ValueError(f"t={outside} is not outside the radius-one set")
    inside, outside = _bisect(lambda t: in_t_leq_oracle(d, entry, t, slack),
                              inside, outside, BOUNDARY_XTOL)
    return 0.5 * (inside + outside)
