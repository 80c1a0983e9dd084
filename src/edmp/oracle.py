"""Seeded instance generators and independent verification oracles.

Generators build unit spherical EDMs with prescribed Gale structure from
unit-norm points whose affine hull is all of R^r, which pins the
circumcenter at the origin and the circumradius at one.  Oracles check
membership claims through raw eigenvalue tests and recover the minimal
feasible radius by bisection, independently of every closed form.
PerturbedLine factors D + tE^kl for many t at once, for every raw test of the
line, compressed to the span of range(D), e, e_k and e_l; its bisection oracle
bisects a stack of t in lockstep on eigenvalues alone, radius_bracket proves
the optimum within SDP_BRACKET of an estimate in one stack, and verify asks
each question of an entry in one stack (the ends of T<= at a tighter slack).
gen_unit_profile also returns the profile an instance was accepted on,
so a caller that checks the instance need not profile it again.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import Infeasible, InfeasibleSpec, NumericalFailure
from .linalg import DEFAULT_TOL, PSD_SLACK, TolerancePolicy, sym_eig
from .model import (DistanceMatrix, EdmProfile, SphereColumns, centroid_gram,
                    nonnegative_entries, profile, sphericities)
from .yielding import EntryIndex, parallel_relation, singleton_gap

__all__ = [
    "Structure",
    "InstanceSpec",
    "gen_unit_spherical",
    "gen_unit_profile",
    "PerturbedLine",
    "membership_scan",
    "Scan",
]

MAX_ATTEMPTS = 128

# Margins that keep generated instances robustly away from every
# classification threshold (see the ZERO, PARALLEL and SINGLETON cuts).
GENERIC_MARGIN = 1e-4
ZERO_MARGIN = 1e-10
# Gale entries this small make the PSD defect just beyond the yield
# interval quadratic in the overshoot and hence undetectable; reject them.
GALE_ENTRY_MARGIN = 0.05

# PerturbedLine.min_radius_sq bisects lam down to a bracket of SDP_GAP and
# gives up above SDP_CAP; radius_bracket proves a bracket of half-width
# SDP_BRACKET around an estimate, which is verify's radius tolerance.
SDP_GAP = 1e-9
SDP_CAP = 1e4
SDP_BRACKET = 1e-7

# Entries per PerturbedLine stack of M(t) of order m: 256 at m=8, 3 at m=67, one from m=91 on.
# These m x m stacks are all a question forms per t; spheres forms no n x n array.
# At m=128, 2**16 and 2**18 raised peak RSS by 4.0 and 17.6 MB, 2**14 by 0.5.
STACK_ENTRIES = 2**14


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
        if not 0 <= self.seed < 2**64:
            raise InfeasibleSpec(f"seed must satisfy 0 <= seed < 2**64, got {self.seed}")
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


class Scan(NamedTuple):
    """Raw oracle verdicts as columns, one row per sampled t."""

    t: np.ndarray
    is_edm: np.ndarray
    # Squared radius where D + tE^kl is a spherical EDM, else NaN.
    radius_sq: np.ndarray
    in_t_leq: np.ndarray
    in_t_eq: np.ndarray


def edm_from_points(points: np.ndarray) -> DistanceMatrix:
    """Squared-distance matrix of a point configuration (rows are points)."""
    g = points @ points.T
    sq = np.diag(g)
    d = sq[:, None] + sq[None, :] - 2.0 * g
    return DistanceMatrix(d)


def _unit_rows(rng: np.random.Generator, count: int, dim: int) -> np.ndarray:
    v = rng.normal(size=(count, dim))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


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
        points[rest] = _unit_rows(rng, 1, 2)[0]
        points[entry.i] = _unit_rows(rng, 1, 2)[0]
        points[entry.j] = _unit_rows(rng, 1, 2)[0]
        return points
    offset = rng.uniform(0.2, 0.5, size=2)
    rho = float(np.sqrt(1.0 - offset @ offset))
    points[rest, : r - 2] = rho * _unit_rows(rng, len(rest), r - 2)
    points[rest, r - 2 :] = offset
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
    points[rest, : r - 1] = _unit_rows(rng, len(rest), r - 1)
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


def pair_table(prof: EdmProfile, i, j) -> tuple[np.ndarray, np.ndarray]:
    """Singleton gap and radius-dip depth |c w_l^2 theta_c| = 4 c^2 w_l^2 / |s^k - c s^l|^2
    of each pair (k, l) at the 0-based indices i, j (ints or arrays), with c = w_k / w_l.

    Between the members of a discrete unit set the squared radius deviates
    from one by about the dip; instances where it is tiny cannot be told
    apart from a continuum at any fixed tolerance.  Neither divisor vanishes
    at the pairs the gate asks: each has |w_l| > GENERIC_MARGIN w_scale, and
    e_k - c e_l lies off null(B) = span{e, Z}, as r = n-1 or Gale rows k and l
    vanish, so |s^k - c s^l|^2 >= 1/(3n) on the unit sphere.
    """
    w, bd = prof.w, prof.B_dag
    kk, ll, c = bd[i, i], bd[j, j], w[i] / w[j]
    den = kk + c * c * ll - 2.0 * c * bd[i, j]
    # C pow squares as for a Python float; np.square differs in the last bit on a few w.
    return singleton_gap(kk, ll, c), 4.0 * c * c * np.float_power(w[j], 2) / den


def _structure_ok(spec: InstanceSpec, prof: EdmProfile) -> bool:
    if prof.r != spec.r or not prof.unit_spherical or abs(prof.radius - 1.0) > 1e-10:
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
            gap, dip = pair_table(prof, *np.triu_indices(spec.n, 1))
            return bool((gap > 1e-5).all() and (dip > 2e-5).all())
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
        if not (rows_zero and w_ok):
            return False
        gap, dip = pair_table(prof, entry.i, entry.j)
        return bool(gap > 1e-5 and dip > 2e-5)
    if spec.structure is Structure.MIRROR_PAIR:
        mirrored = abs(prof.w[entry.i] - prof.w[entry.j]) <= 1e-12 * w_scale
        if not (mirrored and abs(prof.w[entry.i]) > GENERIC_MARGIN * w_scale):
            return False
        if prof.Z is not None:
            # The shared Gale row must be robustly nonzero so the radius
            # provably stays at one on the whole admissible interval and the
            # cone exit beyond it stays first-order detectable.
            return bool(np.linalg.norm(prof.Z[entry.i]) > GALE_ENTRY_MARGIN * prof.z_scale)
        return bool(pair_table(prof, entry.i, entry.j)[1] > 2e-5)
    # ZERO_W_PAIR, the one structure left.
    return bool(
        abs(prof.w[entry.i]) <= ZERO_MARGIN * w_scale
        and abs(prof.w[entry.j]) <= ZERO_MARGIN * w_scale
    )


def gen_unit_spherical(
    spec: InstanceSpec, tol: TolerancePolicy = DEFAULT_TOL
) -> DistanceMatrix:
    """Deterministic unit spherical EDM with the requested structure."""
    return gen_unit_profile(spec, tol).d


def gen_unit_profile(spec: InstanceSpec, tol: TolerancePolicy = DEFAULT_TOL) -> EdmProfile:
    """Profile, under `tol`, of the instance gen_unit_spherical returns; it
    is the profile the generator accepted the instance on."""
    spec.validate()
    rng = np.random.default_rng(np.uint64(spec.seed))
    for _ in range(MAX_ATTEMPTS):
        if spec.structure in (Structure.GENERIC, Structure.PARALLEL_GALE_PAIR):
            # With n = r+2 (parallel-gale) the Gale matrix is a single column, generically
            # with all entries nonzero, so z^k and z^l are automatically parallel scalars.
            points = _unit_rows(rng, spec.n, spec.r)
        elif spec.structure is Structure.ZERO_GALE_PAIR:
            points = _points_zero_gale(rng, spec.n, spec.r, spec.entry)
        elif spec.structure is Structure.MIRROR_PAIR:
            points = _points_mirror(rng, spec.n, spec.r, spec.entry)
        else:
            points = _points_zero_w(rng, spec.n, spec.r, spec.entry)
        d = edm_from_points(points)
        try:
            prof = profile(d, tol)
        except NumericalFailure:
            continue
        if _structure_ok(spec, prof):
            return prof
    raise NumericalFailure(f"instance generation did not converge for {spec}")


class PerturbedLine:
    """D + tE^kl of a profiled D in an orthonormal basis Q of S = range(D) + span{e, e_k, e_l}:
    each matrix a raw test factors vanishes on S-perp, so M(t) = Q^T D(t) Q and u = Q^T e keep
    its nonzero eigenvalues (Q = I, q None, where rank(D) + 3 >= n).  Each question answers in
    columns, one row per t, factoring stacks of at most STACK_ENTRIES entries in one call."""

    def __init__(self, prof: EdmProfile, entry: EntryIndex):
        entry.check_order(prof.n)
        self.prof, self.entry = prof, entry
        d, n, i, j = prof.d.d, prof.n, entry.i, entry.j
        top, pair = d.max(), [i * n + j, j * n + i]  # D is hollow and >= 0: max|entry| off (k,l)
        self._top = max(1.0, float(top if d[i, j] < top else np.delete(d, pair).max()))
        v = prof.d_range
        if v.shape[1] + 3 >= n:
            self.q, self.m0, self._u, self._ekl = None, d, np.ones(n), np.zeros((n, n))
            self._ekl[i, j] = self._ekl[j, i] = 1.0
        else:
            x = np.zeros((n, 3))
            x[:, 0], x[i, 1], x[j, 2] = n ** -0.5, 1.0, 1.0
            for _ in range(2):  # twice, so a column nearly in range(D) keeps no trace of it
                x -= v @ (v.T @ x)
            left, s, _ = np.linalg.svd(x, full_matrices=False)
            self.q = np.column_stack([v, left[:, s > prof.tol.rank_rel]])
            self.m0, self._u = self.q.T @ d @ self.q, self.q.sum(axis=0)
            qk, ql = self.q[[i, j]]
            self._ekl = np.outer(qk, ql) + np.outer(ql, qk)
        self._two_uu = 2.0 * self._u[:, None] * self._u

    def _each(self, ts, test, *aligned):
        """test(stack of M(t), *chunks) per stack, its array (or tuple of arrays) joined
        over the stacks; each `aligned` is a scalar or one per t.  No t is one empty stack."""
        ts = np.asarray(ts, dtype=float).reshape(-1)
        aligned = [np.full(ts.shape, x, dtype=float) for x in aligned]
        step = max(1, STACK_ENTRIES // len(self.m0) ** 2)
        parts = [test(self.m0 + ts[at:at + step, None, None] * self._ekl,
                      *(x[at:at + step] for x in aligned))
                 for at in range(0, max(ts.size, 1), step)]
        if len(parts) == 1:
            return parts[0]
        if isinstance(parts[0], tuple):
            return type(parts[0])(*map(np.concatenate, zip(*parts)))
        return np.concatenate(parts)

    def _entry_range(self, ts):
        """Least entry and max(1, max|entry|) of each raw D + tE^kl (D is hollow, >= 0)."""
        moved = self.prof.d.d[self.entry.i, self.entry.j] + np.asarray(ts, dtype=float).reshape(-1)
        return np.minimum(moved, 0.0), np.maximum(np.abs(moved), self._top)

    def is_edm(self, ts) -> np.ndarray:
        """is_edm_array of each D + tE^kl, with the centroid Gram of M(t)."""
        gram = self._each(ts, lambda m: sym_eig(centroid_gram(m, self._u), vectors=False).is_psd())
        return nonnegative_entries(*self._entry_range(ts)) & gram

    def in_t_leq(self, ts, slack=PSD_SLACK) -> np.ndarray:
        """The radius-one test 2E - D - tE^kl >= 0 from eigenvalues only, at a
        slack for all t or one per t.  verify's probes 1e-6 off each end of
        T<= pass 1e-12, since interior noise is ~1e-15 and the defect ~1e-6."""
        return self._each(
            ts, lambda m, s: sym_eig(self._two_uu - m, vectors=False).is_psd(s), slack)

    def _raw_test(self, a, t, lam):
        """2 lam E - D - tE^kl >= 0 for each M(t) of the stack a, up to 1e-13 max(1, max|entry|)
        + 1e-14 n |lam|, in one eigenvalue-only call; lam is (s,), or (2, s) for two ends per t."""
        least = sym_eig(lam[..., None, None] * self._two_uu - a, vectors=False).values[..., -1]
        return least >= -(1e-13 * self._entry_range(t)[1] + 1e-14 * self.prof.n * np.abs(lam))

    def radius_bracket(self, ts, near) -> np.ndarray:
        """Whether the raw test proves the least feasible lam of each t within SDP_BRACKET
        of its estimate `near`: it fails at near - SDP_BRACKET and holds at near + SDP_BRACKET,
        both ends in one stack.  A non-finite estimate is not proved."""
        def prove(a, t, near):
            ends = np.where(np.isfinite(near), near, 0.0) + [[-SDP_BRACKET], [SDP_BRACKET]]
            ok = self._raw_test(a, t, ends)
            return np.isfinite(near) & ~ok[0] & ok[1]
        return self._each(ts, prove, ts, near)

    def min_radius_sq(self, ts) -> np.ndarray:
        """Least lam with 2 lam E - D - tE^kl >= 0 for each t, by bisection.

        The least eigenvalue of 2 lam E - A is concave and nondecreasing in
        lam, so the feasible set is a ray and bisection on it is exact; the
        optimum is the squared radius of D + tE^kl whenever that matrix is a
        spherical EDM.  Every t of a stack starts from [0, 1], whose infeasible
        upper end is doubled, and all are halved to SDP_GAP at once, each frozen
        once done.  For a nonspherical target the PSD defect decays like 1/lam
        while eigenvalue noise grows like lam, so SDP_CAP must stay moderate for
        Infeasible to be detectable.
        """
        def bisect(a, t):
            lo, hi = np.zeros(len(a)), np.ones(len(a))
            while not (ok := self._raw_test(a, t, hi)).all():
                lo, hi = np.where(ok, lo, hi), np.where(ok, hi, 2.0 * hi)
                if (hi > SDP_CAP).any():
                    raise Infeasible("no feasible radius bound below the cap")
            done = self._raw_test(a, t, lo)
            while (active := ~done & (hi - lo > SDP_GAP)).any():
                mid = 0.5 * (hi + lo)
                ok = self._raw_test(a, t, mid)
                lo, hi = np.where(active & ~ok, mid, lo), np.where(active & ok, mid, hi)
            return np.where(done, lo, hi)
        return self._each(ts, bisect, ts)

    def spheres(self, ts) -> SphereColumns:
        """Sphericity of each raw D + tE^kl under the rank cut, with the eigenvalues
        of M(t) it came from: kappa.  A stack is judged at once from
        e.w(t) = u.pinv(M(t)) u, as w(t) = pinv(D + tE^kl) e = Q pinv(M(t)) u, and
        e.(D + tE^kl).e = e.D.e + 2t, with no n x n array per t."""
        ede = float(self.prof.d.d.sum())

        def stack_spheres(m, t):
            dec = sym_eig(m)
            w = dec.pinv(self.prof.tol) @ self._u
            etw = (w[:, None, :] @ self._u[:, None])[:, 0, 0]
            return sphericities(etw, ede + 2.0 * t, self.prof.n, dec.values)
        return self._each(ts, stack_spheres, ts)


def membership_scan(prof: EdmProfile, entry: EntryIndex, ts) -> Scan:
    """Raw eigenvalue verdicts per sampled t; sphericity and T<= only where D + tE^kl is an EDM."""
    line = PerturbedLine(prof, entry)
    ts = np.asarray(ts, dtype=float).reshape(-1)
    edm = line.is_edm(ts)
    sphere = line.spheres(ts[edm])
    radius_sq, leq, unit = np.full(ts.shape, np.nan), np.zeros_like(edm), np.zeros_like(edm)
    radius_sq[edm], leq[edm], unit[edm] = sphere.radius_sq, line.in_t_leq(ts[edm]), sphere.unit
    return Scan(ts, edm, radius_sq, leq, leq & unit)
