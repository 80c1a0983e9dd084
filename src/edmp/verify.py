"""Instance-level invariant suite behind the verify command.

Each generated instance is pushed through every structural identity the
package claims: profile consistency, the pseudoinverse identities, the
bordered-matrix equivalences, interval endpoint soundness against raw
eigenvalue oracles (each end of T<= by one probe 1e-6 inside and one
1e-6 outside), unit-radius membership of the reported sets, and the
rational radius formula against both the direct and the bisection
oracle, all asked of one PerturbedLine per entry, one stack per question
(the bisection only where the raw test does not prove the optimum within
SDP_BRACKET of the closed radius).  Case coverage across
all five classification tags is part of the contract, so an nmax whose
templates miss a tag is rejected.  Each matrix is factored once: the
identities read D+, w and B+ from the profile the generator accepted the
instance on, the bordered matrix is profiled like any other EDM and
gives w~, the bordered pseudoinverse, Gram, embedding dimension and line,
both rank checks cut the profiles' spectra of D and D~ at their own
looser cut, and each T= member's w(t) and kappa come from one factorization.
The pseudoinverse identities are defined here, because only these checks
use them: B+, (E - D/2)+ and the bordered pseudoinverse, each written
through D+, w and B+ of a unit spherical profile.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .cayley import bordered, cm_w_inner
from .errors import EdmpError
from .linalg import (DEFAULT_TOL, PSD_SLACK, RECON_REL, EigDecomp, TolerancePolicy, sym_eig,
                     symmetrize)
from .model import DistanceMatrix, EdmProfile, SphereColumns, profile
from .oracle import SDP_BRACKET, InstanceSpec, PerturbedLine, Structure, gen_unit_profile
from .perturbation import CaseTag, PerturbationReport, classify, radius_squared
from .yielding import EntryIndex

__all__ = [
    "CheckResult",
    "VerifySummary",
    "check_instance",
    "run_verification",
]

# Rank cut of the rank(D) = r+1 and rank(bordered) = r+2 checks, looser than
# the profile's own so the two rank decisions stay independent.
RANK_CHECK_TOL = TolerancePolicy(rank_rel=1e-9)

# Floor of the unit residual |2 e.w(t) - 1| at reported T= members.  Near
# theta_c, D + t E^kl comes close to losing rank and w(t) cannot be resolved
# below about n * cond * eps, so the check adds that to the floor.
TEQ_RESIDUAL_TOL = 1e-8


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str = ""


@dataclass(frozen=True)
class Template:
    spec: InstanceSpec
    expected: CaseTag


@dataclass
class VerifySummary:
    instances: int = 0
    checks_passed: int = 0
    failures: list[tuple[int, str, CheckResult]] = field(default_factory=list)
    case_counts: dict[str, int] = field(default_factory=dict)
    enforce_coverage: bool = True

    @property
    def missing_cases(self) -> list[str]:
        if not self.enforce_coverage:
            return []
        return [tag.value for tag in CaseTag if self.case_counts.get(tag.value, 0) == 0]

    @property
    def passed(self) -> bool:
        return not self.failures and not self.missing_cases

    @property
    def first_failing_seed(self) -> int | None:
        return self.failures[0][0] if self.failures else None

    def render(self) -> str:
        lines = [
            f"verified {self.instances} instances: "
            f"{self.checks_passed} checks passed, {len(self.failures)} failed"
        ]
        coverage = " ".join(
            f"{tag.value}={self.case_counts.get(tag.value, 0)}" for tag in CaseTag
        )
        lines.append(f"case coverage: {coverage}")
        for tag in self.missing_cases:
            lines.append(f"missing case: {tag}")
        if self.failures:
            lines.append(f"first failing seed: {self.first_failing_seed}")
            for seed, desc, res in self.failures[:20]:
                lines.append(f"FAIL seed={seed} {desc} {res.name}: {res.detail}")
        else:
            lines.append("first failing seed: none")
        lines.append("result: " + ("PASS" if self.passed else "FAIL"))
        return "\n".join(lines)


def default_templates(nmax: int = 8) -> list[Template]:
    """Structure/case templates cycled by the verification run; an nmax
    whose templates miss a case tag is rejected, since no run could pass."""
    raw = [
        (3, 2, Structure.GENERIC, (1, 2), CaseTag.PAIR_UNIT),
        (4, 3, Structure.GENERIC, (1, 2), CaseTag.PAIR_UNIT),
        (4, 3, Structure.MIRROR_PAIR, (1, 3), CaseTag.SINGLETON_UNIT),
        (4, 3, Structure.ZERO_W_PAIR, (1, 2), CaseTag.CONTINUUM_UNIT),
        (4, 2, Structure.PARALLEL_GALE_PAIR, (1, 3), CaseTag.TLEQ_TRIVIAL),
        (5, 2, Structure.GENERIC, (1, 2), CaseTag.NOT_YIELDING),
        (5, 4, Structure.GENERIC, (2, 4), CaseTag.PAIR_UNIT),
        (5, 4, Structure.MIRROR_PAIR, (2, 3), CaseTag.SINGLETON_UNIT),
        (5, 3, Structure.MIRROR_PAIR, (1, 4), CaseTag.CONTINUUM_UNIT),
        (5, 3, Structure.PARALLEL_GALE_PAIR, (2, 4), CaseTag.TLEQ_TRIVIAL),
        (5, 2, Structure.ZERO_GALE_PAIR, (1, 2), CaseTag.PAIR_UNIT),
        (6, 3, Structure.GENERIC, (1, 4), CaseTag.NOT_YIELDING),
        (6, 5, Structure.ZERO_W_PAIR, (2, 3), CaseTag.CONTINUUM_UNIT),
        (6, 3, Structure.ZERO_GALE_PAIR, (2, 5), CaseTag.PAIR_UNIT),
        (6, 4, Structure.MIRROR_PAIR, (1, 6), CaseTag.CONTINUUM_UNIT),
        (6, 4, Structure.PARALLEL_GALE_PAIR, (1, 2), CaseTag.TLEQ_TRIVIAL),
        (7, 4, Structure.GENERIC, (3, 6), CaseTag.NOT_YIELDING),
        (7, 6, Structure.MIRROR_PAIR, (1, 2), CaseTag.SINGLETON_UNIT),
        (7, 4, Structure.ZERO_GALE_PAIR, (1, 7), CaseTag.PAIR_UNIT),
        (8, 7, Structure.GENERIC, (1, 8), CaseTag.PAIR_UNIT),
        (8, 5, Structure.GENERIC, (2, 7), CaseTag.NOT_YIELDING),
    ]
    out = [
        Template(InstanceSpec(n, r, structure, EntryIndex(k, l)), expected)
        for (n, r, structure, (k, l), expected) in raw
        if n <= nmax
    ]
    missing = [tag.value for tag in CaseTag if all(t.expected is not tag for t in out)]
    if missing:
        raise ValueError(f"nmax {nmax} too small: no template covers {', '.join(missing)}")
    return out


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1.0)


def _mat_rel(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.linalg.norm(a - b) / max(np.linalg.norm(a), np.linalg.norm(b), 1.0))


def _worst_rel(got, want) -> float:
    """Largest |got - want| / max(1, |want|), passing over NaN; 0 for none."""
    return float(np.fmax.reduce(np.abs(got - want) / np.maximum(1.0, np.abs(want)),
                                initial=0.0))


def worst_closed_vs_direct(closed, direct) -> float:
    """_worst_rel of the rational radii against the direct oracle 1 / (2 e.w(t))
    at the same t, the radius_sq column of PerturbedLine.spheres.

    A perturbed matrix with no sphere (NaN) counts as 1, the limit of the error
    as the direct radius grows without bound.
    """
    return max(_worst_rel(closed, direct), float(np.isnan(direct).any()))


def worst_border_vs_closed(report: PerturbationReport, ts, closed) -> float | None:
    """_worst_rel over the t and closed radii of the bordered radius
    1 - e~.w~(t)/2 against the rational one, passing over poles; None when
    the report has no coefficients or every t hits a pole."""
    if report.coefficients is None:
        return None
    border = 1.0 - 0.5 * cm_w_inner(report, np.asarray(ts, dtype=float))
    return None if np.isnan(border).all() else _worst_rel(border, closed)


def _check(results: list[CheckResult], name: str, ok: bool, detail: str = "") -> None:
    results.append(CheckResult(name, bool(ok), detail if not ok else ""))


def check_profile(prof: EdmProfile, r_target: int) -> list[CheckResult]:
    out: list[CheckResult] = []
    d = prof.d
    n = d.n
    e = np.ones(n)
    _check(out, "embedding-dim", prof.r == r_target, f"r={prof.r} expected {r_target}")
    _check(out, "unit-spherical", prof.unit_spherical, "profile not unit spherical")
    if prof.radius is not None:
        _check(out, "radius-one", abs(prof.radius - 1.0) <= 1e-10,
               f"radius={prof.radius!r}")
    else:
        _check(out, "radius-one", False, "no radius")
    _check(out, "gram-centered", float(np.linalg.norm(prof.B @ e)) <= 1e-9 * n,
           "Be != 0")
    _check(out, "gram-factorized", _mat_rel(prof.P @ prof.P.T, prof.B) <= 1e-8,
           "B != PP^T")
    _check(out, "w-solves", float(np.linalg.norm(d.d @ prof.w - e)) <= 1e-9 * n,
           "Dw != e")
    rank_d = prof.d_spectrum.rank(RANK_CHECK_TOL)
    _check(out, "rank-spherical", rank_d == prof.r + 1,
           f"rank(D)={rank_d} expected {prof.r + 1}")
    if prof.Z is not None:
        stack = np.vstack([prof.B, e[None, :]])
        _check(out, "gale-null", float(np.linalg.norm(stack @ prof.Z)) <= 1e-8 * n,
               "Gale basis not in null space")
        _check(out, "gale-orthonormal",
               _mat_rel(prof.Z.T @ prof.Z, np.eye(prof.Z.shape[1])) <= 1e-10,
               "Gale columns not orthonormal")
        _check(out, "gale-spans-null-d",
               float(np.linalg.norm(d.d @ prof.Z)) <= 1e-8 * max(float(np.abs(d.d).max()), 1.0),
               "DZ != 0 for spherical input")
    if prof.regular:
        rho_sq = prof.radius**2
        _check(out, "regular-w", float(np.linalg.norm(prof.w - e / (2 * n * rho_sq))) <= 1e-9,
               "w != e/(2 n rho^2) on a regular instance")
    return out


def bdag_identity(prof: EdmProfile) -> np.ndarray:
    """Pseudoinverse of the centroid Gram matrix as -2 pinv(D) + 4 w w^T,
    for unit spherical D."""
    return symmetrize(-2.0 * prof.D_dag + 4.0 * np.outer(prof.w, prof.w))


def bprime_dag_identity(prof: EdmProfile) -> np.ndarray:
    """Pseudoinverse of E - D/2 expressed through pinv(D) and w alone, for
    unit spherical D."""
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
    n = prof.n
    out = np.empty((n + 1, n + 1))
    out[0, 0] = -2.0
    out[0, 1:] = 2.0 * prof.w
    out[1:, 0] = 2.0 * prof.w
    out[1:, 1:] = -0.5 * prof.B_dag
    return symmetrize(out)


def check_pinv_identities(prof: EdmProfile) -> list[CheckResult]:
    out: list[CheckResult] = []
    b_prime = 1.0 - 0.5 * prof.d.d
    _check(out, "bdag-identity",
           _mat_rel(bdag_identity(prof), prof.B_dag) <= 1e-8, "B+ identity failed")
    _check(out, "bprime-identity",
           _mat_rel(bprime_dag_identity(prof), sym_eig(b_prime).pinv(prof.tol)) <= 1e-8,
           "B'+ identity failed")
    return out


def check_bordered(prof: EdmProfile, border: EdmProfile) -> list[CheckResult]:
    """Checks of the unit spherical source `prof` against `border`, the
    profile of its bordered matrix."""
    out: list[CheckResult] = []
    _check(out, "bordered-pinv-block",
           _mat_rel(cm_dag_block(prof), border.D_dag) <= 1e-8,
           "bordered pseudoinverse block failed")
    w_expect = np.concatenate([[-1.0], 2.0 * prof.w])
    _check(out, "bordered-w", float(np.linalg.norm(border.w - w_expect)) <= 1e-8,
           "w~ != (-1, 2w)")
    _check(out, "bordered-balance", abs(float(border.w.sum())) <= 1e-8,
           "e~.w~ != 0 for unit spherical source")
    _check(out, "bordered-radius", _rel(1.0 - 0.5 * float(border.w.sum()), 1.0) <= 1e-8,
           "bordered radius != 1")
    _check(out, "bordered-dim", border.r == prof.r,
           "bordered embedding dimension mismatch")
    # The explicit Gale matrix [[-1/2, 0], [w, Z]] lies in null([B~; e~^T]).
    gale = np.zeros((prof.n + 1, prof.Z_tilde.shape[1]))
    gale[0, 0] = -0.5
    gale[1:] = prof.Z_tilde
    stack = np.vstack([border.B, np.ones((1, prof.n + 1))])
    scale = max(np.linalg.norm(stack) * np.linalg.norm(gale), 1.0)
    _check(out, "bordered-gale", np.linalg.norm(stack @ gale) <= RECON_REL * scale,
           "bordered Gale matrix is not in the expected null space")
    rank_dt = border.d_spectrum.rank(RANK_CHECK_TOL)
    _check(out, "bordered-rank", rank_dt == prof.r + 2,
           f"rank(bordered)={rank_dt} expected {prof.r + 2}")
    return out


def check_teq_members(spheres: SphereColumns, tol: TolerancePolicy) -> CheckResult:
    """|2 e.w(t) - 1| <= 1e-8 + n*kappa*eps at every reported T= member,
    given its PerturbedLine.spheres rows: w(t) and kappa = cond(D + t E^kl)
    come from one oracle factorization, whose order gives n."""
    kappa = EigDecomp(spheres.eigenvalues, None).cond(tol)
    bound = TEQ_RESIDUAL_TOL + spheres.eigenvalues.shape[-1] * kappa * np.finfo(float).eps
    worst = np.argmax(spheres.unit_residual / bound)
    residual, kappa, bound = spheres.unit_residual[worst], kappa[worst], bound[worst]
    ok = bool(residual <= bound)
    return CheckResult("teq-members", ok, "" if ok else (
        f"unit residual {residual:.3e} on reported members exceeds "
        f"{bound:.3e} = 1e-8 + n*kappa*eps with kappa {kappa:.3e}"))


def check_entry(prof: EdmProfile, entry: EntryIndex, expected: CaseTag | None,
                border: EdmProfile | None) -> tuple[list[CheckResult], CaseTag]:
    out: list[CheckResult] = []
    tol = prof.tol
    report = classify(prof, entry)
    if expected is not None:
        _check(out, "case-tag", report.case_tag is expected,
               f"got {report.case_tag.value} expected {expected.value}")
    yrep = report.yielding_report
    line = PerturbedLine(prof, entry)

    if yrep.yielding:
        lo, hi = yrep.interval
        delta = 1e-4 * (hi - lo + 1.0)
        edm = line.is_edm([lo, hi, hi + delta, lo - delta])
        _check(out, "yield-endpoints-edm", edm[0] and edm[1],
               "yield endpoints left the EDM cone")
        _check(out, "yield-beyond-fails", not edm[2] and not edm[3],
               "EDM-ness survived beyond the yield interval")

    tleq = report.t_leq
    if tleq.width > 0.0:
        # One stack: 20 samples inside and 2 at 1e-3 outside, then the end
        # probes at 1e-12.  T<= is an interval, so its ends lie within 1e-6 of
        # the reported ones exactly when probes just inside hold and 1e-6
        # outside fail.
        delta = min(1e-6, 0.25 * tleq.width)
        probes = [tleq.lo + delta, tleq.hi - delta, tleq.lo - 1e-6, tleq.hi + 1e-6]
        inside = tleq.interior_samples(20)
        held = line.in_t_leq([*inside, tleq.hi + 1e-3, tleq.lo - 1e-3, *probes],
                             slack=np.repeat([PSD_SLACK, 1e-12], [22, 4]))
        outside = [float(t) for t, ok in zip(inside, held) if not ok]
        _check(out, "tleq-interior", not outside,
               f"radius-one test fails at interior t = {outside}")
        _check(out, "tleq-exterior", not held[20:22].any(),
               "radius-one set extends beyond reported endpoints")
        wrong = [t for t, ok, inner in zip(probes, held[22:], (True, True, False, False))
                 if ok != inner]
        _check(out, "tleq-endpoint-probe", not wrong,
               f"radius-one test contradicts the ends {tuple(tleq)} at t = {wrong}")

    # One stack of w(t): T= members, non-members, radius-direct samples.
    members = report.teq_members()
    nonmembers, direct = [], []
    if tleq.width > 0.0:
        direct = tleq.interior_samples(10)
        if report.case_tag is not CaseTag.CONTINUUM_UNIT:
            nonmembers = [t for t in tleq.interior_samples(4)
                          if min(abs(t - m) for m in members) > 0.05 * tleq.width]
    spheres = line.spheres([*members, *nonmembers, *direct])
    cut = len(members) + len(nonmembers)
    out.append(check_teq_members(SphereColumns(*(col[:len(members)] for col in spheres)), tol))
    if nonmembers:
        best = float(spheres.unit_residual[len(members):cut].min())
        _check(out, "teq-nonmembers", best > 1e-6,
               f"non-member unit residual only {best:.3e}")

    if tleq.width > 0.0:
        # One closed-form call: the direct samples, then the 3 the bisection checks.
        ts = tleq.interior_samples(3)
        closed = radius_squared(report, np.concatenate([direct, ts]))
        worst_rel = worst_closed_vs_direct(closed[:-3], spheres.radius_sq[cut:])
        _check(out, "radius-direct-agreement", worst_rel <= 1e-8,
               f"closed form vs direct radius rel err {worst_rel:.3e}")
        # Only a t whose bracket is not proved is bisected, to measure its miss.
        closed = closed[-3:]
        missed = ~line.radius_bracket(ts, closed)
        lam = line.min_radius_sq(ts[missed]) if missed.any() else []
        sdp_worst = float(np.abs(lam - closed[missed]).max(initial=0.0))
        _check(out, "radius-sdp-agreement", sdp_worst <= SDP_BRACKET,
               f"bisection vs closed form abs err {sdp_worst:.3e}")

    if report.coefficients is not None:
        out.extend(_check_rational_case(prof, report, border))
    return out, report.case_tag


def _check_rational_case(prof: EdmProfile, report: PerturbationReport,
                         border: EdmProfile | None) -> list[CheckResult]:
    out: list[CheckResult] = []
    entry = report.entry
    coeffs = report.coefficients
    yrep = report.yielding_report
    lo, hi = yrep.theta_lower, yrep.theta_upper
    tc = report.theta_c
    c, w_l = coeffs.c, coeffs.w_l
    i, j = entry.i, entry.j
    bd = prof.B_dag
    kk, ll, kl = bd[i, i], bd[j, j], bd[i, j]
    nk, nl = np.sqrt(kk), np.sqrt(ll)

    _check(out, "beta2-negative", coeffs.beta2 < -1e-12,
           f"beta2={coeffs.beta2!r}")
    # g in factored form reproduces its coefficients.
    _check(out, "g-factored",
           _rel(coeffs.beta2 * lo * hi, 1.0) <= 1e-10
           and _rel(-coeffs.beta2 * (lo + hi), coeffs.beta1) <= 1e-10,
           "factored g disagrees with its coefficients")
    # Boundary values of f against their closed forms.
    f_lo_expect = 4.0 * w_l**2 * (nk - c * nl) ** 2 / (kl - nk * nl) ** 2
    f_hi_expect = 4.0 * w_l**2 * (nk + c * nl) ** 2 / (kl + nk * nl) ** 2
    f_tc_expect = (kk - c * c * ll) ** 2 / (kk + c * c * ll - 2 * c * kl) ** 2
    _check(out, "f-boundary-identities",
           abs(coeffs.f(lo) - f_lo_expect) <= 1e-8 * max(1.0, abs(f_lo_expect))
           and abs(coeffs.f(hi) - f_hi_expect) <= 1e-8 * max(1.0, abs(f_hi_expect))
           and abs(coeffs.f(tc) - f_tc_expect) <= 1e-8 * max(1.0, abs(f_tc_expect))
           and abs(coeffs.f(tc) - coeffs.g(tc)) <= 1e-8 * max(1.0, abs(f_tc_expect)),
           "boundary identities of f failed")
    scale = 1.0 + abs(lo) + abs(hi)
    _check(out, "theta-ordering",
           tc - lo >= -1e-12 * scale and hi - tc >= -1e-12 * scale,
           f"theta_c={tc} outside [{lo}, {hi}]")

    tleq = report.t_leq
    # Every sample at a pole leaves nothing to compare, which passes.
    ts = tleq.interior_samples(20)
    worst = worst_border_vs_closed(report, ts, radius_squared(report, ts)) or 0.0
    _check(out, "border-closed-form", worst <= 1e-10,
           f"bordered vs rational radius rel err {worst:.3e}")
    # The closed form of e~.w~(t) against a raw bordered pseudoinverse: the border of
    # D + t E^kl is D~ + t E^{k+1,l+1}.  Skipped where bordered-profile failed.
    if border is not None:
        line = PerturbedLine(border, EntryIndex(entry.k + 1, entry.l + 1))
        ts = tleq.interior_samples(3)
        worst_direct = _worst_rel(cm_w_inner(report, ts), line.spheres(ts).e_dot_w)
        _check(out, "border-direct", worst_direct <= 1e-8,
               f"closed e~.w~ vs direct rel err {worst_direct:.3e}")
    if report.case_tag is CaseTag.SINGLETON_UNIT:
        limit = radius_squared(report, tc)
        expect = 1.0 - 4.0 * w_l**2 / ll
        _check(out, "singleton-limit",
               _rel(limit, expect) <= 1e-8 and limit < 1.0,
               f"limit {limit!r} vs {expect!r}")
    return out


def check_instance(prof: EdmProfile, spec: InstanceSpec, expected: CaseTag | None
                   ) -> tuple[list[CheckResult], CaseTag | None]:
    """All structural checks for one generated instance, given its profile."""
    results = check_profile(prof, spec.r)
    if not prof.unit_spherical:
        return results, None
    d, tol = prof.d, prof.tol
    # Relabeling the points must not move the embedding dimension or radius.
    perm = np.random.default_rng(spec.seed ^ 0xA5A5).permutation(d.n)
    shuffled = profile(DistanceMatrix(d.d[np.ix_(perm, perm)]), tol)
    _check(results, "permutation-invariance",
           shuffled.r == prof.r and abs(shuffled.radius - prof.radius) <= 1e-10,
           f"relabeled profile gives r={shuffled.r}, radius={shuffled.radius!r}")
    results.extend(check_pinv_identities(prof))
    border = None
    try:
        border = profile(DistanceMatrix(bordered(d)), tol)
    except EdmpError as exc:
        results.append(CheckResult("bordered-profile", False, str(exc)))
    else:
        results.extend(check_bordered(prof, border))
    tag = None
    if spec.entry is not None:
        try:
            entry_results, tag = check_entry(prof, spec.entry, expected, border)
        except EdmpError as exc:
            results.append(CheckResult("entry-checks", False, str(exc)))
        else:
            results.extend(entry_results)
    return results, tag


def run_verification(count: int, seed: int, nmax: int = 8,
                     tol: TolerancePolicy = DEFAULT_TOL) -> VerifySummary:
    """Generate `count` instances over the template cycle and check them all."""
    if count < 1:
        raise ValueError("count must be at least 1")
    templates = default_templates(nmax)
    summary = VerifySummary(enforce_coverage=count >= len(templates))
    for index in range(count):
        template = templates[index % len(templates)]
        child_seed = (seed + 1_000_003 * index) % 2**63
        spec = replace(template.spec, seed=child_seed)
        desc = (f"n={spec.n} r={spec.r} structure={spec.structure.value} "
                f"entry=({spec.entry.k},{spec.entry.l})")
        try:
            prof = gen_unit_profile(spec, tol)
        except EdmpError as exc:
            summary.failures.append(
                (child_seed, desc, CheckResult("generate", False, str(exc)))
            )
            summary.instances += 1
            continue
        results, tag = check_instance(prof, spec, template.expected)
        summary.instances += 1
        for res in results:
            if res.ok:
                summary.checks_passed += 1
            else:
                summary.failures.append((child_seed, desc, res))
        if tag is not None:
            summary.case_counts[tag.value] = summary.case_counts.get(tag.value, 0) + 1
    return summary
