"""Instance-level invariant suite behind the verify command.

Each generated instance is pushed through every structural identity the
package claims: profile consistency, the pseudoinverse identities, the
bordered-matrix equivalences, interval endpoint soundness against raw
eigenvalue oracles, unit-radius membership of the reported sets, and the
rational radius formula against both the direct and the bisection
oracle.  Case coverage across all five classification tags is part of
the contract.  Each matrix is factored once: the identities read D+, w
and B+ from the profile, the bordered view's decomposition gives the
bordered pseudoinverse and rank, the view's cached bordered Gram gives
both the bordered EDM test and its embedding dimension, and each T=
member's w(t) and condition number come from one oracle factorization.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .cayley import (
    CayleyMengerView,
    cm_build,
    cm_embedding_dim,
    cm_gale,
    cm_radius_sq,
    cm_w_inner,
)
from .errors import EdmpError, PoleAt
from .linalg import DEFAULT_TOL, TolerancePolicy, pinv, sym_eig
from .model import (
    DistanceMatrix,
    EdmProfile,
    bdag_identity,
    bprime_dag_identity,
    cm_dag_block,
    is_edm_array,
    profile,
)
from .oracle import (
    InstanceSpec,
    Structure,
    gen_unit_spherical,
    in_t_leq_oracle,
    locate_t_leq_boundary,
    radius_sq_direct,
    sdp_min_radius_sq,
    unit_residual,
)
from .perturbation import CaseTag, PerturbationReport, TeqKind, classify, radius_squared
from .yielding import EntryIndex

__all__ = [
    "CheckResult",
    "VerifySummary",
    "default_templates",
    "check_instance",
    "check_teq_members",
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
    def checks_failed(self) -> int:
        return len(self.failures)

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
            f"{self.checks_passed} checks passed, {self.checks_failed} failed"
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
    """Structure/case templates cycled by the verification run."""
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
    if not out:
        raise ValueError("nmax too small: no templates fit")
    return out


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1.0)


def _mat_rel(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.linalg.norm(a - b) / max(np.linalg.norm(a), np.linalg.norm(b), 1.0))


def worst_closed_vs_direct(prof: EdmProfile, report: PerturbationReport, ts) -> float:
    """Largest |closed - direct| / max(1, |direct|) over ts of the rational
    radius against the direct oracle 1 / (2 e.w(t))."""
    worst = 0.0
    for t in ts:
        t = float(t)
        closed = radius_squared(report, t)
        direct = radius_sq_direct(prof.d, report.entry, t, prof.tol)
        worst = max(worst, abs(closed - direct) / max(1.0, abs(direct)))
    return worst


def worst_border_vs_closed(report: PerturbationReport, ts) -> float | None:
    """Largest |border - closed| / max(1, |closed|) over ts of the bordered
    radius 1 - e~.w~(t)/2 against the rational one; None when the report has
    no coefficients or every t hits a pole."""
    if report.coefficients is None:
        return None
    diffs = []
    for t in ts:
        t = float(t)
        try:
            border = 1.0 - 0.5 * cm_w_inner(report, t)
        except PoleAt:
            continue
        closed = radius_squared(report, t)
        diffs.append(abs(border - closed) / max(1.0, abs(closed)))
    return max(diffs, default=None)


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
    rank_d = sym_eig(d.d).rank(RANK_CHECK_TOL)
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


def check_pinv_identities(prof: EdmProfile, view: CayleyMengerView) -> list[CheckResult]:
    out: list[CheckResult] = []
    b_prime = 1.0 - 0.5 * prof.d.d
    _check(out, "bdag-identity",
           _mat_rel(bdag_identity(prof), prof.B_dag) <= 1e-8, "B+ identity failed")
    _check(out, "bprime-identity",
           _mat_rel(bprime_dag_identity(prof), pinv(b_prime, prof.tol)) <= 1e-8,
           "B'+ identity failed")
    _check(out, "bordered-pinv-block",
           _mat_rel(cm_dag_block(prof), view.eig.pinv(prof.tol)) <= 1e-8,
           "bordered pseudoinverse block failed")
    return out


def check_bordered(prof: EdmProfile, view: CayleyMengerView) -> list[CheckResult]:
    out: list[CheckResult] = []
    w_expect = np.concatenate([[-1.0], 2.0 * prof.w])
    _check(out, "bordered-w", float(np.linalg.norm(view.w_tilde - w_expect)) <= 1e-8,
           "w~ != (-1, 2w)")
    _check(out, "bordered-balance", abs(float(view.w_tilde.sum())) <= 1e-8,
           "e~.w~ != 0 for unit spherical source")
    _check(out, "bordered-radius", _rel(cm_radius_sq(view), 1.0) <= 1e-8,
           "bordered radius != 1")
    _check(out, "bordered-dim", cm_embedding_dim(view, prof) == prof.r,
           "bordered embedding dimension mismatch")
    try:
        cm_gale(view, prof)
        _check(out, "bordered-gale", True)
    except EdmpError as exc:
        _check(out, "bordered-gale", False, str(exc))
    rank_dt = view.eig.rank(RANK_CHECK_TOL)
    _check(out, "bordered-rank", rank_dt == prof.r + 2,
           f"rank(bordered)={rank_dt} expected {prof.r + 2}")
    return out


def check_teq_members(d: DistanceMatrix, entry: EntryIndex, members,
                      tol: TolerancePolicy) -> CheckResult:
    """|2 e.w(t) - 1| <= 1e-8 + n*kappa*eps at every reported T= member, where
    w(t) and kappa = cond(D + t E^kl) come from one oracle factorization."""
    rows = []
    for t in members:
        residual, dec = unit_residual(d, entry, float(t), tol)
        kappa = dec.cond(tol)
        rows.append((residual, kappa, TEQ_RESIDUAL_TOL + d.n * kappa * np.finfo(float).eps))
    residual, kappa, bound = max(rows, key=lambda row: row[0] / row[2])
    ok = bool(residual <= bound)
    return CheckResult("teq-members", ok, "" if ok else (
        f"unit residual {residual:.3e} on reported members exceeds "
        f"{bound:.3e} = 1e-8 + n*kappa*eps with kappa {kappa:.3e}"))


def check_entry(
    prof: EdmProfile, entry: EntryIndex, expected: CaseTag | None
) -> tuple[list[CheckResult], CaseTag]:
    out: list[CheckResult] = []
    d, tol = prof.d, prof.tol
    report = classify(prof, entry)
    if expected is not None:
        _check(out, "case-tag", report.case_tag is expected,
               f"got {report.case_tag.value} expected {expected.value}")
    yrep = report.yielding_report

    if yrep.yielding:
        lo, hi = yrep.interval
        delta = 1e-4 * (hi - lo + 1.0)
        _check(out, "yield-endpoints-edm",
               is_edm_array(d.perturbed_array(entry.i, entry.j, lo))
               and is_edm_array(d.perturbed_array(entry.i, entry.j, hi)),
               "yield endpoints left the EDM cone")
        _check(out, "yield-beyond-fails",
               not is_edm_array(d.perturbed_array(entry.i, entry.j, hi + delta))
               and not is_edm_array(d.perturbed_array(entry.i, entry.j, lo - delta)),
               "EDM-ness survived beyond the yield interval")

    tleq = report.t_leq
    if tleq.width > 0.0:
        outside = [t for t in map(float, tleq.interior_samples(20))
                   if not in_t_leq_oracle(d, entry, t)]
        _check(out, "tleq-interior", not outside,
               f"radius-one test fails at interior t = {outside}")
        _check(out, "tleq-exterior",
               not in_t_leq_oracle(d, entry, tleq.hi + 1e-3)
               and not in_t_leq_oracle(d, entry, tleq.lo - 1e-3),
               "radius-one set extends beyond reported endpoints")
        width = tleq.width
        hi_found = locate_t_leq_boundary(
            d, entry, tleq.hi - 0.25 * width, tleq.hi + max(0.1, 0.1 * abs(tleq.hi))
        )
        lo_found = locate_t_leq_boundary(
            d, entry, tleq.lo + 0.25 * width, tleq.lo - max(0.1, 0.1 * abs(tleq.lo))
        )
        _check(out, "tleq-endpoint-bisect",
               abs(hi_found - tleq.hi) <= 1e-6 and abs(lo_found - tleq.lo) <= 1e-6,
               f"bisected endpoints ({lo_found}, {hi_found}) vs {tuple(tleq)}")

    members = report.t_eq.members()
    out.append(check_teq_members(d, entry, members, tol))

    if report.t_eq.kind is not TeqKind.CONTINUUM and tleq.width > 0.0:
        probes = [t for t in tleq.interior_samples(4)
                  if min(abs(t - m) for m in members) > 0.05 * tleq.width]
        if probes:
            best = min(unit_residual(d, entry, float(t), tol)[0] for t in probes)
            _check(out, "teq-nonmembers", best > 1e-6,
                   f"non-member unit residual only {best:.3e}")

    if tleq.width > 0.0:
        worst_rel = worst_closed_vs_direct(prof, report, tleq.interior_samples(10))
        _check(out, "radius-direct-agreement", worst_rel <= 1e-8,
               f"closed form vs direct radius rel err {worst_rel:.3e}")
        sdp_worst = max(
            abs(sdp_min_radius_sq(d, entry, float(t))
                - radius_squared(report, float(t)))
            for t in tleq.interior_samples(3)
        )
        _check(out, "radius-sdp-agreement", sdp_worst <= 1e-7,
               f"bisection vs closed form abs err {sdp_worst:.3e}")

    if report.coefficients is not None:
        out.extend(_check_rational_case(prof, report))
    return out, report.case_tag


def _check_rational_case(prof: EdmProfile, report: PerturbationReport) -> list[CheckResult]:
    out: list[CheckResult] = []
    d, entry = prof.d, report.entry
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
    worst = worst_border_vs_closed(report, tleq.interior_samples(20)) or 0.0
    _check(out, "border-closed-form", worst <= 1e-10,
           f"bordered vs rational radius rel err {worst:.3e}")
    # The closed form of e~.w~(t) against a raw bordered pseudoinverse.
    worst_direct = 0.0
    for t in tleq.interior_samples(3):
        t = float(t)
        pert = d.perturbed(entry.i, entry.j, t)  # interior t: still a valid EDM
        view = cm_build(pert, prof.tol)
        try:
            closed = cm_w_inner(report, t)
        except PoleAt:
            continue
        direct = float(view.w_tilde.sum())
        worst_direct = max(worst_direct, abs(closed - direct) / max(1.0, abs(direct)))
    _check(out, "border-direct", worst_direct <= 1e-8,
           f"closed e~.w~ vs direct rel err {worst_direct:.3e}")
    if report.case_tag is CaseTag.SINGLETON_UNIT:
        limit = radius_squared(report, tc)
        expect = 1.0 - 4.0 * w_l**2 / ll
        _check(out, "singleton-limit",
               _rel(limit, expect) <= 1e-8 and limit < 1.0,
               f"limit {limit!r} vs {expect!r}")
    return out


def check_instance(
    d: DistanceMatrix,
    spec: InstanceSpec,
    expected: CaseTag | None,
    tol: TolerancePolicy = DEFAULT_TOL,
) -> tuple[list[CheckResult], CaseTag | None]:
    """All structural checks for one generated instance."""
    results: list[CheckResult] = []
    try:
        prof = profile(d, tol)
    except EdmpError as exc:
        results.append(CheckResult("profile-build", False, str(exc)))
        return results, None
    results.extend(check_profile(prof, spec.r))
    if not prof.unit_spherical:
        return results, None
    # Relabeling the points must not move the embedding dimension or radius.
    perm = np.random.default_rng(spec.seed ^ 0xA5A5).permutation(d.n)
    shuffled = profile(DistanceMatrix(d.d[np.ix_(perm, perm)]), tol)
    _check(results, "permutation-invariance",
           shuffled.r == prof.r and abs(shuffled.radius - prof.radius) <= 1e-10,
           f"relabeled profile gives r={shuffled.r}, radius={shuffled.radius!r}")
    view = cm_build(d, tol)
    results.extend(check_pinv_identities(prof, view))
    results.extend(check_bordered(prof, view))
    tag = None
    if spec.entry is not None:
        entry_results, tag = check_entry(prof, spec.entry, expected)
        results.extend(entry_results)
    return results, tag


def run_verification(
    count: int,
    seed: int,
    nmax: int = 8,
    tol: TolerancePolicy = DEFAULT_TOL,
) -> VerifySummary:
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
            d = gen_unit_spherical(spec, tol)
        except EdmpError as exc:
            summary.failures.append(
                (child_seed, desc, CheckResult("generate", False, str(exc)))
            )
            summary.instances += 1
            continue
        results, tag = check_instance(d, spec, template.expected, tol)
        summary.instances += 1
        for res in results:
            if res.ok:
                summary.checks_passed += 1
            else:
                summary.failures.append((child_seed, desc, res))
        if tag is not None:
            summary.case_counts[tag.value] = summary.case_counts.get(tag.value, 0) + 1
    return summary
