"""Tests for the invariant-suite runner itself."""

from dataclasses import replace

import numpy as np
import pytest

import edmp.verify
from edmp import (
    CaseTag,
    DistanceMatrix,
    EntryIndex,
    InstanceSpec,
    Structure,
    classify,
    gen_unit_spherical,
    profile,
)
from edmp.cli import main
from edmp.errors import Infeasible, NumericalFailure
from edmp.linalg import DEFAULT_TOL, EigDecomp
from edmp.oracle import SDP_BRACKET, PerturbedLine, gen_unit_profile
from edmp.cayley import bordered
from edmp.verify import (
    check_entry,
    check_instance,
    check_teq_members,
    default_templates,
    run_verification,
    worst_closed_vs_direct,
)
from edmp.yielding import Interval
from conftest import SQUARE


def bordered_profile(prof):
    return profile(DistanceMatrix(bordered(prof.d)), prof.tol)


class TestTemplates:
    def test_default_spans_all_cases(self):
        templates = default_templates()
        tags = {t.expected for t in templates}
        assert tags == set(CaseTag)

    def test_nmax_filters(self):
        for template in default_templates(nmax=5):
            assert template.spec.n <= 5

    def test_too_small_nmax_rejected(self):
        # The first NotYielding template has n = 5, so below that no run
        # could cover every case tag.
        for nmax in (2, 3, 4):
            with pytest.raises(ValueError, match="too small"):
                default_templates(nmax=nmax)


class TestRunner:
    def test_count_validation(self):
        with pytest.raises(ValueError):
            run_verification(count=0, seed=1)

    def test_small_count_skips_coverage_requirement(self):
        summary = run_verification(count=2, seed=9)
        assert summary.passed
        assert summary.missing_cases == []

    def test_full_cycle_enforces_coverage(self):
        templates = default_templates()
        summary = run_verification(count=len(templates), seed=9)
        assert summary.enforce_coverage
        assert summary.passed

    def test_render_is_deterministic(self):
        a = run_verification(count=3, seed=4).render()
        b = run_verification(count=3, seed=4).render()
        assert a == b
        assert "result: PASS" in a

    def test_injected_failure_reports_seed(self, radius_off_one):
        summary = run_verification(count=1, seed=4)
        assert not summary.passed
        assert summary.first_failing_seed == 4
        assert "result: FAIL" in summary.render()

    def test_bordered_matrix_not_an_edm_is_a_failed_check(self, monkeypatch, capsys):
        # The border of 1.21 D belongs to a source of radius 1.1, so it is no
        # EDM: profile raises NotAnEdm, and verify reports the seed instead
        # of stopping.
        real = edmp.verify.bordered
        monkeypatch.setattr(edmp.verify, "bordered",
                            lambda d: real(DistanceMatrix(1.21 * d.d)))
        summary = run_verification(count=1, seed=4)
        assert summary.first_failing_seed == 4
        names = [res.name for _, _, res in summary.failures]
        assert names.count("bordered-profile") == 1
        assert not [name for name in names if name.startswith("bordered-")
                    and name != "bordered-profile"]
        assert main(["verify", "--count", "1", "--seed", "4"]) == 1
        out = capsys.readouterr().out
        assert "first failing seed: 4" in out
        assert "bordered-profile: input matrix is not a Euclidean distance matrix" in out

    def test_failed_bordered_profile_keeps_the_entry_checks(self, monkeypatch):
        # Where the bordered profile fails, each rational case still reports
        # every entry check; only border-direct, which factors the border's
        # line, is skipped, and bordered-profile is the one failure.
        rational = []
        for template in default_templates(8):
            prof = gen_unit_profile(template.spec)
            if classify(prof, template.spec.entry).coefficients is not None:
                rational.append((template, prof, check_instance(prof, template.spec,
                                                                template.expected)[0]))
        assert rational
        real = edmp.verify.bordered
        monkeypatch.setattr(edmp.verify, "bordered",
                            lambda d: real(DistanceMatrix(1.21 * d.d)))
        for template, prof, whole in rational:
            results, tag = check_instance(prof, template.spec, template.expected)
            assert tag is template.expected
            assert [res.name for res in results if not res.ok] == ["bordered-profile"]
            kept = [res.name for res in whole
                    if not res.name.startswith("bordered-") and res.name != "border-direct"]
            assert [res.name for res in results if res.name != "bordered-profile"] == kept

    @pytest.mark.parametrize("name,error", [
        ("PerturbedLine.radius_bracket", NumericalFailure("eigendecomposition failed")),
        ("classify", NumericalFailure("radius coefficient identities failed")),
    ])
    def test_entry_error_is_a_failed_check(self, monkeypatch, capsys, name, error):
        # An error raised while checking the entry is reported with its seed
        # and text instead of stopping verify.
        def fail(*_, **__):
            raise error
        monkeypatch.setattr(f"edmp.verify.{name}", fail)
        assert main(["verify", "--count", "1", "--seed", "4"]) == 1
        out = capsys.readouterr().out
        assert "first failing seed: 4" in out
        assert f"entry-checks: {error}" in out

    def test_unproved_bracket_error_is_a_failed_check(self, monkeypatch, capsys):
        # Where no bracket is proved, the bisection from [0, 1] that measures
        # the miss may raise; that too is the failed check entry-checks.
        error = Infeasible("no feasible radius bound below the cap")

        def fail(*_, **__):
            raise error
        monkeypatch.setattr(edmp.verify.PerturbedLine, "radius_bracket",
                            lambda line, ts, near: np.zeros(len(ts), dtype=bool))
        monkeypatch.setattr(edmp.verify.PerturbedLine, "min_radius_sq", fail)
        assert main(["verify", "--count", "1", "--seed", "4"]) == 1
        out = capsys.readouterr().out
        assert "first failing seed: 4" in out
        assert f"entry-checks: {error}" in out


class TestCheckInstance:
    def test_square_passes_everything(self):
        spec = InstanceSpec(n=4, r=2, structure=Structure.GENERIC,
                            entry=EntryIndex(1, 3), seed=0)
        results, tag = check_instance(
            profile(DistanceMatrix(SQUARE)), spec, CaseTag.CONTINUUM_UNIT
        )
        failed = [r for r in results if not r.ok]
        assert not failed, failed
        assert tag is CaseTag.CONTINUUM_UNIT

    def test_detects_wrong_expected_case(self):
        spec = InstanceSpec(n=4, r=2, structure=Structure.GENERIC,
                            entry=EntryIndex(1, 2), seed=0)
        results, tag = check_instance(
            profile(DistanceMatrix(SQUARE)), spec, CaseTag.PAIR_UNIT
        )
        assert tag is CaseTag.TLEQ_TRIVIAL
        assert any(r.name == "case-tag" and not r.ok for r in results)

    def test_tleq_widened_past_its_end_fails_interior(self, monkeypatch):
        # gen --n 4 --r 3 --seed 0 is PairUnit at (1,2).  Widening T<= by 10%
        # at hi puts interior samples where 2E - D - tE^kl is not PSD.
        entry = EntryIndex(1, 2)
        prof = profile(gen_unit_spherical(InstanceSpec(4, 3, seed=0)))
        report = classify(prof, entry)
        assert report.case_tag is CaseTag.PAIR_UNIT
        results, _ = check_entry(prof, entry, CaseTag.PAIR_UNIT, bordered_profile(prof))
        assert [res for res in results if not res.ok] == []
        lo, hi = report.t_leq
        widened = replace(report, t_leq=Interval(lo, hi + 0.1 * (hi - lo)))
        monkeypatch.setattr(edmp.verify, "classify", lambda *_: widened)
        results, _ = check_entry(prof, entry, CaseTag.PAIR_UNIT, bordered_profile(prof))
        interior = next(res for res in results if res.name == "tleq-interior")
        assert not interior.ok
        assert interior.detail.startswith("radius-one test fails at interior t = [")


class TestTleqEndpointProbe:
    """Each end of T<= is checked by one radius-one probe just inside it and
    one 1e-6 outside it."""

    ENTRY = EntryIndex(1, 2)

    @pytest.fixture
    def pair_unit(self):
        # gen --n 4 --r 3 --seed 0 is PairUnit at (1,2).
        prof = profile(gen_unit_spherical(InstanceSpec(4, 3, seed=0)))
        report = classify(prof, self.ENTRY)
        assert report.case_tag is CaseTag.PAIR_UNIT
        return prof, report

    @staticmethod
    def _probe(monkeypatch, prof, report, entry, t_leq):
        moved = replace(report, t_leq=t_leq)
        monkeypatch.setattr(edmp.verify, "classify", lambda *_: moved)
        results, _ = check_entry(prof, entry, report.case_tag, bordered_profile(prof))
        return next(res for res in results if res.name == "tleq-endpoint-probe")

    @pytest.mark.parametrize("shift", [1e-5, -1e-5], ids=["out", "in"])
    def test_end_moved_by_1e_5_fails(self, monkeypatch, pair_unit, shift):
        prof, report = pair_unit
        lo, hi = report.t_leq
        probe = self._probe(monkeypatch, prof, report, self.ENTRY, Interval(lo, hi + shift))
        assert not probe.ok
        assert probe.detail.startswith("radius-one test contradicts the ends (")

    @pytest.mark.parametrize("shift", [1e-8, -1e-8], ids=["out", "in"])
    def test_end_moved_by_1e_8_passes(self, monkeypatch, pair_unit, shift):
        prof, report = pair_unit
        lo, hi = report.t_leq
        assert self._probe(monkeypatch, prof, report, self.ENTRY, Interval(lo, hi + shift)).ok

    def test_halved_tleq_fails_checks_without_raising(self, monkeypatch):
        # Halving ContinuumUnit's T<= puts the outer probe at its new upper
        # end inside the radius-one set.
        template = next(t for t in default_templates()
                        if t.spec.structure is Structure.ZERO_W_PAIR)
        prof = gen_unit_profile(template.spec)
        entry = template.spec.entry
        report = classify(prof, entry)
        assert report.case_tag is CaseTag.CONTINUUM_UNIT
        lo, hi = report.t_leq
        halved = Interval(lo, 0.5 * (lo + hi))
        assert not self._probe(monkeypatch, prof, report, entry, halved).ok
        results, _ = check_entry(prof, entry, CaseTag.CONTINUUM_UNIT, bordered_profile(prof))
        assert {res.name for res in results if not res.ok} >= {
            "tleq-exterior", "tleq-endpoint-probe"}


class TestRadiusComparisons:
    def test_missing_sphere_counts_as_full_disagreement(self, triangle_profile):
        # D + E^13 of the triangle is collinear, so the direct oracle finds
        # no sphere; the error is 1, its limit as the direct radius grows.
        direct = PerturbedLine(triangle_profile, EntryIndex(1, 3)).spheres([1.0]).radius_sq
        assert worst_closed_vs_direct(np.array([0.25]), direct) == 1.0


class TestSdpAgreement:
    """radius-sdp-agreement passes where the raw test proves each optimum
    within SDP_BRACKET of its closed radius, and a radius it does not prove
    meets the true optimum of the bisection from [0, 1]."""

    @pytest.mark.parametrize("shift", [2 * SDP_BRACKET, SDP_BRACKET / 2, np.nan, np.inf],
                             ids=["twice-bracket", "half-bracket", "nan", "inf"])
    def test_shifted_radius(self, monkeypatch, shift):
        # gen --n 4 --r 3 --seed 0 is PairUnit at (1,2).  The 3 closed radii
        # radius-sdp-agreement receives, moved past the bracket or to a
        # non-finite value, fail with the fallback bisection's error as detail
        # and without raising; moved within it, they pass.
        entry = EntryIndex(1, 2)
        prof = profile(gen_unit_spherical(InstanceSpec(4, 3, seed=0)))
        report = classify(prof, entry)
        ts = report.t_leq.interior_samples(3)
        lam = PerturbedLine(prof, entry).min_radius_sq(ts)
        real = edmp.verify.radius_squared

        def moved(rep, samples):
            out = real(rep, samples)
            if np.ndim(samples) and np.array_equal(samples[-3:], ts):
                out[-3:] += shift
            return out
        monkeypatch.setattr(edmp.verify, "radius_squared", moved)
        results, _ = check_entry(prof, entry, CaseTag.PAIR_UNIT, bordered_profile(prof))
        sdp = next(res for res in results if res.name == "radius-sdp-agreement")
        assert sdp.ok is (shift == SDP_BRACKET / 2)
        if not sdp.ok:
            worst = float(np.abs(lam - (real(report, ts) + shift)).max())
            assert sdp.detail == f"bisection vs closed form abs err {worst:.3e}"

    @pytest.mark.parametrize("scale", [1.0 + 1e-6, 1.0 - 1e-6], ids=["up", "down"])
    def test_moved_radius_fails_with_true_optimum(self, monkeypatch, scale):
        entry = EntryIndex(1, 2)
        prof = profile(gen_unit_spherical(InstanceSpec(4, 3, seed=0)))
        report = classify(prof, entry)
        ts = report.t_leq.interior_samples(3)
        lam = PerturbedLine(prof, entry).min_radius_sq(ts)
        real = edmp.verify.radius_squared
        monkeypatch.setattr(edmp.verify, "radius_squared",
                            lambda *args: scale * real(*args))
        results, _ = check_entry(prof, entry, CaseTag.PAIR_UNIT, bordered_profile(prof))
        sdp = next(res for res in results if res.name == "radius-sdp-agreement")
        assert not sdp.ok
        worst = max(abs(lam_t - scale * rho_sq)
                    for lam_t, rho_sq in zip(lam, real(report, ts)))
        assert worst > 1e-7
        assert sdp.detail == f"bisection vs closed form abs err {worst:.3e}"


class TestTeqMembersBound:
    """The T= residual bound 1e-8 + n*kappa*eps near the rank drop at theta_c."""

    # Children of `verify --count 100 --nmax 8` at seeds 10 and 53 whose
    # theta_c member has a unit residual above 1e-8 because D + theta_c E^kl
    # is nearly singular.
    ILL_CONDITIONED = [
        pytest.param(1_000_013, 4, 3, EntryIndex(1, 2), id="seed10-child1000013"),
        pytest.param(19_000_110, 8, 7, EntryIndex(1, 8), id="seed53-child19000110"),
    ]

    @staticmethod
    def _instance(seed, n, r, entry):
        d = gen_unit_spherical(InstanceSpec(n, r, Structure.GENERIC, entry, seed))
        report = classify(profile(d), entry)
        assert report.case_tag is CaseTag.PAIR_UNIT
        return d, report

    @pytest.mark.parametrize("seed,n,r,entry", ILL_CONDITIONED)
    def test_ill_conditioned_member_passes(self, seed, n, r, entry):
        d, report = self._instance(seed, n, r, entry)
        sphere = PerturbedLine(profile(d), entry).spheres([report.theta_c])
        assert EigDecomp(sphere.eigenvalues[0], None).cond() > 1e8
        assert sphere.unit_residual[0] > 1e-8
        members = report.teq_members()
        assert report.theta_c in members
        assert check_teq_members(PerturbedLine(profile(d), entry).spheres(members), DEFAULT_TOL).ok
        spec = InstanceSpec(n, r, Structure.GENERIC, entry, seed)
        results, _ = check_instance(profile(d), spec, CaseTag.PAIR_UNIT)
        assert [res for res in results if not res.ok] == []

    @pytest.mark.parametrize("seed", [10, 53])
    def test_verify_cli_passes(self, seed, capsys):
        argv = ["verify", "--count", "100", "--seed", str(seed), "--nmax", "8"]
        assert main(argv) == 0
        assert capsys.readouterr().out.endswith("result: PASS\n")

    def test_member_off_theta_c_fails(self):
        # gen --n 4 --r 3 --seed 0: kappa ~ 35 at theta_c, so the bound stays
        # at ~1e-8 and a member 1e-4 relative off theta_c (residual ~3e-7)
        # is rejected.
        entry = EntryIndex(1, 2)
        d, report = self._instance(0, 4, 3, entry)
        moved = report.theta_c * (1.0 + 1e-4)
        line = PerturbedLine(profile(d), entry)
        [values] = line.spheres([report.theta_c]).eigenvalues
        assert EigDecomp(values, None).cond() < 100.0
        spheres = line.spheres([0.0, moved])
        result = check_teq_members(spheres, DEFAULT_TOL)
        assert not result.ok
        assert "unit residual 3.1" in result.detail
        assert "kappa 3.5" in result.detail
        # The worst member, each one's kappa taken alone.
        rows = [(residual, 1e-8 + len(values) * EigDecomp(values, None).cond() * 2.0**-52)
                for residual, values in zip(spheres.unit_residual, spheres.eigenvalues)]
        residual, bound = max(rows, key=lambda row: row[0] / row[1])
        assert f"{residual:.3e} on reported members exceeds {bound:.3e}" in result.detail
        assert check_teq_members(line.spheres([0.0, report.theta_c]), DEFAULT_TOL).ok
