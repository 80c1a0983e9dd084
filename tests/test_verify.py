"""Tests for the invariant-suite runner itself."""

from dataclasses import replace

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
from edmp.linalg import DEFAULT_TOL
from edmp.oracle import perturbed_w
from edmp.verify import (
    check_entry,
    check_instance,
    check_teq_members,
    default_templates,
    run_verification,
)
from edmp.yielding import Interval
from conftest import SQUARE


class TestTemplates:
    def test_default_spans_all_cases(self):
        templates = default_templates()
        tags = {t.expected for t in templates}
        assert tags == set(CaseTag)

    def test_nmax_filters(self):
        for template in default_templates(nmax=5):
            assert template.spec.n <= 5

    def test_too_small_nmax_rejected(self):
        with pytest.raises(ValueError):
            default_templates(nmax=2)


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


class TestCheckInstance:
    def test_square_passes_everything(self):
        spec = InstanceSpec(n=4, r=2, structure=Structure.GENERIC,
                            entry=EntryIndex(1, 3), seed=0)
        results, tag = check_instance(
            DistanceMatrix(SQUARE), spec, CaseTag.CONTINUUM_UNIT
        )
        failed = [r for r in results if not r.ok]
        assert not failed, failed
        assert tag is CaseTag.CONTINUUM_UNIT

    def test_detects_wrong_expected_case(self):
        spec = InstanceSpec(n=4, r=2, structure=Structure.GENERIC,
                            entry=EntryIndex(1, 2), seed=0)
        results, tag = check_instance(
            DistanceMatrix(SQUARE), spec, CaseTag.PAIR_UNIT
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
        results, _ = check_entry(prof, entry, CaseTag.PAIR_UNIT)
        assert [res for res in results if not res.ok] == []
        lo, hi = report.t_leq
        widened = replace(report, t_leq=Interval(lo, hi + 0.1 * (hi - lo)))
        monkeypatch.setattr(edmp.verify, "classify", lambda *_: widened)
        results, _ = check_entry(prof, entry, CaseTag.PAIR_UNIT)
        interior = next(res for res in results if res.name == "tleq-interior")
        assert not interior.ok
        assert interior.detail.startswith("radius-one test fails at interior t = [")


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
        w_t, dec = perturbed_w(d, entry, report.theta_c)
        assert dec.cond() > 1e8
        assert abs(2.0 * float(w_t.sum()) - 1.0) > 1e-8
        members = report.t_eq.members()
        assert report.theta_c in members
        assert check_teq_members(d, entry, members, DEFAULT_TOL).ok
        spec = InstanceSpec(n, r, Structure.GENERIC, entry, seed)
        results, _ = check_instance(d, spec, CaseTag.PAIR_UNIT)
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
        _, dec = perturbed_w(d, entry, report.theta_c)
        assert dec.cond() < 100.0
        result = check_teq_members(d, entry, (0.0, moved), DEFAULT_TOL)
        assert not result.ok
        assert "unit residual 3.1" in result.detail
        assert "kappa 3.5" in result.detail
        assert check_teq_members(d, entry, (0.0, report.theta_c), DEFAULT_TOL).ok
