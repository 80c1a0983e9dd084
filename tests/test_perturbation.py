"""Tests for the radius-constrained perturbation sets and radius function."""

from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from edmp import (
    CaseTag,
    DistanceMatrix,
    EntryIndex,
    InstanceSpec,
    NotUnitSpherical,
    OutsideTleq,
    PoleAt,
    classify,
    gen_unit_spherical,
    profile,
    radius_squared,
)
from edmp.linalg import sym_eig
from edmp.oracle import PerturbedLine, edm_from_points
from edmp.verify import default_templates
from edmp.yielding import ParallelKind, parallel_relation

from conftest import perturbed_array


def rho12(t):
    """Hand-derived radius function of the triangle's short side."""
    return (3.0 + 3.0 * t) / (3.0 + 6.0 * t - t * t)


def report(prof, k, l):
    return classify(prof, EntryIndex(k, l))


class TestTleq:
    def test_square_adjacent_trivial(self, square_profile):
        out = report(square_profile, 1, 2).t_leq
        assert tuple(out) == (0.0, 0.0)
        # Stacked rows (w_k, z_k) are not parallel although the Gale rows are.
        zt = square_profile.Z_tilde
        rel = parallel_relation(zt[0], zt[1], scale=square_profile.zt_scale)
        assert rel.kind is ParallelKind.NOT_PARALLEL

    def test_square_diagonal_full_interval(self, square_profile):
        out = report(square_profile, 1, 3).t_leq
        assert_allclose(tuple(out), (-4.0, 0.0), atol=1e-10)

    def test_antipodal_cases(self, antipodal_profile):
        assert_allclose(tuple(report(antipodal_profile, 1, 2).t_leq),
                        (-4.0, 0.0), atol=1e-10)
        assert_allclose(tuple(report(antipodal_profile, 3, 4).t_leq),
                        (-2.0, 2.0), atol=1e-10)

    def test_triangle_cases(self, triangle_profile):
        assert_allclose(tuple(report(triangle_profile, 1, 2).t_leq),
                        (0.0, 3.0), atol=1e-10)
        assert_allclose(tuple(report(triangle_profile, 1, 3).t_leq),
                        (-3.0, 0.0), atol=1e-10)

    def test_requires_unit_spherical(self, triangle):
        from edmp import DistanceMatrix

        scaled = profile(DistanceMatrix(4.0 * triangle.d))
        with pytest.raises(NotUnitSpherical):
            classify(scaled, EntryIndex(1, 2))


class TestRadiusCoefficients:
    def test_triangle_short_side(self, triangle_profile):
        co = report(triangle_profile, 1, 2).coefficients
        assert_allclose((co.alpha1, co.alpha2), (1.0, 0.0), atol=1e-12)
        assert_allclose((co.beta1, co.beta2), (2.0, -1.0 / 3.0), atol=1e-12)
        assert_allclose(co.c, -1.0, atol=1e-10)

    def test_triangle_long_side(self, triangle_profile):
        co = report(triangle_profile, 1, 3).coefficients
        assert_allclose((co.alpha1, co.alpha2), (1.0 / 3.0, 0.0), atol=1e-12)
        assert_allclose((co.beta1, co.beta2), (-2.0 / 3.0, -1.0 / 3.0), atol=1e-12)

    def test_f_equals_g_at_theta_c(self):
        d = gen_unit_spherical(InstanceSpec(n=5, r=4, seed=3))
        prof = profile(d)
        rep = classify(prof, EntryIndex(2, 4))
        co = rep.coefficients
        tc = [v for v in rep.t_eq if v != 0.0]
        if not tc:  # singleton draw; theta_c is the nonzero T<= endpoint
            iv = rep.t_leq
            tc = [iv.lo if iv.lo != 0.0 else iv.hi]
        assert_allclose(co.f(tc[0]), co.g(tc[0]), atol=1e-9)

    def test_requires_rational_case(self, square_profile, antipodal_profile):
        assert report(square_profile, 1, 2).coefficients is None  # trivial set
        assert report(square_profile, 1, 3).coefficients is None  # radius stays 1
        assert report(antipodal_profile, 3, 4).coefficients is None


class TestRadiusSquared:
    def test_unperturbed_is_one(self, triangle_profile, antipodal_profile):
        assert radius_squared(report(triangle_profile, 1, 2), 0.0) == pytest.approx(1.0)
        assert radius_squared(report(antipodal_profile, 3, 4), 0.0) == 1.0

    def test_triangle_short_side_function(self, triangle_profile):
        for t in (0.0, 0.5, 1.0, 2.0, 3.0):
            assert_allclose(radius_squared(report(triangle_profile, 1, 2), t),
                            rho12(t), atol=1e-12)

    def test_triangle_long_side_function(self, triangle_profile):
        for t in (-3.0, -2.5, -1.0, -0.1, 0.0):
            assert_allclose(radius_squared(report(triangle_profile, 1, 3), t),
                            1.0 / (1.0 - t), atol=1e-12)

    def test_constant_cases_return_exact_one(self, square_profile, antipodal_profile):
        # Both flavors of the constant-radius case: zero w entries, and
        # nonzero w with a surviving Gale row.
        assert radius_squared(report(antipodal_profile, 3, 4), 1.3) == 1.0
        assert radius_squared(report(square_profile, 1, 3), -2.0) == 1.0

    def test_outside_raises(self, triangle_profile):
        with pytest.raises(OutsideTleq):
            radius_squared(report(triangle_profile, 1, 2), 4.0)
        with pytest.raises(OutsideTleq):
            radius_squared(report(triangle_profile, 1, 3), 0.5)

    def test_extrapolation_matches_direct_oracle(self, triangle_profile):
        # Beyond the radius-one set but inside the yield interval the
        # rational form still tracks the true (larger) radius.
        val = radius_squared(report(triangle_profile, 1, 3), 0.5, extrapolate=True)
        assert_allclose(val, 2.0, atol=1e-12)
        [direct] = PerturbedLine(triangle_profile, EntryIndex(1, 3)).spheres([0.5]).radius_sq
        assert_allclose(val, direct, atol=1e-10)

    def test_array_matches_scalar_and_marks_poles(self, triangle_profile):
        # On the long side theta_c = theta_lower = -3 is a removable root of
        # g and theta_upper = 1 a pole; T<= is [-3, 0].
        rep = report(triangle_profile, 1, 3)
        pole = rep.yielding_report.theta_upper
        ts = np.array([rep.yielding_report.theta_lower, -1.0, 0.5, pole])
        values = radius_squared(rep, ts, extrapolate=True)
        assert values[:3].tolist() == [radius_squared(rep, t, extrapolate=True)
                                       for t in ts[:3].tolist()]
        assert np.isnan(values[3])
        with pytest.raises(PoleAt):
            radius_squared(rep, pole, extrapolate=True)
        # Without extrapolate the first t in order that fails raises: 0.5 is
        # outside T<=, and the pole lies inside the yielding interval.
        with pytest.raises(OutsideTleq, match="t=0.5 is outside"):
            radius_squared(rep, ts)
        with pytest.raises(PoleAt):
            radius_squared(replace(rep, t_leq=rep.yielding_report.interval), ts[[0, 1, 3]])

    def test_singleton_endpoint_limit(self, triangle_profile):
        # At theta_c = theta_lower the rational form has a removable
        # singularity; the limit is -2 pinv(D)_ll / pinv(B)_ll < 1.
        val = radius_squared(report(triangle_profile, 1, 3), -3.0)
        w_l = triangle_profile.w[2]
        b_ll = triangle_profile.B_dag[2, 2]
        assert_allclose(val, 1.0 - 4.0 * w_l**2 / b_ll, atol=1e-10)
        assert val < 1.0
        assert_allclose(val, 0.25, atol=1e-12)

    def test_matches_direct_oracle_inside(self):
        d = gen_unit_spherical(InstanceSpec(n=4, r=3, seed=19))
        entry = EntryIndex(1, 2)
        rep = classify(profile(d), entry)
        ts = rep.t_leq.interior_samples(7)
        for t, direct in zip(ts, PerturbedLine(profile(d), entry).spheres(ts).radius_sq):
            closed = radius_squared(rep, float(t))
            assert_allclose(closed, direct, rtol=1e-8)


class TestTeq:
    def test_triangle(self, triangle_profile):
        out = report(triangle_profile, 1, 2)
        assert out.case_tag is CaseTag.PAIR_UNIT
        assert_allclose(out.t_eq, (0.0, 3.0), atol=1e-10)
        out = report(triangle_profile, 1, 3)
        assert out.case_tag is CaseTag.SINGLETON_UNIT
        assert out.t_eq == (0.0,)

    def test_antipodal(self, antipodal_profile):
        out = report(antipodal_profile, 1, 2)
        assert out.case_tag is CaseTag.SINGLETON_UNIT and out.t_eq == (0.0,)
        out = report(antipodal_profile, 3, 4)
        assert out.case_tag is CaseTag.CONTINUUM_UNIT
        assert_allclose(out.t_eq, (-2.0, 2.0), atol=1e-10)

    def test_square(self, square_profile):
        out = report(square_profile, 1, 3)
        assert out.case_tag is CaseTag.CONTINUUM_UNIT
        assert_allclose(out.t_eq, (-4.0, 0.0), atol=1e-10)
        out = report(square_profile, 1, 2)
        assert out.case_tag is CaseTag.TLEQ_TRIVIAL and out.t_eq == (0.0,)

    def test_members_stay_unit_spherical(self, antipodal, antipodal_profile):
        rep = report(antipodal_profile, 3, 4)
        members = rep.teq_members()
        assert len(members) == 7 and (members[0], members[-1]) == tuple(rep.t_leq)
        for t in members:
            w_t = sym_eig(perturbed_array(antipodal, 2, 3, float(t))).pinv() @ np.ones(4)
            assert abs(2.0 * w_t.sum() - 1.0) <= 1e-9

    def test_pair_member_is_unit_nonmembers_are_not(self, triangle):
        prof = profile(triangle)
        out = report(prof, 1, 2)
        assert out.teq_members() == out.t_eq
        for t in out.t_eq:
            w_t = sym_eig(perturbed_array(triangle, 0, 1, float(t))).pinv() @ np.ones(3)
            assert abs(2.0 * w_t.sum() - 1.0) <= 1e-10
        for t in (0.75, 1.5, 2.25):
            w_t = sym_eig(perturbed_array(triangle, 0, 1, t)).pinv() @ np.ones(3)
            assert abs(2.0 * w_t.sum() - 1.0) > 1e-6


class TestClassify:
    def test_case_tags_on_goldens(self, square_profile, antipodal_profile,
                                   triangle_profile):
        assert classify(square_profile, EntryIndex(1, 2)).case_tag is CaseTag.TLEQ_TRIVIAL
        assert classify(square_profile, EntryIndex(1, 3)).case_tag is CaseTag.CONTINUUM_UNIT
        assert classify(antipodal_profile, EntryIndex(1, 2)).case_tag is CaseTag.SINGLETON_UNIT
        assert classify(antipodal_profile, EntryIndex(3, 4)).case_tag is CaseTag.CONTINUUM_UNIT
        assert classify(triangle_profile, EntryIndex(1, 2)).case_tag is CaseTag.PAIR_UNIT
        assert classify(triangle_profile, EntryIndex(1, 3)).case_tag is CaseTag.SINGLETON_UNIT

    def test_not_yielding_tag(self):
        d = gen_unit_spherical(InstanceSpec(n=5, r=2, entry=EntryIndex(1, 2), seed=31))
        rep = classify(profile(d), EntryIndex(1, 2))
        assert rep.case_tag is CaseTag.NOT_YIELDING
        assert rep.t_eq == (0.0,)
        assert rep.coefficients is None

    def test_trivial_case_has_no_coefficients(self, square_profile):
        rep = classify(square_profile, EntryIndex(1, 2))
        assert rep.coefficients is None
        assert tuple(rep.t_leq) == (0.0, 0.0)

    def test_report_consistency(self):
        for seed in range(6):
            d = gen_unit_spherical(InstanceSpec(n=5, r=4, seed=seed))
            prof = profile(d)
            for k in range(1, 5):
                for l in range(k + 1, 6):
                    rep = classify(prof, EntryIndex(k, l))
                    if rep.case_tag in (CaseTag.PAIR_UNIT, CaseTag.SINGLETON_UNIT):
                        assert rep.coefficients is not None
                        assert rep.coefficients.beta2 < 0.0
                    if rep.case_tag is CaseTag.CONTINUUM_UNIT:
                        assert rep.t_eq == tuple(rep.t_leq)
                    else:
                        assert 0.0 in rep.t_eq
                        assert all(rep.t_leq.lo <= t <= rep.t_leq.hi for t in rep.t_eq)

    def test_compound_zero_rows_full_interval(self):
        # Both w and the Gale rows vanish at the pair while r <= n-2: the
        # admissible set is the whole closed-form interval and the radius
        # never moves.  Two antipodal pairs carry every affine dependence
        # and pin the circumcenter; the target points add two fresh
        # coordinate directions.
        e1 = np.array([1.0, 0.0, 0.0])
        p3 = np.array([np.cos(0.7), np.sin(0.7), 0.0])
        p4 = np.array([np.cos(1.1), 0.0, np.sin(1.1)])
        pts = np.vstack([e1, -e1, p3, p4, e1, -e1])
        prof = profile(edm_from_points(pts))
        assert prof.r == 3 and prof.n == 6
        entry = EntryIndex(3, 4)
        assert abs(prof.w[2]) <= 1e-12 and abs(prof.w[3]) <= 1e-12
        assert np.linalg.norm(prof.Z[2]) <= 1e-10
        assert np.linalg.norm(prof.Z[3]) <= 1e-10
        rep = classify(prof, entry)
        assert rep.case_tag is CaseTag.CONTINUUM_UNIT
        yiv = rep.yielding_report.interval
        assert tuple(rep.t_leq) == tuple(yiv)
        assert yiv.lo < 0.0 < yiv.hi
        ts = rep.t_leq.interior_samples(5)
        for t, direct in zip(ts, PerturbedLine(prof, entry).spheres(ts).radius_sq):
            assert radius_squared(rep, float(t)) == 1.0
            assert abs(direct - 1.0) <= 1e-9

    def test_near_parallel_trivial_set_warns(self):
        # Stacked rows that miss parallelism by ~2e-4 leave the trivial
        # verdict formally correct but numerically razor-thin; the report
        # says so.
        from edmp import Structure, InstanceSpec, gen_unit_spherical

        spec = InstanceSpec(5, 3, Structure.PARALLEL_GALE_PAIR, EntryIndex(2, 4),
                            seed=777000)
        prof = profile(gen_unit_spherical(spec))
        rep = classify(prof, EntryIndex(4, 5))
        assert rep.case_tag is CaseTag.TLEQ_TRIVIAL
        assert rep.warnings and "near-parallel" in rep.warnings[0]

    def test_near_singleton_proximity_warning(self):
        # Break a mirror symmetry by a 1e-5 nudge: the singleton criterion
        # is missed by ~1e-6, inside the declared proximity band.
        f1 = np.array([1.0, 0.0, 0.0])
        f2 = np.array([-0.3, np.sqrt(1 - 0.09), 0.0])
        q = 0.4 * np.array([0.6, 0.8, 0.0])
        s = np.sqrt(1 - q @ q)
        pk = np.array([q[0], q[1], s])
        pl = np.array([q[0], q[1], -s])
        pk = pk + 1e-5 * np.array([0.3, -0.7, 0.2])
        pk /= np.linalg.norm(pk)
        prof = profile(edm_from_points(np.vstack([pk, pl, f1, f2])))
        rep = classify(prof, EntryIndex(1, 2))
        assert rep.case_tag is CaseTag.PAIR_UNIT
        assert rep.warnings and "proximity" in rep.warnings[0]


class TestRelabeling:
    def test_case_and_intervals_invariant_under_relabeling(self):
        # Point a of the relabeled matrix is point perm[a] of the original,
        # so the original entry (k, l) sits at (inv[k], inv[l]).
        for seed in range(20):
            rng = np.random.default_rng(seed)
            for template in default_templates(8):
                entry = template.spec.entry
                d = gen_unit_spherical(replace(template.spec, seed=seed))
                perm = rng.permutation(d.n)
                inv = np.argsort(perm)
                moved = EntryIndex(int(inv[entry.i]) + 1, int(inv[entry.j]) + 1)
                before = classify(profile(d), entry)
                after = classify(profile(DistanceMatrix(d.d[np.ix_(perm, perm)])), moved)
                assert after.case_tag is before.case_tag
                for mine, theirs in ((after.yielding_report.interval,
                                      before.yielding_report.interval),
                                     (after.t_leq, before.t_leq)):
                    assert_allclose(tuple(mine), tuple(theirs), rtol=1e-9, atol=0.0)


class TestScaleInvariance:
    @pytest.mark.parametrize("s", [1e-12, 1e-6, 1e6, 1e12])
    def test_case_and_interval_invariant_under_scaling(self, s):
        # s*D has radius sqrt(s); dividing by rho^2 brings it back to a unit
        # spherical matrix that must classify like D.
        for template in default_templates(8):
            entry = template.spec.entry
            d = gen_unit_spherical(template.spec)
            before = classify(profile(d), entry)
            scaled = profile(DistanceMatrix(s * d.d))
            assert scaled.r == template.spec.r
            assert scaled.radius / np.sqrt(s) == pytest.approx(1.0, rel=1e-12, abs=0.0)
            unit = DistanceMatrix(s * d.d / scaled.radius**2)
            after = classify(profile(unit), entry)
            assert after.case_tag is before.case_tag
            assert_allclose(tuple(after.yielding_report.interval),
                            tuple(before.yielding_report.interval), rtol=1e-9, atol=0.0)
