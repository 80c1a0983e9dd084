"""Tests for instance generators and the independent oracles."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from edmp import (
    EntryIndex,
    Infeasible,
    InfeasibleSpec,
    InstanceSpec,
    Structure,
    classify,
    gen_unit_spherical,
    membership_scan,
    profile,
    radius_squared,
    sdp_min_radius_sq,
)
from edmp.linalg import pinv, sym_eig
from edmp.oracle import in_t_leq_oracle, locate_t_leq_boundary, perturbed_w
from edmp.verify import check_profile

from conftest import gen_nonspherical


class TestSpecValidation:
    def test_r_must_be_below_n(self):
        with pytest.raises(InfeasibleSpec):
            InstanceSpec(n=3, r=3).validate()

    def test_structures_need_entry(self):
        with pytest.raises(InfeasibleSpec):
            InstanceSpec(n=4, r=2, structure=Structure.PARALLEL_GALE_PAIR).validate()

    def test_parallel_gale_needs_one_column(self):
        with pytest.raises(InfeasibleSpec):
            InstanceSpec(n=5, r=2, structure=Structure.PARALLEL_GALE_PAIR,
                         entry=EntryIndex(1, 2)).validate()

    def test_zero_gale_needs_room(self):
        with pytest.raises(InfeasibleSpec):
            InstanceSpec(n=4, r=2, structure=Structure.ZERO_GALE_PAIR,
                         entry=EntryIndex(1, 2)).validate()

    def test_zero_w_needs_full_dimension(self):
        with pytest.raises(InfeasibleSpec):
            InstanceSpec(n=5, r=3, structure=Structure.ZERO_W_PAIR,
                         entry=EntryIndex(1, 2)).validate()

    def test_entry_in_range(self):
        with pytest.raises(InfeasibleSpec):
            InstanceSpec(n=4, r=2, structure=Structure.PARALLEL_GALE_PAIR,
                         entry=EntryIndex(1, 6)).validate()


class TestGenerators:
    def test_generic_profile_is_sound(self):
        spec = InstanceSpec(n=3, r=2, seed=1)
        d = gen_unit_spherical(spec)
        prof = profile(d)
        assert prof.r == 2
        assert_allclose(2.0 * prof.w.sum(), 1.0, atol=1e-10)

    def test_deterministic(self):
        spec = InstanceSpec(n=6, r=4, seed=99)
        a = gen_unit_spherical(spec)
        b = gen_unit_spherical(spec)
        assert np.array_equal(a.d, b.d)

    def test_seed_changes_instance(self):
        a = gen_unit_spherical(InstanceSpec(n=6, r=4, seed=99))
        b = gen_unit_spherical(InstanceSpec(n=6, r=4, seed=100))
        assert not np.array_equal(a.d, b.d)

    def test_parallel_gale_pair_structure(self):
        spec = InstanceSpec(4, 2, Structure.PARALLEL_GALE_PAIR, EntryIndex(1, 3), 5)
        prof = profile(gen_unit_spherical(spec))
        from edmp import yielding_report
        from edmp.yielding import ParallelKind

        rep = yielding_report(prof, EntryIndex(1, 3))
        assert rep.yielding
        assert rep.gale_relation.kind is ParallelKind.SCALAR

    def test_zero_gale_pair_structure(self):
        for r, n in [(2, 5), (3, 6), (4, 7)]:
            spec = InstanceSpec(n, r, Structure.ZERO_GALE_PAIR, EntryIndex(1, 2), 5)
            prof = profile(gen_unit_spherical(spec))
            z_scale = np.linalg.norm(prof.Z, axis=1).max()
            assert np.linalg.norm(prof.Z[0]) <= 1e-10 * z_scale
            assert np.linalg.norm(prof.Z[1]) <= 1e-10 * z_scale
            assert abs(prof.w[0]) > 1e-6

    def test_zero_w_pair_structure(self):
        spec = InstanceSpec(5, 4, Structure.ZERO_W_PAIR, EntryIndex(2, 3), 5)
        prof = profile(gen_unit_spherical(spec))
        w_scale = np.abs(prof.w).max()
        assert abs(prof.w[1]) <= 1e-10 * w_scale
        assert abs(prof.w[2]) <= 1e-10 * w_scale

    def test_mirror_pair_structure(self):
        spec = InstanceSpec(6, 5, Structure.MIRROR_PAIR, EntryIndex(1, 6), 5)
        prof = profile(gen_unit_spherical(spec))
        assert_allclose(prof.w[0], prof.w[5], atol=1e-14)
        assert_allclose(prof.B_dag[0, 0], prof.B_dag[5, 5], atol=1e-12)

    def test_profile_checks_across_seeds(self):
        # A miniature generator-soundness sweep reusing the check suite.
        for seed in range(10):
            for n, r in [(4, 3), (5, 3), (6, 5)]:
                d = gen_unit_spherical(InstanceSpec(n=n, r=r, seed=seed))
                results = check_profile(profile(d), r)
                bad = [res for res in results if not res.ok]
                assert not bad, bad

    def test_every_order_dimension_combination(self):
        # Generic generation is sound for every feasible (n, r) in range.
        for n in range(3, 9):
            for r in range(2, n):
                for seed in range(4):
                    d = gen_unit_spherical(InstanceSpec(n=n, r=r, seed=100 * seed))
                    prof = profile(d)
                    assert prof.r == r
                    assert prof.unit_spherical
                    assert abs(prof.radius - 1.0) <= 1e-10


class TestNonspherical:
    def test_four_points_in_plane(self):
        d = gen_nonspherical(4, 2, seed=8)
        prof = profile(d)
        assert not prof.spherical
        assert abs(prof.w.sum()) < 1e-9
        assert sym_eig(d.d).rank() == 4

    def test_needs_dependent_points(self):
        with pytest.raises(InfeasibleSpec):
            gen_nonspherical(4, 3, seed=0)


class TestPerturbedW:
    def test_solves_perturbed_system(self, triangle):
        entry = EntryIndex(1, 2)
        w_t, dec = perturbed_w(triangle, entry, 1.0)
        pert = triangle.perturbed_array(0, 1, 1.0)
        assert_allclose((dec.vectors * dec.values) @ dec.vectors.T, pert, atol=1e-12)
        assert_allclose(w_t, pinv(pert) @ np.ones(3), atol=0.0)
        # rho^2 = 1 / (2 e.w) is the hand value 3/4 at t = 1.
        assert_allclose(1.0 / (2.0 * w_t.sum()), 0.75, atol=1e-12)

    def test_condition_grows_near_theta_c(self, triangle):
        # D + t E^13 loses rank at theta_c = -3 for the long side.
        entry = EntryIndex(1, 3)
        far = perturbed_w(triangle, entry, -1.0)[1].cond()
        near = perturbed_w(triangle, entry, -3.0 + 1e-6)[1].cond()
        assert near > 1e4 * far


class TestMembershipScan:
    def test_triangle_long_side_landmarks(self, triangle):
        entry = EntryIndex(1, 3)
        recs = membership_scan(triangle, entry, [0.0, 0.5, 1.0])
        at0, at_half, at1 = recs
        assert at0.in_t_eq and at0.in_t_leq and at0.is_edm
        # t = 0.5: spherical EDM of radius 2 > 1.
        assert at_half.is_edm and at_half.is_spherical
        assert_allclose(at_half.radius_sq, 2.0, atol=1e-9)
        assert not at_half.in_t_leq
        # t = 1 (the yield endpoint): an EDM with no circumscribing sphere.
        assert at1.is_edm and not at1.is_spherical
        assert at1.radius_sq is None

    def test_record_chain_invariant(self, antipodal):
        ts = np.linspace(-3.0, 3.0, 25)
        for rec in membership_scan(antipodal, EntryIndex(3, 4), ts):
            if rec.in_t_eq:
                assert rec.in_t_leq
            if rec.in_t_leq:
                assert rec.is_edm


class TestSdpOracle:
    def test_unperturbed_unit(self, triangle):
        assert_allclose(sdp_min_radius_sq(triangle, EntryIndex(1, 2), 0.0), 1.0,
                        atol=1e-8)

    def test_triangle_interior_value(self, triangle):
        # Independent bisection against the hand value 6/8 at t = 1.
        assert_allclose(sdp_min_radius_sq(triangle, EntryIndex(1, 2), 1.0), 0.75,
                        atol=1e-8)

    def test_constant_radius_entry(self, antipodal):
        for t in (-1.0, 0.5, 1.5):
            assert_allclose(sdp_min_radius_sq(antipodal, EntryIndex(3, 4), t), 1.0,
                            atol=1e-8)

    def test_infeasible_for_nonspherical(self):
        d = gen_nonspherical(5, 3, seed=4)
        with pytest.raises(Infeasible):
            sdp_min_radius_sq(d, EntryIndex(1, 2), 0.0)

    def test_matches_closed_form_on_generated(self):
        d = gen_unit_spherical(InstanceSpec(n=4, r=3, seed=77))
        entry = EntryIndex(1, 2)
        report = classify(profile(d), entry)
        for t in report.t_leq.interior_samples(10):
            t = float(t)
            assert abs(sdp_min_radius_sq(d, entry, t) - radius_squared(report, t)) <= 1e-7


class TestBoundaryLocation:
    def test_endpoints_match_closed_form(self, triangle):
        prof = profile(triangle)
        for k, l in [(1, 2), (1, 3)]:
            entry = EntryIndex(k, l)
            iv = classify(prof, entry).t_leq
            mid = 0.5 * (iv.lo + iv.hi)
            hi_found = locate_t_leq_boundary(triangle, entry, mid, iv.hi + 0.5)
            lo_found = locate_t_leq_boundary(triangle, entry, mid, iv.lo - 0.5)
            assert abs(hi_found - iv.hi) <= 1e-6
            assert abs(lo_found - iv.lo) <= 1e-6

    def test_oracle_membership_signs(self, triangle):
        entry = EntryIndex(1, 2)
        assert in_t_leq_oracle(triangle, entry, 1.0)
        assert not in_t_leq_oracle(triangle, entry, 3.2)
        assert not in_t_leq_oracle(triangle, entry, -0.2)
