"""Tests for yielding decisions and interval endpoints."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from edmp import (
    DegenerateDenominator,
    DistanceMatrix,
    EntryIndex,
    InstanceSpec,
    Structure,
    gen_unit_spherical,
    parallel_relation,
    profile,
    theta_bounds,
    theta_c,
    yielding_report,
)
from edmp.model import is_edm_array
from edmp.yielding import PARALLEL, Interval, ParallelKind

from conftest import perturbed_array

SQRT3 = np.sqrt(3.0)


class TestEntryIndex:
    def test_normalizes_order(self):
        e = EntryIndex(3, 1)
        assert (e.k, e.l) == (1, 3)
        assert (e.i, e.j) == (0, 2)

    def test_rejects_diagonal(self):
        with pytest.raises(ValueError):
            EntryIndex(2, 2)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            EntryIndex(0, 2)

    def test_order_check(self):
        with pytest.raises(ValueError):
            EntryIndex(1, 5).check_order(4)


def norm_scale(u, v) -> float:
    """The larger norm of u and v, with floor 1."""
    return max(float(np.linalg.norm(u)), float(np.linalg.norm(v)), 1.0)


class TestParallelRelation:
    def test_both_zero(self):
        u, v = [0.0, 0.0], [0.0, 0.0]
        rel = parallel_relation(u, v, scale=norm_scale(u, v))
        assert rel.kind is ParallelKind.BOTH_ZERO
        assert rel.ratio == 0.0

    def test_orthogonal(self):
        u, v = [1.0, 0.0], [0.0, 1.0]
        rel = parallel_relation(u, v, scale=norm_scale(u, v))
        assert rel.kind is ParallelKind.NOT_PARALLEL
        assert rel.ratio == 1.0

    def test_not_parallel_keeps_measured_ratio(self):
        u, v = np.array([1.0, 0.0, 0.5]), np.array([1.0, 0.01, 0.5])
        sing = np.linalg.svd(np.column_stack([u, v]), compute_uv=False)
        rel = parallel_relation(u, v, scale=norm_scale(u, v))
        assert rel.kind is ParallelKind.NOT_PARALLEL
        assert rel.ratio == sing[1] / sing[0]
        assert PARALLEL.threshold < rel.ratio < 1e-2

    def test_one_sided_zero_keeps_measured_ratio(self):
        # u is zero against the scale but not exactly zero, so the stack
        # [u v] still has a measurable second singular value.
        u, v = np.array([1e-12, 0.0]), np.array([0.0, 1.0])
        rel = parallel_relation(u, v, scale=1.0)
        assert rel.kind is ParallelKind.NOT_PARALLEL
        assert_allclose(rel.ratio, 1e-12, rtol=1e-12)

    def test_scalar_from_square_gale_rows(self, square_profile):
        z = square_profile.Z
        rel = parallel_relation(z[0], z[1], scale=norm_scale(z[0], z[1]))
        assert rel.kind is ParallelKind.SCALAR
        assert_allclose(rel.c, -1.0, atol=1e-12)

    def test_one_sided_zero_is_not_parallel(self):
        u, v = [0.0, 0.0], [1.0, 2.0]
        rel = parallel_relation(u, v, scale=norm_scale(u, v))
        assert rel.kind is ParallelKind.NOT_PARALLEL
        rel = parallel_relation(v, u, scale=norm_scale(v, u))
        assert rel.kind is ParallelKind.NOT_PARALLEL

    def test_reciprocal_consistency(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            v = rng.normal(size=4)
            c = rng.uniform(0.1, 3.0) * rng.choice([-1.0, 1.0])
            fwd = parallel_relation(c * v, v, scale=norm_scale(c * v, v))
            bwd = parallel_relation(v, c * v, scale=norm_scale(v, c * v))
            assert fwd.kind is ParallelKind.SCALAR
            assert bwd.kind is ParallelKind.SCALAR
            assert fwd.ratio <= PARALLEL.threshold and bwd.ratio <= PARALLEL.threshold
            assert_allclose(fwd.c * bwd.c, 1.0, atol=1e-10)

    def test_scalar_length_one_vectors(self):
        u, v = [0.5], [-0.25]
        rel = parallel_relation(u, v, scale=norm_scale(u, v))
        assert rel.kind is ParallelKind.SCALAR
        assert_allclose(rel.c, -2.0)
        assert rel.ratio == 0.0


class TestThetaBounds:
    def test_antipodal_pair_34(self, antipodal_profile):
        assert_allclose(theta_bounds(antipodal_profile, EntryIndex(3, 4)), (-2.0, 2.0),
                        atol=1e-12)

    def test_antipodal_pair_12(self, antipodal_profile):
        assert_allclose(theta_bounds(antipodal_profile, EntryIndex(1, 2)), (-4.0, 2.0),
                        atol=1e-12)

    def test_triangle_pair_12(self, triangle_profile):
        lo, hi = theta_bounds(triangle_profile, EntryIndex(1, 2))
        assert_allclose((lo, hi), (3 - 2 * SQRT3, 3 + 2 * SQRT3), atol=1e-12)

    def test_antiparallel_rows_degenerate(self, square_profile):
        # Opposite square vertices: s^1 = -s^3, the upper denominator vanishes.
        with pytest.raises(DegenerateDenominator):
            theta_bounds(square_profile, EntryIndex(1, 3))


class TestThetaC:
    def test_square_adjacent(self, square_profile):
        assert_allclose(theta_c(square_profile, EntryIndex(1, 2), -1.0), 8.0,
                        atol=1e-12)

    def test_square_diagonal(self, square_profile):
        assert_allclose(theta_c(square_profile, EntryIndex(1, 3), 1.0), -4.0,
                        atol=1e-12)

    def test_triangle(self, triangle_profile):
        assert_allclose(theta_c(triangle_profile, EntryIndex(1, 2), -1.0), 3.0,
                        atol=1e-12)

    def test_zero_c_rejected(self, square_profile):
        with pytest.raises(ValueError):
            theta_c(square_profile, EntryIndex(1, 2), 0.0)


class TestYieldingReport:
    def test_square_adjacent(self, square_profile):
        rep = yielding_report(square_profile, EntryIndex(1, 2))
        assert rep.yielding
        assert rep.gale_relation.kind is ParallelKind.SCALAR
        assert_allclose(rep.gale_relation.c, -1.0, atol=1e-10)
        assert_allclose(tuple(rep.interval), (0.0, 8.0), atol=1e-10)

    def test_triangle_full_dimension_uses_theta_bounds(self, triangle_profile):
        rep = yielding_report(triangle_profile, EntryIndex(1, 3))
        assert rep.yielding
        # r = n-1: parallel by convention, interval [theta_lower, theta_upper].
        assert rep.gale_relation.kind is ParallelKind.BOTH_ZERO
        assert_allclose(tuple(rep.interval), (-3.0, 1.0), atol=1e-10)

    def test_unyielding_generic_five_points(self):
        d = gen_unit_spherical(InstanceSpec(n=5, r=2, entry=EntryIndex(1, 2), seed=31))
        prof = profile(d)
        rep = yielding_report(prof, EntryIndex(1, 2))
        assert not rep.yielding
        assert tuple(rep.interval) == (0.0, 0.0)
        # Independent confirmation: every sampled nonzero step leaves the cone.
        for t in (-0.5, -0.05, 0.05, 0.5):
            assert not is_edm_array(perturbed_array(d, 0, 1, t))

    def test_endpoints_are_sharp(self):
        for seed in (1, 5, 9):
            d = gen_unit_spherical(
                InstanceSpec(4, 2, Structure.PARALLEL_GALE_PAIR, EntryIndex(1, 3), seed)
            )
            prof = profile(d)
            rep = yielding_report(prof, EntryIndex(1, 3))
            lo, hi = rep.interval
            delta = 1e-4 * (hi - lo + 1.0)
            assert is_edm_array(perturbed_array(d, 0, 2, lo))
            assert is_edm_array(perturbed_array(d, 0, 2, hi))
            assert not is_edm_array(perturbed_array(d, 0, 2, lo - delta))
            assert not is_edm_array(perturbed_array(d, 0, 2, hi + delta))

    def test_scale_covariance(self, antipodal, antipodal_profile):
        # Replacing D by s^2 D scales every interval endpoint by s^2.
        sigma_sq = 2.7
        scaled_prof = profile(DistanceMatrix(sigma_sq * antipodal.d))
        for k, l in [(1, 2), (3, 4), (1, 3)]:
            base = yielding_report(antipodal_profile, EntryIndex(k, l))
            scaled = yielding_report(scaled_prof, EntryIndex(k, l))
            assert_allclose(tuple(scaled.interval),
                            tuple(sigma_sq * np.array(base.interval)), atol=1e-9)

    def test_interval_brackets_zero(self):
        for seed in range(4):
            d = gen_unit_spherical(InstanceSpec(n=4, r=3, seed=seed))
            prof = profile(d)
            for k in range(1, 4):
                for l in range(k + 1, 5):
                    rep = yielding_report(prof, EntryIndex(k, l))
                    assert rep.interval.lo <= 0.0 <= rep.interval.hi
                    assert rep.yielding == (rep.interval.lo != rep.interval.hi)
                    if rep.theta_lower is not None:
                        assert rep.theta_lower < 0.0 < rep.theta_upper


class TestInterval:
    def test_contains_and_samples(self):
        iv = Interval(-2.0, 2.0)
        inner = iv.interior_samples(8)
        assert len(inner) == 8
        assert inner.min() > -2.0 and inner.max() < 2.0
