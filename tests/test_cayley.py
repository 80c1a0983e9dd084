"""Tests for the bordered-matrix pathway."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from edmp import (
    DistanceMatrix,
    EntryIndex,
    InstanceSpec,
    NotAnEdm,
    NotUnitSpherical,
    PoleAt,
    PreconditionViolated,
    cm_build,
    cm_embedding_dim,
    cm_gale,
    cm_is_edm,
    cm_radius_sq,
    classify,
    cm_w_inner,
    gen_nonspherical,
    gen_unit_spherical,
    profile,
    radius_squared,
)
from edmp.linalg import nullspace_basis, pinv, rank_of
from edmp.model import centroid_gram


def rho12(t):
    return (3.0 + 3.0 * t) / (3.0 + 6.0 * t - t * t)


class TestBuild:
    def test_zero_source_shape(self):
        view = cm_build(DistanceMatrix(np.zeros((3, 3))))
        assert view.d_tilde.shape == (4, 4)
        assert view.d_tilde[0, 0] == 0.0
        assert_allclose(view.d_tilde[0, 1:], 1.0)
        assert_allclose(view.d_tilde[1:, 0], 1.0)

    def test_triangle_w_tilde(self, triangle):
        view = cm_build(triangle)
        assert_allclose(view.w_tilde, [-1.0, 1.0, -1.0, 1.0], atol=1e-10)

    def test_unit_source_balance(self):
        d = gen_unit_spherical(InstanceSpec(n=6, r=3, seed=2))
        view = cm_build(d)
        assert abs(view.w_tilde.sum()) <= 1e-9
        prof = profile(d)
        assert_allclose(view.w_tilde, np.concatenate([[-1.0], 2.0 * prof.w]),
                        atol=1e-9)


class TestIsEdmAndRadius:
    def test_unit_source_is_edm(self, square):
        assert cm_is_edm(cm_build(square))

    def test_double_radius_is_not(self, triangle):
        assert not cm_is_edm(cm_build(DistanceMatrix(4.0 * triangle.d)))

    def test_nonspherical_source_is_not(self):
        d = gen_nonspherical(5, 3, seed=4)
        assert not cm_is_edm(cm_build(d))

    def test_agreement_with_radius_condition(self, triangle):
        # Bordered EDM-ness tracks (spherical and radius <= 1) across scalings.
        for sigma_sq in (0.25, 0.5, 1.0, 1.5, 4.0):
            scaled = DistanceMatrix(sigma_sq * triangle.d)
            prof = profile(scaled)
            expected = prof.spherical and prof.radius <= 1.0 + 1e-12
            assert cm_is_edm(cm_build(scaled)) == expected
            # Both equivalent to 2E - D >= 0.
            vals = np.linalg.eigvalsh(2.0 * np.ones((3, 3)) - scaled.d)
            assert (vals[0] >= -1e-9) == expected

    def test_radius_of_unit_source(self, square):
        assert_allclose(cm_radius_sq(cm_build(square)), 1.0, atol=1e-10)

    def test_radius_of_scaled_source(self, triangle):
        scaled = DistanceMatrix(0.25 * triangle.d)
        view = cm_build(scaled)
        assert_allclose(cm_radius_sq(view), 0.25, atol=1e-10)
        w = pinv(scaled.d) @ np.ones(3)
        assert_allclose(cm_radius_sq(view), 1.0 / (2.0 * w.sum()), atol=1e-10)

    def test_radius_of_perturbed_triangle(self, triangle):
        pert = triangle.perturbed(0, 2, -3.0)
        assert_allclose(cm_radius_sq(cm_build(pert)), 0.25, atol=1e-10)

    def test_radius_requires_edm(self, triangle):
        with pytest.raises(NotAnEdm):
            cm_radius_sq(cm_build(DistanceMatrix(4.0 * triangle.d)))


class TestEmbeddingDim:
    def test_goldens(self, triangle, square):
        assert cm_embedding_dim(cm_build(triangle)) == 2
        assert cm_embedding_dim(cm_build(square)) == 2

    def test_generated(self):
        d = gen_unit_spherical(InstanceSpec(n=5, r=4, seed=6))
        assert cm_embedding_dim(cm_build(d)) == 4

    def test_rank_is_r_plus_two(self, triangle):
        view = cm_build(triangle)
        assert rank_of(view.d_tilde) == 2 + 2

    def test_requires_unit_source(self, triangle):
        view = cm_build(DistanceMatrix(4.0 * triangle.d))
        with pytest.raises(NotUnitSpherical):
            cm_embedding_dim(view)


class TestGale:
    def test_triangle_single_column(self, triangle):
        gale = cm_gale(cm_build(triangle))
        assert gale.shape == (4, 1)
        assert_allclose(gale[:, 0], [-0.5, 0.5, -0.5, 0.5], atol=1e-10)

    def test_square_block_structure(self, square, square_profile):
        gale = cm_gale(cm_build(square))
        assert gale.shape == (5, 2)
        assert_allclose(gale[0], [-0.5, 0.0], atol=1e-12)
        assert_allclose(gale[1:, 0], square_profile.w, atol=1e-12)
        assert_allclose(gale[1:, 1], square_profile.Z[:, 0], atol=1e-12)

    def test_spans_bordered_null_space(self, square):
        view = cm_build(square)
        gale = cm_gale(view)
        stack = np.vstack([centroid_gram(view.d_tilde), np.ones((1, 5))])
        reference = nullspace_basis(stack)
        # Subspace angle: projecting onto the reference basis loses nothing.
        q, _ = np.linalg.qr(gale)
        residual = q - reference @ (reference.T @ q)
        assert np.linalg.norm(residual) <= 1e-8

    def test_requires_unit_source(self):
        d = gen_nonspherical(5, 3, seed=4)
        with pytest.raises(NotUnitSpherical):
            cm_gale(cm_build(d))


class TestWInner:
    def test_zero_at_origin(self, triangle_profile, antipodal_profile):
        for prof in (triangle_profile, antipodal_profile):
            assert cm_w_inner(classify(prof, EntryIndex(1, 2)), 0.0) == pytest.approx(0.0)

    def test_triangle_short_side_matches_radius(self, triangle_profile):
        report = classify(triangle_profile, EntryIndex(1, 2))
        for t in (0.0, 0.5, 1.0, 2.0, 3.0):
            val = 1.0 - 0.5 * cm_w_inner(report, t)
            assert_allclose(val, rho12(t), atol=1e-12)

    def test_zero_at_theta_c_in_pair_case(self, triangle_profile):
        report = classify(triangle_profile, EntryIndex(1, 2))
        assert cm_w_inner(report, 3.0) == pytest.approx(0.0, abs=1e-10)

    def test_matches_direct_bordered_solve(self, triangle):
        report = classify(profile(triangle), EntryIndex(1, 3))
        for t in (-2.0, -1.0, -0.3):
            closed = cm_w_inner(report, t)
            direct = float(cm_build(triangle.perturbed(0, 2, t)).w_tilde.sum())
            assert_allclose(closed, direct, atol=1e-9)

    def test_singleton_branch_avoids_cancelled_pole(self, triangle_profile):
        # theta_c = theta_lower = -3 here; the closed form stays finite there.
        val = cm_w_inner(classify(triangle_profile, EntryIndex(1, 3)), -3.0)
        assert np.isfinite(val)
        assert_allclose(1.0 - 0.5 * val, 0.25, atol=1e-10)

    def test_pole_raises(self, triangle_profile):
        with pytest.raises(PoleAt):
            cm_w_inner(classify(triangle_profile, EntryIndex(1, 3)), 1.0)  # theta_upper

    def test_requires_rational_case(self, square_profile):
        with pytest.raises(PreconditionViolated):
            cm_w_inner(classify(square_profile, EntryIndex(1, 3)), -1.0)


class TestCrossPath:
    def test_radius_paths_agree(self):
        d = gen_unit_spherical(InstanceSpec(n=4, r=3, seed=33))
        prof = profile(d)
        report = classify(prof, EntryIndex(1, 2))
        for t in report.t_leq.interval.interior_samples(20):
            t = float(t)
            via_border = 1.0 - 0.5 * cm_w_inner(report, t)
            assert_allclose(via_border, radius_squared(report, t), rtol=1e-10)

    def test_unit_source_iff_bordered_nonspherical(self):
        # Unit spherical source: bordered matrix nonspherical; shrunken
        # source: bordered matrix spherical.
        d = gen_unit_spherical(InstanceSpec(n=5, r=3, seed=13))
        view = cm_build(d)
        e_t = np.ones(6)
        assert abs(e_t @ pinv(view.d_tilde) @ e_t) <= 1e-9
        assert rank_of(view.d_tilde) == 3 + 2
        shrunk = DistanceMatrix(0.5 * d.d)
        view2 = cm_build(shrunk)
        assert e_t @ pinv(view2.d_tilde) @ e_t > 1e-3
