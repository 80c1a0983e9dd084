"""Tests for the bordered-matrix pathway.

The bordered matrix is profiled like any other EDM: its w, pseudoinverse,
centroid Gram and rank come from profile(DistanceMatrix(bordered(d))).
"""

from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from edmp import (
    DistanceMatrix,
    EntryIndex,
    InstanceSpec,
    NotAnEdm,
    PoleAt,
    PreconditionViolated,
    classify,
    cm_w_inner,
    gen_unit_spherical,
    profile,
    radius_squared,
    yielding_report,
)
from edmp.cayley import bordered
from edmp.linalg import sym_eig
from edmp.model import centroid_gram, is_edm_array
from edmp.verify import check_bordered, default_templates

from conftest import gen_nonspherical, perturbed_array


def rho12(t):
    return (3.0 + 3.0 * t) / (3.0 + 6.0 * t - t * t)


def border_profile(d):
    return profile(DistanceMatrix(bordered(d)))


def border_radius_sq(d):
    """Squared source radius through the border: 1 - e~.w~ / 2."""
    return 1.0 - 0.5 * float(border_profile(d).w.sum())


def null_basis(d):
    """Orthonormal basis of null([B~; e~^T]) for the bordered matrix of d, by SVD."""
    stack = np.vstack([centroid_gram(bordered(d)), np.ones((1, d.n + 1))])
    _, sing, vt = np.linalg.svd(stack)
    return vt[np.count_nonzero(sing > 1e-10 * sing[0]):].T


def result(results, name):
    return next(res for res in results if res.name == name)


class TestBuild:
    def test_zero_source_shape(self):
        d_tilde = bordered(DistanceMatrix(np.zeros((3, 3))))
        assert d_tilde.shape == (4, 4)
        assert d_tilde[0, 0] == 0.0
        assert_allclose(d_tilde[0, 1:], 1.0)
        assert_allclose(d_tilde[1:, 0], 1.0)

    def test_triangle_w_tilde(self, triangle):
        assert_allclose(border_profile(triangle).w, [-1.0, 1.0, -1.0, 1.0], atol=1e-10)

    def test_unit_source_balance(self):
        d = gen_unit_spherical(InstanceSpec(n=6, r=3, seed=2))
        w_tilde = border_profile(d).w
        assert abs(w_tilde.sum()) <= 1e-9
        prof = profile(d)
        assert_allclose(w_tilde, np.concatenate([[-1.0], 2.0 * prof.w]), atol=1e-9)


class TestIsEdmAndRadius:
    def test_unit_source_is_edm(self, square):
        assert is_edm_array(bordered(square))

    def test_double_radius_is_not(self, triangle):
        assert not is_edm_array(bordered(DistanceMatrix(4.0 * triangle.d)))

    def test_nonspherical_source_is_not(self):
        d = gen_nonspherical(5, 3, seed=4)
        assert not is_edm_array(bordered(d))

    def test_agreement_with_radius_condition(self, triangle):
        # Bordered EDM-ness tracks (spherical and radius <= 1) across scalings.
        for sigma_sq in (0.25, 0.5, 1.0, 1.5, 4.0):
            scaled = DistanceMatrix(sigma_sq * triangle.d)
            prof = profile(scaled)
            expected = prof.spherical and prof.radius <= 1.0 + 1e-12
            assert is_edm_array(bordered(scaled)) == expected
            # Both equivalent to 2E - D >= 0.
            vals = np.linalg.eigvalsh(2.0 * np.ones((3, 3)) - scaled.d)
            assert (vals[0] >= -1e-9) == expected

    def test_radius_of_unit_source(self, square):
        assert_allclose(border_radius_sq(square), 1.0, atol=1e-10)

    def test_radius_of_scaled_source(self, triangle):
        scaled = DistanceMatrix(0.25 * triangle.d)
        assert_allclose(border_radius_sq(scaled), 0.25, atol=1e-10)
        w = sym_eig(scaled.d).pinv() @ np.ones(3)
        assert_allclose(border_radius_sq(scaled), 1.0 / (2.0 * w.sum()), atol=1e-10)

    def test_radius_of_perturbed_triangle(self, triangle):
        pert = DistanceMatrix(perturbed_array(triangle, 0, 2, -3.0))
        assert_allclose(border_radius_sq(pert), 0.25, atol=1e-10)

    def test_radius_requires_edm(self, triangle):
        with pytest.raises(NotAnEdm):
            border_profile(DistanceMatrix(4.0 * triangle.d))


class TestEmbeddingDim:
    def test_goldens(self, triangle, square):
        assert border_profile(triangle).r == 2
        assert border_profile(square).r == 2

    def test_generated(self):
        d = gen_unit_spherical(InstanceSpec(n=5, r=4, seed=6))
        assert border_profile(d).r == 4

    def test_rank_is_r_plus_two(self, triangle):
        assert sym_eig(bordered(triangle)).rank() == 2 + 2


class TestGale:
    def test_triangle_single_column(self, triangle, triangle_profile):
        # The bordered Gale matrix is the one column (-1/2, w).
        results = check_bordered(triangle_profile, border_profile(triangle))
        assert result(results, "bordered-gale").ok
        basis = null_basis(triangle)
        assert basis.shape == (4, 1)
        column = basis[:, 0] * (-0.5 / basis[0, 0])
        assert_allclose(column, [-0.5, 0.5, -0.5, 0.5], atol=1e-10)

    def test_square_block_structure(self, square, square_profile):
        # The bordered Gale matrix is [[-1/2, 0], [w, Z]].
        results = check_bordered(square_profile, border_profile(square))
        assert result(results, "bordered-gale").ok
        basis = null_basis(square)
        assert basis.shape == (5, 2)
        for column in (np.concatenate([[-0.5], square_profile.w]),
                       np.concatenate([[0.0], square_profile.Z[:, 0]])):
            assert np.linalg.norm(column - basis @ (basis.T @ column)) <= 1e-10

    def test_spans_bordered_null_space(self, square, square_profile):
        border = border_profile(square)
        assert result(check_bordered(square_profile, border), "bordered-gale").ok
        gale = np.zeros((5, 2))
        gale[0, 0] = -0.5
        gale[1:] = square_profile.Z_tilde
        reference = null_basis(square)
        # Subspace angle: projecting onto the reference basis loses nothing.
        q, _ = np.linalg.qr(gale)
        residual = q - reference @ (reference.T @ q)
        assert np.linalg.norm(residual) <= 1e-8

    def test_border_of_another_instance_fails(self, square, square_profile):
        assert all(res.ok for res in check_bordered(square_profile, border_profile(square)))
        # A unit spherical border of the same order and rank, but of another
        # source: the checks that tie the border to the source fail.
        other = gen_unit_spherical(InstanceSpec(n=4, r=2, seed=1))
        results = check_bordered(square_profile, border_profile(other))
        failed = {res.name for res in results if not res.ok}
        assert {"bordered-w", "bordered-gale"} <= failed
        assert {"bordered-balance", "bordered-radius", "bordered-dim",
                "bordered-rank"}.isdisjoint(failed)


class TestWInner:
    def test_zero_at_origin(self, triangle_profile, antipodal_profile):
        for prof in (triangle_profile, antipodal_profile):
            assert cm_w_inner(classify(prof, EntryIndex(1, 2)), 0.0) == pytest.approx(0.0)

    def test_triangle_short_side_matches_radius(self, triangle_profile):
        report = classify(triangle_profile, EntryIndex(1, 2))
        ts = (0.0, 0.5, 1.0, 2.0, 3.0)
        for t in ts:
            val = 1.0 - 0.5 * cm_w_inner(report, t)
            assert_allclose(val, rho12(t), atol=1e-12)
        # An array of t answers bit for bit each float t, with NaN at a pole
        # (theta_lower = 3 - 2 sqrt(3) and theta_upper = 3 + 2 sqrt(3) here).
        poles = [report.yielding_report.theta_lower, report.yielding_report.theta_upper]
        out = cm_w_inner(report, np.array([*ts, *poles]))
        assert out[:5].tolist() == [cm_w_inner(report, t) for t in ts]
        assert np.isnan(out[5:]).all()

    def test_zero_at_theta_c_in_pair_case(self, triangle_profile):
        report = classify(triangle_profile, EntryIndex(1, 2))
        assert cm_w_inner(report, 3.0) == pytest.approx(0.0, abs=1e-10)

    def test_matches_direct_bordered_solve(self, triangle):
        report = classify(profile(triangle), EntryIndex(1, 3))
        for t in (-2.0, -1.0, -0.3):
            closed = cm_w_inner(report, t)
            pert = DistanceMatrix(perturbed_array(triangle, 0, 2, t))
            direct = float(border_profile(pert).w.sum())
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
        for t in report.t_leq.interior_samples(20):
            t = float(t)
            via_border = 1.0 - 0.5 * cm_w_inner(report, t)
            assert_allclose(via_border, radius_squared(report, t), rtol=1e-10)

    def test_unit_source_iff_bordered_nonspherical(self):
        # Unit spherical source: bordered matrix nonspherical; shrunken
        # source: bordered matrix spherical.
        d = gen_unit_spherical(InstanceSpec(n=5, r=3, seed=13))
        e_t = np.ones(6)
        assert abs(e_t @ sym_eig(bordered(d)).pinv() @ e_t) <= 1e-9
        assert sym_eig(bordered(d)).rank() == 3 + 2
        shrunk = DistanceMatrix(0.5 * d.d)
        assert e_t @ sym_eig(bordered(shrunk)).pinv() @ e_t > 1e-3

    @pytest.mark.parametrize("template", default_templates(8),
                             ids=lambda t: f"{t.expected.value}-n{t.spec.n}-r{t.spec.r}")
    def test_tleq_is_bordered_yielding_interval(self, template):
        # Rows k+1 and l+1 of the bordered Gale matrix are the rows k and l
        # of [w Z], so the paper's Cayley-Menger derivation gives T<= as the
        # yielding interval of (k+1, l+1) in the bordered matrix.
        entry = template.spec.entry
        shifted = EntryIndex(entry.k + 1, entry.l + 1)
        tags = set()
        for seed in range(10):
            d = gen_unit_spherical(replace(template.spec, seed=seed))
            report = classify(profile(d), entry)
            tags.add(report.case_tag)
            border = yielding_report(profile(DistanceMatrix(bordered(d))), shifted)
            scale = max(abs(end) for end in (*report.t_leq, *border.interval))
            for got, want in zip(border.interval, report.t_leq):
                assert abs(got - want) <= 1e-10 * scale
        assert tags == {template.expected}
