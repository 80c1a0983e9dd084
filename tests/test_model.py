"""Tests for EDM recognition, profiles and the pseudoinverse identities."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from edmp import (
    DistanceMatrix,
    EntryIndex,
    InstanceSpec,
    NotAnEdm,
    NotUnitSpherical,
    ParallelKind,
    Structure,
    bdag_identity,
    bprime_dag_identity,
    classify,
    cm_dag_block,
    gen_unit_spherical,
    profile,
)
from edmp.linalg import fix_column_signs, pinv, sym_eig
from edmp.model import centroid_gram, is_edm_array
from edmp.oracle import edm_from_points
from edmp.verify import default_templates

from conftest import SQUARE, gen_nonspherical


class TestDistanceMatrix:
    def test_symmetrizes_and_freezes(self):
        d = DistanceMatrix(np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0.0]]))
        assert d.n == 3
        with pytest.raises(ValueError):
            d.d[0, 1] = 5.0

    def test_rejects_small_order(self):
        with pytest.raises(ValueError):
            DistanceMatrix(np.zeros((2, 2)))

    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(ValueError):
            DistanceMatrix(np.array([[1.0, 1, 1], [1, 0, 1], [1, 1, 0]]))

    def test_rejects_negative_entries(self):
        bad = np.array([[0, -1.0, 1], [-1.0, 0, 1], [1, 1, 0]])
        with pytest.raises(ValueError):
            DistanceMatrix(bad)

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            DistanceMatrix(np.zeros((3, 4)))

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match=r"symmetric: entry \(1,3\) is 4.0 but \(3,1\) is 0.0"):
            DistanceMatrix(np.triu(SQUARE))

    def test_round_off_asymmetry_is_symmetrized(self):
        a = SQUARE.copy()
        a[0, 1] += 1e-15
        d = DistanceMatrix(a).d
        assert np.array_equal(d, d.T)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite(self, bad):
        a = np.array([[0, 1.0, 1], [1, 0, 1], [1, 1, 0]])
        a[1, 2] = a[2, 1] = bad
        with pytest.raises(ValueError, match=rf"finite, got {bad} at entry \(2,3\)"):
            DistanceMatrix(a)


class TestIsEdm:
    def test_zero_matrix(self):
        assert is_edm_array(DistanceMatrix(np.zeros((3, 3))).d)

    def test_triangle(self, triangle):
        assert is_edm_array(triangle.d)

    def test_violated_triangle_inequality(self):
        # Side lengths 1, 1, 3 cannot close a triangle: sqrt(1)+sqrt(1) < sqrt(9).
        d = np.array([[0, 1, 9], [1, 0, 1], [9, 1, 0.0]])
        assert np.sqrt(d[0, 1]) + np.sqrt(d[1, 2]) < np.sqrt(d[0, 2])
        assert not is_edm_array(DistanceMatrix(d).d)

    def test_array_variant_rejects_negative(self):
        a = np.array([[0, 1.0, -0.5], [1.0, 0, 1], [-0.5, 1, 0]])
        assert not is_edm_array(a)


class TestProfile:
    def test_triangle(self, triangle_profile):
        p = triangle_profile
        assert p.r == 2
        assert p.unit_spherical and p.spherical
        assert_allclose(p.w, [0.5, -0.5, 0.5], atol=1e-12)
        assert p.Z is None
        assert p.Z_tilde.shape == (3, 1)

    def test_square_regular(self, square_profile):
        p = square_profile
        assert p.r == 2
        assert p.regular
        assert_allclose(p.w, np.full(4, 0.125), atol=1e-12)
        assert_allclose(p.radius, 1.0, atol=1e-12)
        # Regularity pins w to e / (2 n rho^2).
        assert_allclose(p.w, np.ones(4) / (2 * 4 * p.radius**2), atol=1e-9)

    def test_antipodal(self, antipodal_profile):
        p = antipodal_profile
        assert p.r == 3
        assert not p.regular
        assert_allclose(p.w, [0.25, 0.25, 0.0, 0.0], atol=1e-12)

    def test_profile_invariants(self, square_profile, square):
        p = square_profile
        e = np.ones(4)
        assert np.linalg.norm(p.B @ e) <= 1e-12
        assert np.linalg.norm(p.P.T @ e) <= 1e-12
        assert np.linalg.norm(p.P @ p.P.T - p.B) <= 1e-10
        assert np.linalg.norm(square.d @ p.w - e) <= 1e-12
        # The Gale basis spans null(D) for a spherical EDM.
        assert np.linalg.norm(square.d @ p.Z) <= 1e-10
        assert p.Z.shape == (4, 1)

    def test_five_unit_points_in_r4(self):
        # Unit-norm points affinely spanning R^4 are circumscribed by the
        # unit sphere centered at the origin.
        rng = np.random.default_rng(23)
        pts = rng.normal(size=(5, 4))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        p = profile(edm_from_points(pts))
        assert p.r == 4
        assert_allclose(2.0 * p.w.sum(), 1.0, atol=1e-10)
        assert_allclose(p.radius, 1.0, atol=1e-10)

    def test_center_matches_radius_formula(self, triangle_profile, triangle):
        # rho^2 = |a|^2 + e.D.e / (2 n^2) with a the circumcenter.
        p = triangle_profile
        e = np.ones(3)
        rho_sq = p.center @ p.center + float(e @ triangle.d @ e) / (2 * 9)
        assert_allclose(rho_sq, p.radius**2, atol=1e-10)

    def test_not_an_edm_raises(self):
        with pytest.raises(NotAnEdm):
            profile(DistanceMatrix(np.array([[0, 1, 9], [1, 0, 1], [9, 1, 0.0]])))

    def test_permutation_invariance(self, antipodal):
        base = profile(antipodal)
        perm = np.random.default_rng(3).permutation(4)
        shuffled = DistanceMatrix(antipodal.d[np.ix_(perm, perm)])
        other = profile(shuffled)
        assert other.r == base.r
        assert_allclose(other.radius, base.radius, atol=1e-12)

    def test_nonspherical_rank(self):
        d = gen_nonspherical(4, 2, seed=8)
        p = profile(d)
        assert not p.spherical
        assert p.radius is None
        assert abs(p.w.sum()) <= 1e-9
        assert sym_eig(d.d).rank() == p.r + 2 == 4


def _gale_templates(structure=None):
    """Verify-template instances (seed 0) that have a Gale basis, r <= n-2."""
    return [
        gen_unit_spherical(t.spec)
        for t in default_templates(8)
        if t.spec.r <= t.spec.n - 2 and structure in (None, t.spec.structure)
    ]


class TestGaleBasis:
    def test_templates_have_orthonormal_gale_basis(self):
        instances = _gale_templates()
        assert len(instances) == 12
        for d in instances:
            p = profile(d)
            z = p.Z
            assert z.shape == (p.n, p.n - p.r - 1)
            assert_allclose(z.T @ z, np.eye(z.shape[1]), atol=1e-12)
            assert np.abs(np.ones(p.n) @ z).max() <= 1e-12
            assert np.linalg.norm(p.B @ z) <= 1e-10 * np.linalg.norm(p.B)
            # Column signs are fixed, and a second profile gives the same basis.
            assert np.array_equal(fix_column_signs(z), z)
            assert np.array_equal(profile(d).Z, z)

    def test_square_gale_column(self, square_profile):
        assert_allclose(square_profile.Z[:, 0], [0.5, -0.5, 0.5, -0.5], rtol=0, atol=1e-15)


def _gale_projector_reference(d, r):
    """Projector onto null(B) and e-perp, from a 60-digit eigendecomposition of B."""
    mp = pytest.importorskip("mpmath")
    n = d.shape[0]
    with mp.workdps(60):
        j = mp.eye(n) - mp.ones(n, n) / n
        b = -(j * mp.matrix(d.tolist()) * j) / 2
        _, vecs = mp.eigsy(b)  # ascending: the first n-r columns span null(B)
        v = vecs[:, : n - r]
        proj = v * v.T - mp.ones(n, n) / n
        return np.array(proj.tolist(), dtype=float)


class TestGaleAccuracy:
    """The float Gale basis against a 60-digit reference of the same matrix."""

    def test_direction_and_parallelism_scalar(self, square):
        instances = [square] + _gale_templates(Structure.PARALLEL_GALE_PAIR)
        assert len(instances) == 4
        scalars = 0
        for d in instances:
            p = profile(d)
            ref = _gale_projector_reference(d.d, p.r)
            assert np.linalg.norm(p.Z @ p.Z.T - ref, 2) <= 1e-13
            for k in range(1, p.n + 1):
                for l in range(k + 1, p.n + 1):
                    rel = classify(p, EntryIndex(k, l)).yielding_report.gale_relation
                    if rel.kind is not ParallelKind.SCALAR:
                        continue
                    c_ref = ref[k - 1, l - 1] / ref[l - 1, l - 1]
                    assert abs(rel.c - c_ref) <= 1e-12 * abs(c_ref)
                    scalars += 1
        # One Gale column in each: every pair of rows is parallel, 6+6+10+15 pairs.
        assert scalars == 37


class TestGram:
    """The centroid Gram matrix B = -JDJ/2 and the w-origin one B' = E - D/2."""

    def test_centroid_zero(self):
        assert_allclose(centroid_gram(np.zeros((3, 3))), np.zeros((3, 3)))

    def test_antipodal_centroid_matches_hand_value(self, antipodal):
        expected = np.array(
            [[9, -7, -1, -1], [-7, 9, -1, -1], [-1, -1, 5, -3], [-1, -1, -3, 5]]
        ) / 8.0
        assert_allclose(centroid_gram(antipodal.d), expected, atol=1e-12)

    def test_wvector_mode(self, antipodal, antipodal_profile):
        # B' and its pseudoinverse both annihilate w.
        b_prime = np.ones((4, 4)) - 0.5 * antipodal.d
        w = pinv(antipodal.d) @ np.ones(4)
        assert np.linalg.norm(b_prime @ w) <= 1e-12
        assert np.linalg.norm(bprime_dag_identity(antipodal_profile) @ w) <= 1e-12

    def test_wvector_requires_unit_spherical(self, triangle):
        scaled = DistanceMatrix(4.0 * triangle.d)
        with pytest.raises(NotUnitSpherical):
            bprime_dag_identity(profile(scaled))

    def test_both_modes_have_rank_r(self):
        for seed in (1, 2):
            d = gen_unit_spherical(InstanceSpec(n=5, r=3, seed=seed))
            p = profile(d)
            assert sym_eig(centroid_gram(d.d)).rank() == p.r
            assert sym_eig(np.ones((5, 5)) - 0.5 * d.d).rank() == p.r
            assert sym_eig(bprime_dag_identity(p)).rank() == p.r


class TestPinvIdentities:
    def test_square_bdag_is_quarter_gram(self, square, square_profile):
        assert_allclose(bdag_identity(square_profile), square_profile.B / 4.0, atol=1e-10)

    def test_antipodal_bdag(self, antipodal_profile):
        expected = np.array(
            [[3, 1, -2, -2], [1, 3, -2, -2], [-2, -2, 4, 0], [-2, -2, 0, 4]]
        ) / 4.0
        assert_allclose(bdag_identity(antipodal_profile), expected, atol=1e-10)

    def test_bdag_matches_direct_pinv(self):
        d = gen_unit_spherical(InstanceSpec(n=6, r=4, seed=12))
        direct = pinv(centroid_gram(d.d))
        assert np.linalg.norm(bdag_identity(profile(d)) - direct) <= 1e-8 * np.linalg.norm(direct)

    def test_bprime_matches_direct_pinv(self, antipodal, antipodal_profile):
        direct = pinv(np.ones((4, 4)) - 0.5 * antipodal.d)
        assert np.linalg.norm(bprime_dag_identity(antipodal_profile) - direct) <= 1e-8

    def test_zero_w_entries_make_gram_pinvs_agree(self, antipodal, antipodal_profile):
        # Where w vanishes, the two Gram pseudoinverses share their entries
        # and both equal -2 pinv(D) there.
        b_dag = bdag_identity(antipodal_profile)
        bp_dag = bprime_dag_identity(antipodal_profile)
        d_dag = pinv(antipodal.d)
        for i, j in [(2, 2), (3, 3), (2, 3)]:
            assert_allclose(b_dag[i, j], bp_dag[i, j], atol=1e-10)
            assert_allclose(b_dag[i, j], -2.0 * d_dag[i, j], atol=1e-10)

    def test_proportional_w_quadratic_forms_agree(self, square, square_profile):
        # x = e^k - c e^l with w_k = c w_l: the quadratic forms of both
        # Gram pseudoinverses coincide with -2 x.pinv(D).x.
        b_dag = bdag_identity(square_profile)
        bp_dag = bprime_dag_identity(square_profile)
        d_dag = pinv(square.d)
        x = np.zeros(4)
        x[0], x[2] = 1.0, -1.0  # c = 1 for the square's diagonal pair
        assert_allclose(x @ b_dag @ x, x @ bp_dag @ x, atol=1e-10)
        assert_allclose(x @ b_dag @ x, -2.0 * x @ d_dag @ x, atol=1e-10)

    def test_bordered_block_structure(self, square_profile):
        block = cm_dag_block(square_profile)
        assert_allclose(block[0, 0], -2.0)
        assert_allclose(block[0, 1:], 2.0 * square_profile.w, atol=1e-12)
        assert_allclose(block[0, 1:], np.full(4, 0.25), atol=1e-12)

    def test_bordered_block_matches_direct_pinv(self):
        d = gen_unit_spherical(InstanceSpec(n=5, r=3, seed=21))
        bordered = np.ones((6, 6))
        bordered[0, 0] = 0.0
        bordered[1:, 1:] = d.d
        direct = pinv(bordered)
        assert np.linalg.norm(cm_dag_block(profile(d)) - direct) <= 1e-8 * np.linalg.norm(direct)

    def test_identities_require_unit_spherical(self, triangle):
        scaled = profile(DistanceMatrix(0.25 * triangle.d))
        for op in (bdag_identity, bprime_dag_identity, cm_dag_block):
            with pytest.raises(NotUnitSpherical):
                op(scaled)
