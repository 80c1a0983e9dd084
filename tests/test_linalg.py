"""Tests for the symmetric linear-algebra kernel."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose

from edmp.linalg import (
    DEFAULT_TOL,
    TolerancePolicy,
    fix_column_signs,
    nullspace_basis,
    pinv,
    rank_of,
    sym_eig,
    symmetrize,
)
from conftest import SQUARE, TRIANGLE


def centroid_gram(d):
    n = d.shape[0]
    j = np.eye(n) - np.full((n, n), 1.0 / n)
    return -0.5 * j @ d @ j


def charpoly_roots_3x3(a):
    """Independent spectrum oracle: roots of the characteristic polynomial."""
    tr = np.trace(a)
    minors = sum(
        a[i, i] * a[j, j] - a[i, j] * a[j, i]
        for i in range(3)
        for j in range(i + 1, 3)
    )
    det = np.linalg.det(a)
    roots = np.roots([1.0, -tr, minors, -det])
    return np.sort(roots.real)[::-1]


sym_matrices = st.integers(min_value=2, max_value=6).flatmap(
    lambda n: arrays(
        np.float64,
        (n, n),
        elements=st.floats(min_value=-5, max_value=5, allow_nan=False),
    )
).map(lambda a: 0.5 * (a + a.T))


@st.composite
def conditioned_sym_matrices(draw):
    """Random symmetric matrices with spectra away from the rank cutoff.

    Eigenvalues are either exactly zero or of magnitude in [0.01, 5]; an
    eigenvalue sitting at the cutoff itself makes pseudoinversion
    ill-posed in double precision, which is outside the contract.
    """
    n = draw(st.integers(min_value=2, max_value=6))
    rank = draw(st.integers(min_value=0, max_value=n))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    values = np.zeros(n)
    values[:rank] = rng.choice([-1.0, 1.0], size=rank) * rng.uniform(0.01, 5.0, size=rank)
    return (q * values) @ q.T


class TestSymEig:
    def test_identity(self):
        dec = sym_eig(np.eye(3))
        assert_allclose(dec.values, [1.0, 1.0, 1.0])

    def test_diagonal_sorted_descending(self):
        dec = sym_eig(np.diag([2.0, -1.0]))
        assert_allclose(dec.values, [2.0, -1.0])

    def test_triangle_gram_spectrum_vs_charpoly(self):
        # Rank-2 PSD Gram matrix of a planar configuration: two positive
        # eigenvalues, one zero; cross-checked against an independent
        # characteristic-polynomial root finder.
        b = centroid_gram(TRIANGLE)
        dec = sym_eig(b)
        expected = charpoly_roots_3x3(b)
        assert_allclose(dec.values, expected, atol=1e-10)
        assert dec.values[0] > 0 and dec.values[1] > 0
        assert abs(dec.values[2]) < 1e-12

    @settings(max_examples=40, deadline=None)
    @given(sym_matrices)
    def test_reconstruction_and_orthogonality(self, a):
        dec = sym_eig(a)
        scale = max(np.linalg.norm(a), 1.0)
        assert np.linalg.norm(dec.reconstruct() - a) <= 1e-8 * scale
        n = a.shape[0]
        assert np.linalg.norm(dec.vectors.T @ dec.vectors - np.eye(n)) <= 1e-10 * n


class TestPinv:
    def test_zero_matrix(self):
        assert_allclose(pinv(np.zeros((3, 3))), np.zeros((3, 3)))

    def test_square_edm_w_vector(self):
        # For the square EDM the solution of D w = e is w = e / 8.
        w = pinv(SQUARE) @ np.ones(4)
        assert_allclose(w, np.full(4, 0.125), atol=1e-12)

    def test_rank_deficient_penrose(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(6, 3))
        a = x @ x.T
        a_dag = pinv(a)
        assert np.linalg.norm(a @ a_dag @ a - a) <= 1e-8 * np.linalg.norm(a)

    @settings(max_examples=40, deadline=None)
    @given(conditioned_sym_matrices())
    def test_involution(self, a):
        scale = max(np.linalg.norm(a), 1.0)
        assert np.linalg.norm(pinv(pinv(a)) - a) <= 1e-8 * scale

    @settings(max_examples=40, deadline=None)
    @given(conditioned_sym_matrices())
    def test_penrose_identities(self, a):
        a_dag = pinv(a)
        scale = max(np.linalg.norm(a), 1.0)
        dag_scale = max(np.linalg.norm(a_dag), 1.0)
        assert np.linalg.norm(a @ a_dag @ a - a) <= 1e-8 * scale
        assert np.linalg.norm(a_dag @ a @ a_dag - a_dag) <= 1e-8 * dag_scale
        assert np.linalg.norm((a @ a_dag).T - a @ a_dag) <= 1e-8
        assert np.linalg.norm((a_dag @ a).T - a_dag @ a) <= 1e-8


class TestRank:
    def test_identity(self):
        assert rank_of(np.eye(4)) == 4

    def test_square_gram_rank_two(self):
        assert rank_of(centroid_gram(SQUARE)) == 2

    def test_bordered_rank_r_plus_two(self):
        # Bordering a unit spherical EDM raises the rank from r+1 to r+2.
        n = 4
        bordered = np.ones((n + 1, n + 1))
        bordered[0, 0] = 0.0
        bordered[1:, 1:] = SQUARE
        assert rank_of(SQUARE) == 3
        assert rank_of(bordered) == 4


class TestNullspace:
    def test_ones_row(self):
        basis = nullspace_basis(np.ones((1, 3)))
        assert basis.shape == (3, 2)
        assert_allclose(basis.T @ basis, np.eye(2), atol=1e-12)
        assert_allclose(np.ones(3) @ basis, 0.0, atol=1e-12)

    def test_square_gale_direction(self):
        stack = np.vstack([centroid_gram(SQUARE), np.ones((1, 4))])
        basis = nullspace_basis(stack)
        assert basis.shape == (4, 1)
        direction = basis[:, 0] / basis[0, 0]
        assert_allclose(direction, [1.0, -1.0, 1.0, -1.0], atol=1e-10)

    def test_full_rank_square_empty(self):
        rng = np.random.default_rng(11)
        a = rng.normal(size=(5, 5)) + 5.0 * np.eye(5)
        assert nullspace_basis(a).shape == (5, 0)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 5), st.integers(1, 4), st.integers(0, 2**32 - 1))
    def test_residual_property(self, rows, cols, seed):
        a = np.random.default_rng(seed).normal(size=(rows, cols))
        basis = nullspace_basis(a)
        if basis.size:
            assert np.linalg.norm(a @ basis) <= 1e-10 * max(np.linalg.norm(a), 1.0)
        rank = np.linalg.matrix_rank(a, tol=1e-10)
        assert basis.shape[1] == cols - rank


def is_psd(a):
    return sym_eig(a).is_psd(DEFAULT_TOL.psd_abs_scale)


class TestPsd:
    def test_identity(self):
        assert is_psd(np.eye(2))

    def test_indefinite(self):
        assert not is_psd(np.diag([1.0, -1.0]))

    def test_unit_spherical_bound(self):
        # 2E - D is positive semidefinite exactly for radius <= 1.
        assert is_psd(2.0 * np.ones((4, 4)) - SQUARE)
        assert not is_psd(2.0 * np.ones((4, 4)) - 4.0 * SQUARE)


class TestHelpers:
    def test_symmetrize_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            symmetrize(np.zeros((2, 3)))

    def test_fix_column_signs(self):
        m = np.array([[-1.0, 0.0], [2.0, -3.0]])
        fixed = fix_column_signs(m)
        assert fixed[0, 0] > 0 and fixed[1, 1] > 0

    def test_tolerance_policy_validation(self):
        with pytest.raises(ValueError):
            TolerancePolicy(rank_rel=0.0)
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match=repr(bad)):
                TolerancePolicy(psd_abs_scale=bad)
        assert DEFAULT_TOL.rank_rel == 1e-10
