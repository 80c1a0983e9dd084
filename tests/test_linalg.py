"""Tests for the symmetric linear-algebra kernel."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose, assert_array_equal

from edmp.linalg import (
    DEFAULT_TOL,
    TolerancePolicy,
    fix_column_signs,
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
        assert np.linalg.norm((dec.vectors * dec.values) @ dec.vectors.T - a) <= 1e-8 * scale
        n = a.shape[0]
        assert np.linalg.norm(dec.vectors.T @ dec.vectors - np.eye(n)) <= 1e-10 * n

    @pytest.mark.parametrize("n", [8, 128])
    def test_stack_matches_each_matrix_bit_for_bit(self, n):
        rng = np.random.default_rng(n)
        stack = rng.normal(size=(3, n, n))
        dec = sym_eig(stack)
        for a, values, vectors, pinv in zip(stack, dec.values, dec.vectors, dec.pinv()):
            alone = sym_eig(a)
            assert_array_equal(values, alone.values)
            assert_array_equal(vectors, alone.vectors)
            assert_array_equal(pinv, alone.pinv())
        assert sym_eig(stack, vectors=False).vectors is None
        assert_allclose(sym_eig(stack, vectors=False).values, dec.values,
                        atol=1e-12 * n)
        assert dec.is_psd().shape == (3,)


class TestPinv:
    def test_zero_matrix(self):
        assert_allclose(sym_eig(np.zeros((3, 3))).pinv(), np.zeros((3, 3)))

    def test_square_edm_w_vector(self):
        # For the square EDM the solution of D w = e is w = e / 8.
        w = sym_eig(SQUARE).pinv() @ np.ones(4)
        assert_allclose(w, np.full(4, 0.125), atol=1e-12)

    def test_rank_deficient_penrose(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(6, 3))
        a = x @ x.T
        a_dag = sym_eig(a).pinv()
        assert np.linalg.norm(a @ a_dag @ a - a) <= 1e-8 * np.linalg.norm(a)

    @settings(max_examples=40, deadline=None)
    @given(conditioned_sym_matrices())
    def test_involution(self, a):
        scale = max(np.linalg.norm(a), 1.0)
        assert np.linalg.norm(sym_eig(sym_eig(a).pinv()).pinv() - a) <= 1e-8 * scale

    @settings(max_examples=40, deadline=None)
    @given(conditioned_sym_matrices())
    def test_penrose_identities(self, a):
        a_dag = sym_eig(a).pinv()
        scale = max(np.linalg.norm(a), 1.0)
        dag_scale = max(np.linalg.norm(a_dag), 1.0)
        assert np.linalg.norm(a @ a_dag @ a - a) <= 1e-8 * scale
        assert np.linalg.norm(a_dag @ a @ a_dag - a_dag) <= 1e-8 * dag_scale
        assert np.linalg.norm((a @ a_dag).T - a @ a_dag) <= 1e-8
        assert np.linalg.norm((a_dag @ a).T - a_dag @ a) <= 1e-8


class TestRank:
    def test_identity(self):
        assert sym_eig(np.eye(4)).rank() == 4

    def test_square_gram_rank_two(self):
        assert sym_eig(centroid_gram(SQUARE)).rank() == 2

    def test_bordered_rank_r_plus_two(self):
        # Bordering a unit spherical EDM raises the rank from r+1 to r+2.
        n = 4
        bordered = np.ones((n + 1, n + 1))
        bordered[0, 0] = 0.0
        bordered[1:, 1:] = SQUARE
        assert sym_eig(SQUARE).rank() == 3
        assert sym_eig(bordered).rank() == 4


class TestCond:
    def test_diagonal_ratio(self):
        assert sym_eig(np.diag([4.0, -2.0, 0.5])).cond() == pytest.approx(8.0)

    def test_ignores_cut_eigenvalues(self):
        # The eigenvalue below rank_rel * 4 is cut, as in rank and pinv.
        dec = sym_eig(np.diag([4.0, 1.0, 1e-12]))
        assert dec.rank() == 2
        assert dec.cond() == pytest.approx(4.0)
        assert dec.cond(TolerancePolicy(rank_rel=1e-14)) == pytest.approx(4e12)

    def test_zero_matrix_is_infinite(self):
        assert sym_eig(np.zeros((3, 3))).cond() == np.inf

    @pytest.mark.parametrize("vectors", [True, False])
    def test_stack_answers_per_matrix(self, vectors):
        # kappa 8, 1, 4e9 (1e-9 kept, 1e-12 cut at 1e-10 * 4) and none kept.
        rng = np.random.default_rng(0)
        q = np.linalg.qr(rng.standard_normal((4, 4, 4)))[0]
        spectra = [[4.0, -2.0, 0.5, 0.5], [3.0, 3.0, -3.0, 3.0],
                   [4.0, 1.0, 1e-9, 1e-12], [0.0, 0.0, 0.0, 0.0]]
        stack = (q * np.array(spectra)[:, None, :]) @ q.swapaxes(-1, -2)
        dec = sym_eig(stack, vectors)
        alone = [sym_eig(a, vectors) for a in stack]
        assert_array_equal(dec.rank(), [one.rank() for one in alone])
        assert_array_equal(dec.cond(), [one.cond() for one in alone])
        assert dec.rank().tolist() == [4, 4, 3, 0]
        assert_allclose(dec.cond()[:3], [8.0, 1.0, 4e9], rtol=1e-4)
        assert dec.cond()[3] == np.inf
        # One matrix answers in Python scalars.
        assert (type(alone[0].rank()), type(alone[0].cond())) == (int, float)


def is_psd(a):
    return sym_eig(a).is_psd()


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

    @staticmethod
    def loop_fix_column_signs(m):
        """One column at a time: the reference the vectorized form must match."""
        m = np.array(m, dtype=float)
        for col in range(m.shape[1]):
            column = m[:, col]
            top = np.abs(column).max()
            if top == 0.0:
                continue
            lead = np.argmax(np.abs(column) > 1e-12 * top)
            if column[lead] < 0.0:
                m[:, col] = -column
        return m

    @pytest.mark.parametrize("seed", range(5))
    def test_fix_column_signs_matches_column_loop(self, seed):
        rng = np.random.default_rng(seed)
        m = rng.normal(size=(7, 6))
        m[:, 1] = 0.0
        # Leading entries below, at and above the 1e-12 relative cut.
        m[:3, 2] = [-1e-14, 0.0, -1e-13]
        m[0, 3] = -0.5e-12 * np.abs(m[:, 3]).max()
        m[:2, 4] = [2e-13, -1e-11]
        m[:, 5] = -np.abs(m[:, 5])
        m[0, 5] = -0.0
        for a in (m, -m, m[:, :0], rng.normal(size=(5, 3))):
            fixed = fix_column_signs(a)
            ref = self.loop_fix_column_signs(a)
            assert_array_equal(fixed, ref)
            assert np.array_equal(np.signbit(fixed), np.signbit(ref))

    def test_tolerance_policy_validation(self):
        with pytest.raises(ValueError):
            TolerancePolicy(rank_rel=0.0)
        for bad in (float("nan"), float("inf"), 1e-17, 1.0):
            with pytest.raises(ValueError, match=repr(bad)):
                TolerancePolicy(rank_rel=bad)
        assert DEFAULT_TOL.rank_rel == 1e-10
