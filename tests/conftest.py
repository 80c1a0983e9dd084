"""Shared fixtures: three hand-checkable unit spherical matrices.

SQUARE: vertices of a square inscribed in the unit circle; regular, with
    w = e/8 and a one-column Gale basis proportional to (1,-1,1,-1).
ANTIPODAL: an antipodal pair plus two points mirrored across its axis,
    in R^3; w = (1/4, 1/4, 0, 0).
TRIANGLE: an isosceles triangle on the unit circle with squared side
    lengths (1, 1, 3); w = (1/2, -1/2, 1/2).

gen_nonspherical builds the non-cospherical EDMs the tests use as
negative inputs; the library itself never needs one.
"""

import numpy as np
import pytest

import edmp.verify
from edmp import DistanceMatrix, InfeasibleSpec, NumericalFailure, profile
from edmp.linalg import TolerancePolicy, sym_eig
from edmp.oracle import MAX_ATTEMPTS, _affine_rank_ok, edm_from_points

SQUARE = np.array(
    [[0, 2, 4, 2], [2, 0, 2, 4], [4, 2, 0, 2], [2, 4, 2, 0]], dtype=float
)
ANTIPODAL = np.array(
    [[0, 4, 2, 2], [4, 0, 2, 2], [2, 2, 0, 2], [2, 2, 2, 0]], dtype=float
)
TRIANGLE = np.array([[0, 1, 3], [1, 0, 1], [3, 1, 0]], dtype=float)


@pytest.fixture(scope="session")
def square():
    return DistanceMatrix(SQUARE)


@pytest.fixture(scope="session")
def square_profile(square):
    return profile(square)


@pytest.fixture(scope="session")
def antipodal():
    return DistanceMatrix(ANTIPODAL)


@pytest.fixture(scope="session")
def antipodal_profile(antipodal):
    return profile(antipodal)


@pytest.fixture(scope="session")
def triangle():
    return DistanceMatrix(TRIANGLE)


@pytest.fixture(scope="session")
def triangle_profile(triangle):
    return profile(triangle)


@pytest.fixture
def radius_off_one(monkeypatch):
    """verify's generator returns 1.21 D, so every instance has radius 1.1."""
    real = edmp.verify.gen_unit_spherical
    monkeypatch.setattr(edmp.verify, "gen_unit_spherical",
                        lambda *args: DistanceMatrix(1.21 * real(*args).d))


def gen_nonspherical(n: int, r: int, seed: int) -> DistanceMatrix:
    """EDM with e.w = 0 and rank r+2: a generic non-cospherical configuration.

    With n >= r+2 points in general position no common sphere exists, so
    e.w vanishes identically; no adjustment step is needed, only a margin
    check against accidental cosphericity.
    """
    if r > n - 2:
        raise InfeasibleSpec("nonspherical EDMs need r <= n-2")
    if r < 1 or n < 3:
        raise InfeasibleSpec("need n >= 3 and r >= 1")
    rng = np.random.default_rng(np.uint64(seed))
    for _ in range(MAX_ATTEMPTS):
        points = rng.normal(size=(n, r))
        if not _affine_rank_ok(points, r):
            continue
        d = edm_from_points(points)
        prof = profile(d)
        if prof.spherical or prof.r != r:
            continue
        e = np.ones(n)
        scale = float(e @ d.d @ e) / n**2
        if abs(float(e @ prof.w)) * max(scale, 1.0) > 1e-9:
            continue
        if sym_eig(d.d).rank(TolerancePolicy(rank_rel=1e-8)) == r + 2:
            return d
    raise NumericalFailure("nonspherical generation did not converge")
