"""Acceptance suite: one test per exit criterion, each printing PASS/FAIL.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
Tolerances are pinned here and nowhere else.
"""

from contextlib import contextmanager

import numpy as np
import pytest
from numpy.testing import assert_allclose

from edmp import (
    CaseTag,
    DistanceMatrix,
    EntryIndex,
    InstanceSpec,
    Structure,
    classify,
    cm_w_inner,
    gen_unit_spherical,
    profile,
    radius_squared,
    run_verification,
    theta_bounds,
    theta_c,
    yielding_report,
)
from edmp.cayley import bordered
from edmp.linalg import sym_eig
from edmp.oracle import PerturbedLine
from edmp.verify import bdag_identity, bprime_dag_identity, cm_dag_block
from conftest import ANTIPODAL, SQUARE, TRIANGLE, perturbed_array

SQRT3 = np.sqrt(3.0)


@contextmanager
def criterion(cid, description):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {cid} {description}: FAIL")
        raise
    print(f"ACCEPTANCE {cid} {description}: PASS")


def interval_of(ts):
    return (ts.lo, ts.hi)


@pytest.fixture(scope="module")
def rational_pool():
    """Instances whose designated entry admits the rational radius form."""
    specs = [
        InstanceSpec(4, 3, Structure.GENERIC, EntryIndex(1, 2), 101),
        InstanceSpec(5, 4, Structure.GENERIC, EntryIndex(2, 4), 102),
        InstanceSpec(6, 5, Structure.GENERIC, EntryIndex(3, 6), 103),
        InstanceSpec(4, 3, Structure.MIRROR_PAIR, EntryIndex(1, 3), 104),
        InstanceSpec(5, 4, Structure.MIRROR_PAIR, EntryIndex(2, 3), 105),
        InstanceSpec(6, 5, Structure.MIRROR_PAIR, EntryIndex(1, 6), 106),
        InstanceSpec(5, 2, Structure.ZERO_GALE_PAIR, EntryIndex(1, 2), 107),
        InstanceSpec(6, 3, Structure.ZERO_GALE_PAIR, EntryIndex(2, 5), 108),
        InstanceSpec(7, 4, Structure.ZERO_GALE_PAIR, EntryIndex(1, 7), 109),
    ]
    pool = []
    for spec in specs:
        d = gen_unit_spherical(spec)
        prof = profile(d)
        report = classify(prof, spec.entry)
        assert report.coefficients is not None
        pool.append((d, prof, spec.entry, report))
    return pool


@pytest.fixture(scope="module")
def mixed_pool(rational_pool):
    """Rational-case pool plus continuum and golden entries."""
    extra_specs = [
        InstanceSpec(4, 3, Structure.ZERO_W_PAIR, EntryIndex(1, 2), 201),
        InstanceSpec(6, 5, Structure.ZERO_W_PAIR, EntryIndex(2, 3), 202),
        InstanceSpec(5, 3, Structure.MIRROR_PAIR, EntryIndex(1, 4), 203),
    ]
    pool = [(d, prof, entry) for d, prof, entry, _ in rational_pool]
    for spec in extra_specs:
        d = gen_unit_spherical(spec)
        pool.append((d, profile(d), spec.entry))
    for raw, entry in [(SQUARE, EntryIndex(1, 3)), (ANTIPODAL, EntryIndex(3, 4)),
                       (TRIANGLE, EntryIndex(1, 2))]:
        d = DistanceMatrix(raw)
        pool.append((d, profile(d), entry))
    return pool


def test_criterion_1_square_example():
    with criterion(1, "square golden example"):
        d = DistanceMatrix(SQUARE)
        prof = profile(d)
        assert prof.r == 2
        assert prof.regular
        assert_allclose(prof.w, np.full(4, 0.125), atol=1e-9)
        direction = prof.Z[:, 0] / prof.Z[0, 0]
        assert_allclose(direction, [1, -1, 1, -1], atol=1e-9)

        e12 = EntryIndex(1, 2)
        rep12 = yielding_report(prof, e12)
        assert rep12.yielding
        assert_allclose(tuple(rep12.interval), (0.0, 8.0), atol=1e-9)
        assert_allclose(interval_of(classify(prof, e12).t_leq), (0.0, 0.0), atol=1e-9)

        e13 = EntryIndex(1, 3)
        rep13 = yielding_report(prof, e13)
        assert_allclose(tuple(rep13.interval), (-4.0, 0.0), atol=1e-9)
        rep13 = classify(prof, e13)
        assert_allclose(interval_of(rep13.t_leq), (-4.0, 0.0), atol=1e-9)
        assert rep13.case_tag is CaseTag.CONTINUUM_UNIT
        assert_allclose(rep13.t_eq, (-4.0, 0.0), atol=1e-9)


def test_criterion_2_antipodal_example():
    with criterion(2, "antipodal-pair golden example"):
        d = DistanceMatrix(ANTIPODAL)
        prof = profile(d)
        assert prof.r == 3
        assert_allclose(prof.w, [0.25, 0.25, 0.0, 0.0], atol=1e-9)

        e12 = EntryIndex(1, 2)
        assert_allclose(tuple(yielding_report(prof, e12).interval), (-4.0, 2.0),
                        atol=1e-9)
        rep12 = classify(prof, e12)
        assert_allclose(interval_of(rep12.t_leq), (-4.0, 0.0), atol=1e-9)
        assert rep12.case_tag is CaseTag.SINGLETON_UNIT and rep12.t_eq == (0.0,)

        e34 = EntryIndex(3, 4)
        assert_allclose(tuple(yielding_report(prof, e34).interval), (-2.0, 2.0),
                        atol=1e-9)
        rep34 = classify(prof, e34)
        assert_allclose(interval_of(rep34.t_leq), (-2.0, 2.0), atol=1e-9)
        assert rep34.case_tag is CaseTag.CONTINUUM_UNIT
        assert_allclose(rep34.t_eq, (-2.0, 2.0), atol=1e-9)


def test_criterion_3_triangle_example():
    with criterion(3, "triangle golden example and its radius functions"):
        d = DistanceMatrix(TRIANGLE)
        prof = profile(d)

        e12 = EntryIndex(1, 2)
        assert_allclose(tuple(yielding_report(prof, e12).interval),
                        (3 - 2 * SQRT3, 3 + 2 * SQRT3), atol=1e-9)
        rep12 = classify(prof, e12)
        assert_allclose(interval_of(rep12.t_leq), (0.0, 3.0), atol=1e-9)
        for t in (0.0, 0.5, 1.0, 2.0, 3.0):
            expected = (3 + 3 * t) / (3 + 6 * t - t * t)
            assert_allclose(radius_squared(rep12, t), expected, atol=1e-10)
        assert rep12.case_tag is CaseTag.PAIR_UNIT
        assert_allclose(rep12.t_eq, (0.0, 3.0), atol=1e-9)

        e13 = EntryIndex(1, 3)
        assert_allclose(tuple(yielding_report(prof, e13).interval), (-3.0, 1.0),
                        atol=1e-9)
        rep13 = classify(prof, e13)
        assert_allclose(interval_of(rep13.t_leq), (-3.0, 0.0), atol=1e-9)
        for t in (-3.0, -1.5, -0.5, 0.0):
            assert_allclose(radius_squared(rep13, t), 1.0 / (1.0 - t), atol=1e-10)
        assert rep13.case_tag is CaseTag.SINGLETON_UNIT and rep13.t_eq == (0.0,)

        # The bordered pathway rebuilds both quadratics g: coefficients are
        # recovered from beta2 and the two roots used by its closed form.
        for entry, c, expected in [(e12, -1.0, (2.0, -1.0 / 3.0)),
                                   (e13, 1.0, (-2.0 / 3.0, -1.0 / 3.0))]:
            lo, hi = theta_bounds(prof, entry)
            bd = prof.B_dag
            beta2 = (bd[entry.i, entry.j] ** 2
                     - bd[entry.i, entry.i] * bd[entry.j, entry.j]) / 4.0
            assert_allclose(beta2 * lo * hi, 1.0, atol=1e-12)
            assert_allclose((-beta2 * (lo + hi), beta2), expected, atol=1e-12)
            assert np.isfinite(theta_c(prof, entry, c))


def test_criterion_4_pseudoinverse_identities():
    with criterion(4, "pseudoinverse identities on 200 seeded instances"):
        shapes = [(3, 2), (4, 2), (4, 3), (5, 3), (5, 4), (6, 4), (6, 5),
                  (7, 5), (7, 6), (8, 7)]
        count = 0
        for seed in range(20):
            for n, r in shapes:
                d = gen_unit_spherical(InstanceSpec(n=n, r=r, seed=1000 + seed))
                prof = profile(d)
                b_prime = np.ones((n, n)) - 0.5 * d.d

                def rel(a, b):
                    return np.linalg.norm(a - b) / max(np.linalg.norm(b), 1.0)

                assert rel(bdag_identity(prof), prof.B_dag) <= 1e-8
                assert rel(bprime_dag_identity(prof), sym_eig(b_prime).pinv()) <= 1e-8
                assert rel(cm_dag_block(prof), sym_eig(bordered(d)).pinv()) <= 1e-8
                count += 1
        assert count == 200


def test_criterion_5_cross_path_equality(rational_pool):
    with criterion(5, "bordered and rational radius forms agree"):
        for d, prof, entry, report in rational_pool:
            ts = report.t_leq.interior_samples(20)
            direct_radii = PerturbedLine(prof, entry).spheres(ts).radius_sq
            for t, direct in zip(map(float, ts), direct_radii.tolist()):
                closed = radius_squared(report, t)
                border = 1.0 - 0.5 * cm_w_inner(report, t)
                assert abs(border - closed) <= 1e-10 * max(1.0, abs(closed))
                assert abs(closed - direct) <= 1e-8 * max(1.0, abs(direct))
                assert abs(border - direct) <= 1e-8 * max(1.0, abs(direct))


def test_criterion_6_membership_soundness(mixed_pool):
    with criterion(6, "eigenvalue membership soundness of reported sets"):
        for d, prof, entry in mixed_pool:
            n = d.n
            report = classify(prof, entry)
            iv = report.t_leq
            if iv.width > 0.0:
                for t in iv.interior_samples(20):
                    m = 2.0 - perturbed_array(d, entry.i, entry.j, float(t))
                    assert sym_eig(m).values[-1] >= -1e-8 * n
                for t in (iv.hi + 1e-3, iv.lo - 1e-3):
                    m = 2.0 - perturbed_array(d, entry.i, entry.j, float(t))
                    assert sym_eig(m).values[-1] < -1e-10
            for t in report.teq_members():
                w_t = sym_eig(perturbed_array(d, entry.i, entry.j, float(t))).pinv() @ np.ones(n)
                assert abs(2.0 * float(w_t.sum()) - 1.0) <= 1e-8


def test_criterion_7_sdp_oracle(rational_pool):
    with criterion(7, "bisection feasibility oracle matches the radius"):
        for d, prof, entry, report in rational_pool[:6]:
            ts = report.t_leq.interior_samples(10)
            for t, lam_star in zip(map(float, ts), PerturbedLine(prof, entry).min_radius_sq(ts)):
                assert abs(lam_star - radius_squared(report, t)) <= 1e-7


def test_criterion_8_case_coverage():
    with criterion(8, "all five case tags exercised five times"):
        summary = run_verification(count=40, seed=2026)
        assert summary.passed, summary.render()
        for tag in CaseTag:
            assert summary.case_counts.get(tag.value, 0) >= 5, tag


def test_criterion_9_boundary_identities(rational_pool):
    with criterion(9, "boundary identities of f and the theta ordering"):
        for _, prof, entry, report in rational_pool:
            co = report.coefficients
            lo, hi = theta_bounds(prof, entry)
            tc = theta_c(prof, entry, co.c)
            bd = prof.B_dag
            kk, ll, kl = bd[entry.i, entry.i], bd[entry.j, entry.j], bd[entry.i, entry.j]
            nk, nl = np.sqrt(kk), np.sqrt(ll)
            w_l, c = co.w_l, co.c

            f_lo = 4 * w_l**2 * (nk - c * nl) ** 2 / (kl - nk * nl) ** 2
            f_hi = 4 * w_l**2 * (nk + c * nl) ** 2 / (kl + nk * nl) ** 2
            f_tc = (kk - c * c * ll) ** 2 / (kk + c * c * ll - 2 * c * kl) ** 2
            assert abs(co.f(lo) - f_lo) <= 1e-8 * max(1.0, abs(f_lo))
            assert abs(co.f(hi) - f_hi) <= 1e-8 * max(1.0, abs(f_hi))
            assert abs(co.f(tc) - f_tc) <= 1e-8 * max(1.0, abs(f_tc))
            assert abs(co.g(tc) - co.f(tc)) <= 1e-8 * max(1.0, abs(f_tc))

            scale = 1.0 + abs(lo) + abs(hi)
            assert tc - lo >= -1e-8 * scale
            assert hi - tc >= -1e-8 * scale
