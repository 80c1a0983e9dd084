"""Tests for instance generators and the independent oracles."""

import contextlib
import io
import json
import math
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from edmp import (
    CaseTag,
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
)
import edmp.cli
from edmp.cli import main
from edmp.linalg import PSD_SLACK, EigDecomp, sym_eig
from edmp.matio import load_matrix, matrix_to_csv
from edmp.model import UNIT_RADIUS, Sphericity, is_edm_array, sphericity
from edmp.oracle import (SDP_BRACKET, SDP_CAP, SDP_GAP, PerturbedLine, edm_from_points,
                         gen_unit_profile)
from edmp.verify import check_profile, default_templates

from conftest import gen_nonspherical, perturbed_array


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

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_in_uint64_range(self, seed):
        with pytest.raises(InfeasibleSpec, match="seed"):
            gen_unit_spherical(InstanceSpec(n=4, r=3, seed=seed))

    def test_largest_seed_generates(self):
        d = gen_unit_spherical(InstanceSpec(n=4, r=3, seed=2**64 - 1))
        assert profile(d).unit_spherical

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


def rows_of(columns):
    """The Sphericity of each row of PerturbedLine.spheres' columns, as
    model.sphericity reports one matrix: None where the radius is NaN."""
    return [Sphericity(etw, None if math.isnan(rsq) else rsq, res, unit)
            for etw, rsq, res, unit in zip(*(col.tolist() for col in columns[:4]))]


class TestPerturbedW:
    def test_solves_perturbed_system(self, triangle):
        entry = EntryIndex(1, 2)
        spheres = PerturbedLine(profile(triangle), entry).spheres([1.0])
        pert = perturbed_array(triangle, 0, 1, 1.0)
        whole = sym_eig(pert)
        assert_array_equal(spheres.eigenvalues, [whole.values])
        assert rows_of(spheres) == [sphericity(pert, whole.pinv() @ np.ones(3))]
        # rho^2 = 1 / (2 e.w) is the hand value 3/4 at t = 1.
        assert_allclose(spheres.radius_sq, [0.75], atol=1e-12)

    def test_condition_grows_near_theta_c(self, triangle):
        # D + t E^13 loses rank at theta_c = -3 for the long side.
        entry = EntryIndex(1, 3)
        spheres = PerturbedLine(profile(triangle), entry).spheres([-1.0, -3.0 + 1e-6])
        far, near = (EigDecomp(values, None).cond() for values in spheres.eigenvalues)
        assert near > 1e4 * far

    def test_nonspherical_perturbation_has_no_radius(self, triangle):
        # t = 1 on the long side makes the sides (1, 1, 2) collinear: an EDM
        # with no circumscribing sphere, so there is no radius to report.
        [sphere] = rows_of(PerturbedLine(profile(triangle), EntryIndex(1, 3)).spheres([1.0]))
        assert sphere.radius_sq is None
        assert not sphere.unit
        assert abs(sphere.e_dot_w) < 1e-12


class TestMembershipScan:
    def test_triangle_long_side_landmarks(self, triangle):
        entry = EntryIndex(1, 3)
        scan = membership_scan(profile(triangle), entry, [0.0, 0.5, 1.0])
        assert scan.t.tolist() == [0.0, 0.5, 1.0]
        assert scan.in_t_eq[0] and scan.in_t_leq[0] and scan.is_edm[0]
        # t = 0.5: spherical EDM of radius 2 > 1.
        assert scan.is_edm[1]
        assert_allclose(scan.radius_sq[1], 2.0, atol=1e-9)
        assert not scan.in_t_leq[1]
        # t = 1 (the yield endpoint): an EDM with no circumscribing sphere.
        assert scan.is_edm[2] and np.isnan(scan.radius_sq[2])

    def test_record_chain_invariant(self, antipodal):
        ts = np.linspace(-3.0, 3.0, 25)
        scan = membership_scan(profile(antipodal), EntryIndex(3, 4), ts)
        assert not (scan.in_t_eq & ~scan.in_t_leq).any()
        assert not (scan.in_t_leq & ~scan.is_edm).any()

    def test_empty_input_gives_empty_columns(self, triangle):
        prof, entry = profile(triangle), EntryIndex(1, 2)
        scan = membership_scan(prof, entry, [])
        assert [col.shape for col in scan] == [(0,)] * 5
        assert scan.is_edm.dtype == scan.in_t_leq.dtype == scan.in_t_eq.dtype == bool
        spheres = PerturbedLine(prof, entry).spheres([])
        assert [col.shape for col in spheres[:4]] == [(0,)] * 4
        assert spheres.eigenvalues.shape == (0, 3)
        assert radius_squared(classify(prof, entry), np.array([])).shape == (0,)

    def test_sweep_unit_column_reads_the_entry_residual(self):
        # Every sweep row is in T= exactly when it is in T<= and the unit
        # residual that entry's cross-check reports is within the unit cut.
        path = Path(__file__).parent / "golden" / "pairunit-8.csv"
        d, entry = load_matrix(str(path)), EntryIndex(1, 2)
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = main(["sweep", str(path), "--k", "1", "--l", "2", "--num", "2001"])
        assert code == 0
        rows = [(float(cells[0]), cells[5] == "true", cells[6] == "true")
                for cells in (row.split(",") for row in out.getvalue().splitlines()[1:])]
        assert len(rows) == 2001
        # The grid misses the two T= points, so they are scanned as well.
        prof = profile(d)
        members = classify(prof, entry).teq_members()
        scan = membership_scan(prof, entry, members)
        scanned = list(zip(scan.t.tolist(), scan.in_t_leq.tolist(), scan.in_t_eq.tolist()))
        assert scan.in_t_eq.tolist() == [True, True]
        spheres = PerturbedLine(prof, entry).spheres([t for t, _, _ in rows + scanned])
        for (_, in_t_leq, in_t_eq), residual in zip(rows + scanned, spheres.unit_residual):
            assert in_t_eq == (in_t_leq and residual <= UNIT_RADIUS.threshold * d.n)


def single_matrix_verdicts(d, entry, t, tol):
    """EDM, T<= and sphericity of D + tE^kl, one sym_eig per question: the
    reference the stacked kernel must reproduce."""
    a = np.array(d.d)
    a[entry.i, entry.j] += t
    a[entry.j, entry.i] += t
    n = d.n
    j = np.eye(n) - np.full((n, n), 1.0 / n)
    nonneg = a.min() >= -1e-12 * max(float(np.abs(a).max()), 1.0)
    edm = nonneg and sym_eig(-0.5 * j @ a @ j).is_psd()
    leq = sym_eig(2.0 - a).is_psd()
    return edm, leq, sphericity(a, sym_eig(a).pinv(tol) @ np.ones(n))


class TestPerturbedLine:
    @pytest.mark.parametrize("seed", range(5))
    def test_stacks_match_single_matrices(self, seed):
        # The yielding ends, the T<= ends and 1e-12 relative to either side
        # of them, 0 and theta_c, on every verify template.
        for template in default_templates(8):
            prof = gen_unit_profile(replace(template.spec, seed=seed))
            entry = template.spec.entry
            report = classify(prof, entry)
            ts = [*report.yielding_report.interval, 0.0]
            for end in report.t_leq:
                step = 1e-12 * max(1.0, abs(end))
                ts += [end - step, end, end + step]
            if report.theta_c is not None:
                ts.append(report.theta_c)
            line = PerturbedLine(prof, entry)
            stacked = zip(line.is_edm(ts), line.in_t_leq(ts), rows_of(line.spheres(ts)))
            for t, (edm, leq, sphere) in zip(ts, stacked):
                assert (edm, leq, sphere) == single_matrix_verdicts(prof.d, entry, t, prof.tol)

    def test_scan_peak_memory_is_one_stack(self):
        # A stack of all 201 matrices at n=128 would hold 26 MB per array.
        prof = profile(gen_unit_spherical(InstanceSpec(n=128, r=64, seed=0)))
        entry = EntryIndex(1, 2)
        lo, hi = classify(prof, entry).yielding_report.interval
        ts = np.linspace(lo - 0.5 * (hi - lo), hi + 0.5 * (hi - lo), 201)
        membership_scan(prof, entry, [0.0])
        tracemalloc.start()
        try:
            membership_scan(prof, entry, [0.0])
            one = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            scan = membership_scan(prof, entry, ts)
            full = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert scan.is_edm.sum() > 50
        assert full - one <= 2**20

    def test_spheres_forms_no_full_order_matrix_per_t(self):
        # At n=256, r=16 the line works at order 17: the stack of M(t) is
        # 49 kB for 21 samples, while one raw D + tE^kl is n^2 doubles.
        spec = InstanceSpec(256, 16, Structure.ZERO_GALE_PAIR, EntryIndex(1, 2), seed=0)
        prof = gen_unit_profile(spec)
        report = classify(prof, spec.entry)
        assert report.case_tag is CaseTag.PAIR_UNIT
        line = PerturbedLine(prof, spec.entry)
        assert line.q is not None and line.q.shape[1] == 17
        ts = report.t_leq.interior_samples(21)
        line.spheres(ts[:1])
        tracemalloc.start()
        try:
            spheres = line.spheres(ts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not np.isnan(spheres.radius_sq).any()
        assert peak < 8 * prof.n**2


class FullOrderLine:
    """The stacked kernel at full order n: each D + tE^kl formed entry by
    entry and factored as it is, the reference the compressed line must
    reproduce."""

    def __init__(self, prof, entry):
        self.prof, self.entry = prof, entry

    def stack(self, ts):
        return perturbed_array(self.prof.d, self.entry.i, self.entry.j, np.asarray(ts, float))

    def is_edm(self, ts):
        return is_edm_array(self.stack(ts))

    def in_t_leq(self, ts, slack):
        return sym_eig(2.0 - self.stack(ts), vectors=False).is_psd(slack)

    def spheres(self, ts):
        a = self.stack(ts)
        w = sym_eig(a).pinv(self.prof.tol) @ np.ones(self.prof.n)
        return [sphericity(a[k], w[k]) for k in range(len(a))]


COMPRESSED = [(Structure.ZERO_GALE_PAIR, 32, 16), (Structure.MIRROR_PAIR, 32, 16),
              (Structure.GENERIC, 32, 16), (Structure.ZERO_GALE_PAIR, 128, 64)]


def unit_profile(points):
    return profile(edm_from_points(points / np.linalg.norm(points, axis=1)[:, None]))


def kappa_1e8_profile():
    # 32 unit points in R^16 whose last coordinate is shrunk by 5e-4 lie near
    # a 15-sphere: a generic D with kappa(D) = 7.9e7, all of whose range the
    # rank cut keeps.
    points = np.random.default_rng(0).standard_normal((32, 16))
    points[:, -1] *= 5e-4
    prof = unit_profile(points)
    assert 5e7 < prof.d_spectrum.cond() < 2e8
    return prof


def e1_near_range_profile():
    # Points 2..32 lie within 1e-8 of the hyperplane x_16 = 0.3 and point 1
    # does not, so an affine function of the points is nearly the indicator
    # of point 1: e_1 lies within ~1e-8 of range(D) = span{e, P}, and one
    # projection leaves its residual ~1e-8 off orthogonal to range(D).
    rng = np.random.default_rng(0)
    points = rng.standard_normal((32, 16))
    points[:, -1] = 0.3 + 1e-8 * rng.standard_normal(32)
    rest = points[:, :-1]
    rest *= np.sqrt(1.0 - points[:, -1:] ** 2) / np.linalg.norm(rest, axis=1)[:, None]
    points[0] = rng.standard_normal(16)
    return unit_profile(points)


SPECIAL = {"kappa-1e8": kappa_1e8_profile, "e1-near-range": e1_near_range_profile}


class TestCompressedLine:
    """At r < n - 4 the line works in a basis Q of range(D) + span{e, e_k, e_l}."""

    @staticmethod
    def _line(structure, n, r, seed):
        entry = EntryIndex(1, 2)
        prof = gen_unit_profile(InstanceSpec(n, r, structure, entry, seed))
        line = PerturbedLine(prof, entry)
        assert line.q is not None and line.q.shape[1] <= r + 4
        return prof, entry, line

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("structure,n,r", COMPRESSED, ids=lambda x: getattr(x, "value", x))
    def test_verdicts_match_full_order(self, structure, n, r, seed):
        # A 41-point grid over the yielding interval and half its width on
        # either side, and probes 1e-12, 1e-9 and 1e-6 relative to either
        # side of each end of T<=.
        prof, entry, line = self._line(structure, n, r, seed)
        full = FullOrderLine(prof, entry)
        report = classify(prof, entry)
        lo, hi = report.yielding_report.interval
        half = 0.5 * (hi - lo) or 1.0
        ts = list(np.linspace(lo - half, hi + half, 41))
        for end in report.t_leq:
            ts += [end + side * h * max(1.0, abs(end))
                   for h in (1e-12, 1e-9, 1e-6) for side in (-1.0, 1.0)]
        edm = line.is_edm(ts)
        assert edm.tolist() == full.is_edm(ts).tolist()
        for slack in (PSD_SLACK, 1e-12):
            assert line.in_t_leq(ts, slack).tolist() == full.in_t_leq(ts, slack).tolist()
        at_edm = [t for t, ok in zip(ts, edm) if ok]
        for sphere, ref in zip(rows_of(line.spheres(at_edm)), full.spheres(at_edm)):
            assert (sphere.radius_sq is None) == (ref.radius_sq is None)
            assert sphere.unit == ref.unit

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("structure,n,r", COMPRESSED, ids=lambda x: getattr(x, "value", x))
    def test_radii_match_full_order_inside_tleq(self, structure, n, r, seed):
        prof, entry, line = self._line(structure, n, r, seed)
        tleq = classify(prof, entry).t_leq
        ts = tleq.interior_samples(10) if tleq.width > 0.0 else [tleq.lo]
        spheres = line.spheres(ts)
        for sphere, ref in zip(rows_of(spheres), FullOrderLine(prof, entry).spheres(ts)):
            assert abs(sphere.radius_sq - ref.radius_sq) <= 1e-11 * abs(ref.radius_sq)
        assert spheres.eigenvalues.shape == (len(ts), line.q.shape[1])

    @pytest.mark.parametrize("structure,n,r", [*COMPRESSED, *((name, 32, 16) for name in SPECIAL)],
                             ids=lambda x: getattr(x, "value", x))
    def test_basis_is_orthonormal_and_holds_d(self, structure, n, r):
        if structure in SPECIAL:
            prof = SPECIAL[structure]()
            line = PerturbedLine(prof, EntryIndex(1, 2))
            assert line.q.shape == (n, prof.r + 3)
        else:
            prof, _, line = self._line(structure, n, r, 0)
        q = line.q
        assert np.abs(q.T @ q - np.eye(q.shape[1])).max() <= 1e-13
        assert np.abs(q @ line.m0 @ q.T - prof.d.d).max() <= 1e-13 * np.abs(prof.d.d).max()

    def test_entry_cross_check_sees_a_moved_radius(self, monkeypatch, tmp_path):
        # The compressed oracle is live: closed radii scaled by 1 + 1e-6 show
        # in entry's closed-vs-oracle residual at n=128.
        spec = InstanceSpec(128, 64, Structure.ZERO_GALE_PAIR, EntryIndex(1, 2), 0)
        path = tmp_path / "d.csv"
        path.write_text(matrix_to_csv(gen_unit_spherical(spec)))
        real = edmp.cli.radius_squared
        monkeypatch.setattr(edmp.cli, "radius_squared",
                            lambda *args: (1.0 + 1e-6) * real(*args))
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert main(["entry", str(path), "--k", "1", "--l", "2"]) == 0
        check = json.loads(out.getvalue())["entry"]["cross_check"]
        assert check["max_rel_closed_vs_oracle"] >= 5e-7


def scalar_min_radius_sq(d, entry, t):
    """Least lam with 2 lam E - D - tE^kl >= 0, bisected one t at a time with
    one sym_eig per step: the reference the lockstep stack must reproduce."""
    pert = perturbed_array(d, entry.i, entry.j, t)
    ones = np.ones((d.n, d.n))
    feas_abs = 1e-13 * max(1.0, float(np.abs(pert).max()))

    def feasible(lam):
        slack = feas_abs + 1e-14 * d.n * abs(lam)
        return sym_eig(2.0 * lam * ones - pert).values[-1] >= -slack

    lo, hi = 0.0, 1.0
    while not feasible(hi):
        lo = hi
        hi *= 2.0
        if hi > SDP_CAP:
            raise Infeasible("no feasible radius bound below the cap")
    if feasible(lo):
        return lo
    while hi - lo > SDP_GAP:
        mid = 0.5 * (hi + lo)
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return hi


class TestSdpOracle:
    def test_unperturbed_unit(self, triangle):
        [lam] = PerturbedLine(profile(triangle), EntryIndex(1, 2)).min_radius_sq([0.0])
        assert_allclose(lam, 1.0, atol=1e-8)

    def test_triangle_interior_value(self, triangle):
        # Independent bisection against the hand value 6/8 at t = 1.
        [lam] = PerturbedLine(profile(triangle), EntryIndex(1, 2)).min_radius_sq([1.0])
        assert_allclose(lam, 0.75, atol=1e-8)

    def test_constant_radius_entry(self, antipodal):
        lam = PerturbedLine(profile(antipodal), EntryIndex(3, 4)).min_radius_sq([-1.0, 0.5, 1.5])
        assert_allclose(lam, 1.0, atol=1e-8)

    def test_infeasible_for_nonspherical(self):
        d = gen_nonspherical(5, 3, seed=4)
        with pytest.raises(Infeasible):
            PerturbedLine(profile(d), EntryIndex(1, 2)).min_radius_sq([0.0])

    def test_matches_closed_form_on_generated(self):
        d = gen_unit_spherical(InstanceSpec(n=4, r=3, seed=77))
        entry = EntryIndex(1, 2)
        prof = profile(d)
        report = classify(prof, entry)
        ts = report.t_leq.interior_samples(10)
        for t, lam in zip(map(float, ts), PerturbedLine(prof, entry).min_radius_sq(ts)):
            assert abs(lam - radius_squared(report, t)) <= 1e-7

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_scalar_reference(self, seed):
        # The samples verify's radius-sdp-agreement check bisects.
        for template in default_templates(8):
            prof = gen_unit_profile(replace(template.spec, seed=seed))
            entry = template.spec.entry
            tleq = classify(prof, entry).t_leq
            if tleq.width == 0.0:
                continue
            ts = tleq.interior_samples(3)
            lam = PerturbedLine(prof, entry).min_radius_sq(ts)
            for t, lam_t in zip(map(float, ts), lam):
                assert abs(lam_t - scalar_min_radius_sq(prof.d, entry, t)) <= SDP_GAP

    @pytest.mark.parametrize("seed", range(5))
    def test_bracket_matches_unbracketed(self, seed):
        # With the closed radii as estimates every bracket is proved, and the
        # bisection from [0, 1] ends inside it.
        for template in default_templates(8):
            prof = gen_unit_profile(replace(template.spec, seed=seed))
            entry = template.spec.entry
            report = classify(prof, entry)
            if report.t_leq.width == 0.0:
                continue
            ts = report.t_leq.interior_samples(3)
            near = [radius_squared(report, float(t)) for t in ts]
            line = PerturbedLine(prof, entry)
            assert line.radius_bracket(ts, near).all()
            assert_allclose(line.min_radius_sq(ts), near, rtol=0.0, atol=SDP_BRACKET + SDP_GAP)

    def test_missed_bracket_falls_back(self):
        # An estimate 2 SDP_BRACKET or 1e-3 off, NaN or inf is not proved, one
        # SDP_BRACKET/2 off is; bisecting the unproved t alone, as verify does,
        # gives each the answer it has in the whole stack.
        prof = profile(gen_unit_spherical(InstanceSpec(n=8, r=7, seed=0)))
        entry = EntryIndex(1, 2)
        report = classify(prof, entry)
        ts = report.t_leq.interior_samples(3)
        near = np.array([radius_squared(report, float(t)) for t in ts])
        line = PerturbedLine(prof, entry)
        lam = line.min_radius_sq(ts)
        for shift in ([1e-3, 0.0, -1e-3], [np.nan, 0.0, np.inf],
                      [2 * SDP_BRACKET, SDP_BRACKET / 2, -2 * SDP_BRACKET],
                      [-2 * SDP_BRACKET, -SDP_BRACKET / 2, np.nan]):
            proved = line.radius_bracket(ts, near + shift)
            assert proved.tolist() == [False, True, False]
            assert line.min_radius_sq(ts[~proved]).tolist() == lam[~proved].tolist()

    def test_mixed_stack_answers_each_t(self, triangle):
        # On [0, 3] the squared radius is at most one; outside it exceeds
        # one, so those brackets double first while the others are frozen.
        entry = EntryIndex(1, 2)
        line = PerturbedLine(profile(triangle), entry)
        ts = [1.0, -0.2, 2.0, -0.4, 3.5, 0.5]
        lam = line.min_radius_sq(ts)
        assert (lam < 1.0).any() and (lam > 2.0).any()
        assert lam.tolist() == [line.min_radius_sq([t])[0] for t in ts]
        for t, lam_t in zip(ts, lam):
            assert abs(lam_t - scalar_min_radius_sq(triangle, entry, t)) <= SDP_GAP

    def test_one_infeasible_t_fails_the_stack(self, triangle):
        # D + tE^12 has a negative entry at t = -5, far outside the
        # yielding interval [-0.46, 6.46].
        with pytest.raises(Infeasible):
            PerturbedLine(profile(triangle), EntryIndex(1, 2)).min_radius_sq([1.0, -5.0, 2.0])


class TestBoundaryLocation:
    def test_endpoints_match_closed_form(self, triangle):
        # The radius-one test holds just inside each closed-form end and
        # fails 1e-6 outside it, so the true ends lie within 1e-6.
        prof = profile(triangle)
        for k, l in [(1, 2), (1, 3)]:
            entry = EntryIndex(k, l)
            lo, hi = classify(prof, entry).t_leq
            delta = min(1e-6, 0.25 * (hi - lo))
            held = PerturbedLine(profile(triangle), entry).in_t_leq(
                [lo + delta, hi - delta, lo - 1e-6, hi + 1e-6], slack=1e-12)
            assert held.tolist() == [True, True, False, False]

    def test_oracle_membership_signs(self, triangle):
        entry = EntryIndex(1, 2)
        held = PerturbedLine(profile(triangle), entry).in_t_leq([1.0, 3.2, -0.2])
        assert held.tolist() == [True, False, False]

    def test_slack_per_t(self, triangle):
        # One stack at two slacks answers as two stacks at one slack each.
        entry = EntryIndex(1, 3)
        lo, hi = classify(profile(triangle), entry).t_leq
        ts = [lo - 1e-10, hi + 1e-10, lo - 1e-10, hi + 1e-10]
        line = PerturbedLine(profile(triangle), entry)
        held = line.in_t_leq(ts, slack=[PSD_SLACK, PSD_SLACK, 1e-12, 1e-12])
        assert held.tolist() == [True, True, False, False]
        assert held.tolist() == [*line.in_t_leq(ts[:2]), *line.in_t_leq(ts[2:], slack=1e-12)]
