"""Deterministic operation counts: each entry is classified once and each
matrix of a profile is factored once.

Calls are counted by wrapping numpy's eigh, eigvalsh and svd, the yielding
classifier as seen from the perturbation module, `yielding.theta_bounds`,
`profile` and `radius_squared` under every module name that calls them (with
the samples each radius_squared call is given), `EigDecomp.cond` and construction,
`model.centroid_gram` and `sphericity` under every module that holds it.
An eigh or eigvalsh call on a stack factors every matrix of it, so the
matrices factored are counted next to the calls, with the largest order
factored.
Only a change that lowers a count may tighten its bound.
"""

import contextlib
import io
import json
import math
from pathlib import Path

import numpy as np
import pytest

import edmp.cli
import edmp.model
import edmp.oracle
import edmp.perturbation
import edmp.verify
import edmp.yielding
from edmp import (
    CaseTag,
    DistanceMatrix,
    EntryIndex,
    InstanceSpec,
    Structure,
    classify,
    gen_unit_spherical,
    profile,
    radius_squared,
)
from edmp.cayley import bordered
from edmp.cli import main
from edmp.linalg import EigDecomp
from edmp.matio import matrix_to_csv
from edmp.oracle import gen_unit_profile
from edmp.verify import check_bordered, check_entry, default_templates, run_verification

# eigh and eigvalsh calls, matrices factored and profile calls of
# run_verification(21, seed=0), measured with every matrix of an instance
# factored once, each entry's T<= tests and w(t) reads asked in one stack
# each, both ends of T<= checked by four probes in that stack instead of a
# bisection, and the three samples of radius-sdp-agreement asked in one
# stack whether the raw test proves each optimum within SDP_BRACKET of its
# closed radius: one call per entry with T<= of positive width, where a
# bisection inside those brackets took 9 and one from [0, 1] 32.  The
# stacked yield probes also factor the probes with a negative entry, which
# a per-matrix test would reject unfactored.  The rank checks of D and of
# the bordered matrix cut the spectra their profiles keep, which saves two
# factorizations per instance.  The 67 profiles are the generator's 25
# attempts, which give each instance's profile, plus one relabeled and one
# bordered profile per instance.
VERIFY_21_EIGH_BOUND = 231
VERIFY_21_MATRIX_BOUND = 933
VERIFY_21_PROFILE_CALLS = 67
# svd calls of the same run: a profile builds its Gale basis, one SVD, only
# when it is read.  The relabeled and bordered profiles never read it, nor
# does a generator attempt rejected before its structure test reads it; the
# rest are the line bases Q and the two-column parallelism tests.
VERIFY_21_SVD_CALLS = 43

# `sweep --num 2001` on pairunit-8.csv: 1,417 of the 2,001 samples are EDMs.
# The profile factors B and D; then one centroid Gram per sample, and D(t)
# and 2E - D(t) per EDM sample, in stacks of 256 matrices at n = 8.
SWEEP_EDM_ROWS = 1417
SWEEP_MATRICES = 2 + 2001 + 2 * SWEEP_EDM_ROWS
SWEEP_EIGH_BOUND = math.ceil(2001 / 256) * 3

# eigvalsh calls of one min_radius_sq over a stack whose every squared
# radius is below one: the upper end 1 holds, the lower end 0 fails, and 30
# halvings bring [0, 1] down to SDP_GAP = 1e-9.
MIN_RADIUS_SQ_CALLS = 32

# eigvalsh calls of one radius_bracket: one stack of both ends of each bracket.
RADIUS_BRACKET_CALLS = 1

# svd calls of one classify: the Gale test decides NotYielding, the [w Z]
# test then decides TleqTrivial, and each warning reads the ratio its test
# measured.
CLASSIFY_SVD_CALLS = {CaseTag.NOT_YIELDING: 1, CaseTag.TLEQ_TRIVIAL: 2}


@pytest.fixture
def counts(monkeypatch):
    seen = {"eigh": 0, "eigvalsh": 0, "matrices": 0, "svd": 0, "yielding_report": 0,
            "profile": 0, "cond": 0, "centroid_gram": 0, "radius_squared": 0,
            "sphericity": 0, "max_order": 0, "radius_samples": 0, "eig_decomp": 0,
            "theta_bounds": 0}

    def counting(module, name, key, *also):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            for each in (key, *also):
                seen[each] += 1
            if key == "eigh":
                seen["matrices"] += math.prod(np.shape(args[0])[:-2])
                seen["max_order"] = max(seen["max_order"], np.shape(args[0])[-1])
            if key == "radius_squared":
                seen["radius_samples"] += np.size(args[1])
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    # "eigh" counts LAPACK calls of both: the semidefiniteness tests read
    # eigenvalues only.  "eigvalsh" counts those alone.
    counting(np.linalg, "eigh", "eigh")
    counting(np.linalg, "eigvalsh", "eigh", "eigvalsh")
    counting(np.linalg, "svd", "svd")
    counting(edmp.perturbation, "yielding_report", "yielding_report")
    counting(edmp.yielding, "theta_bounds", "theta_bounds")
    for module in (edmp.model, edmp.oracle, edmp.verify):
        counting(module, "profile", "profile")
    for module in (edmp.cli, edmp.verify):
        counting(module, "radius_squared", "radius_squared")
    counting(EigDecomp, "cond", "cond")
    counting(EigDecomp, "__init__", "eig_decomp")
    counting(edmp.model, "centroid_gram", "centroid_gram")
    for module in (edmp.model, edmp.oracle, edmp.verify, edmp.cli):
        if hasattr(module, "sphericity"):
            counting(module, "sphericity", "sphericity")
    return seen


def test_profile_factors_b_and_d_once(counts):
    d = gen_unit_spherical(InstanceSpec(n=8, r=5, seed=0))
    counts["eigh"] = 0
    prof = profile(d)
    assert prof.Z is not None
    assert counts["eigh"] == 2


def test_profile_builds_the_gale_basis_on_first_read(counts):
    d = gen_unit_spherical(InstanceSpec(n=8, r=5, seed=0))
    counts["eigh"] = counts["svd"] = 0
    prof = profile(d)
    assert (counts["eigh"], counts["svd"]) == (2, 0)
    assert prof.Z is not None
    assert counts["svd"] == 1
    # B+, P and regularity come from the kept factorization of B, and every
    # later read of the Gale basis or its row scales from the one SVD.
    for name in ("Z", "Z_tilde", "z_scale", "zt_scale", "B_dag", "P", "regular"):
        getattr(prof, name)
    assert (counts["eigh"], counts["svd"]) == (2, 1)


def test_verify_classifies_each_entry_once(counts):
    summary = run_verification(21, seed=0)
    assert summary.passed
    assert counts["yielding_report"] == 21
    assert counts["eigh"] <= VERIFY_21_EIGH_BOUND
    assert counts["matrices"] <= VERIFY_21_MATRIX_BOUND
    assert counts["profile"] == VERIFY_21_PROFILE_CALLS
    assert counts["svd"] == VERIFY_21_SVD_CALLS


def test_min_radius_sq_bisects_a_stack_in_lockstep(counts):
    spec = InstanceSpec(n=8, r=7, seed=0)
    prof = profile(gen_unit_spherical(spec))
    entry = EntryIndex(1, 2)
    ts = classify(prof, entry).t_leq.interior_samples(3)
    line = edmp.oracle.PerturbedLine(prof, entry)
    counts["eigh"] = counts["eigvalsh"] = counts["matrices"] = 0
    lam = line.min_radius_sq(ts)
    assert (lam < 1.0).all()
    assert counts["eigvalsh"] == MIN_RADIUS_SQ_CALLS
    assert counts["eigh"] - counts["eigvalsh"] == 0
    assert counts["matrices"] == 3 * MIN_RADIUS_SQ_CALLS


def test_radius_bracket_is_one_eigenvalue_call(counts):
    spec = InstanceSpec(n=8, r=7, seed=0)
    prof = profile(gen_unit_spherical(spec))
    entry = EntryIndex(1, 2)
    report = classify(prof, entry)
    ts = report.t_leq.interior_samples(3)
    near = [radius_squared(report, float(t)) for t in ts]
    line = edmp.oracle.PerturbedLine(prof, entry)
    counts["eigh"] = counts["eigvalsh"] = counts["matrices"] = 0
    assert line.radius_bracket(ts, near).all()
    assert counts["eigvalsh"] == RADIUS_BRACKET_CALLS
    assert counts["eigh"] - counts["eigvalsh"] == 0
    assert counts["matrices"] == 2 * 3 * RADIUS_BRACKET_CALLS


def test_perturbed_line_factors_at_the_order_of_the_range(counts):
    # A zero-gale pair at n=128, r=64: every raw test of D + tE^kl factors
    # at the order of range(D) + span{e, e_k, e_l}, at most r + 3.
    spec = InstanceSpec(128, 64, Structure.ZERO_GALE_PAIR, EntryIndex(1, 2), seed=0)
    prof = gen_unit_profile(spec)
    report = classify(prof, spec.entry)
    counts["eigh"] = counts["max_order"] = 0
    line = edmp.oracle.PerturbedLine(prof, spec.entry)
    assert counts["eigh"] == 0
    ts = report.t_leq.interior_samples(3)
    near = [radius_squared(report, float(t)) for t in ts]
    for ask in (line.is_edm, line.in_t_leq, line.spheres, line.min_radius_sq):
        ask(ts)
    line.radius_bracket(ts, near)
    assert counts["eigh"] > 0
    assert counts["max_order"] <= spec.r + 3


def test_verify_asks_each_entry_question_in_one_stack(counts, monkeypatch):
    # The T<= tests, the w(t) reads and the radius brackets of each entry are
    # one method call and one LAPACK call each on the entry's own line, and no
    # bracket is left for a bisection; the border's line in the rational checks
    # is another matrix.
    asked = []

    def recording(name):
        original = getattr(edmp.oracle.PerturbedLine, name)

        def wrapper(line, *args, **kwargs):
            before = counts["eigh"]
            out = original(line, *args, **kwargs)
            asked.append((name, line.prof, counts["eigh"] - before))
            return out

        monkeypatch.setattr(edmp.oracle.PerturbedLine, name, wrapper)

    for name in ("in_t_leq", "spheres", "radius_bracket", "min_radius_sq"):
        recording(name)
    for template in default_templates(8):
        prof = gen_unit_profile(template.spec)
        asked.clear()
        results, _ = check_entry(prof, template.spec.entry, template.expected,
                                  profile(DistanceMatrix(bordered(prof.d))))
        assert all(res.ok for res in results)
        own = [(name, lapack) for name, p, lapack in asked if p is prof]
        width = classify(prof, template.spec.entry).t_leq.width
        expected = [("in_t_leq", 1), ("radius_bracket", 1)] if width > 0.0 else []
        assert sorted(own) == sorted(expected + [("spheres", 1)])


def test_classify_measures_each_parallelism_once(counts):
    tags = set()
    for template in default_templates(8):
        if template.expected not in CLASSIFY_SVD_CALLS:
            continue
        prof = profile(gen_unit_spherical(template.spec))
        prof.Z_tilde  # the Gale basis's own SVD, made on first read
        counts["svd"] = 0
        report = classify(prof, template.spec.entry)
        assert report.case_tag is template.expected
        assert counts["svd"] == CLASSIFY_SVD_CALLS[template.expected]
        tags.add(report.case_tag)
    assert tags == set(CLASSIFY_SVD_CALLS)


def test_classify_decides_theta_bounds_once(counts):
    # yielding_report decides the endpoint denominators once, and the row
    # intervals of the Gale and [w Z] stacks both reuse them.
    for template in default_templates(8):
        prof = profile(gen_unit_spherical(template.spec))
        counts["theta_bounds"] = 0
        classify(prof, template.spec.entry)
        assert counts["theta_bounds"] == 1, template


def test_sweep_classifies_once(counts, tmp_path):
    d = gen_unit_spherical(InstanceSpec(n=8, r=7, seed=0))
    assert classify(profile(d), EntryIndex(1, 2)).case_tag is CaseTag.PAIR_UNIT
    path = tmp_path / "d.csv"
    path.write_text(matrix_to_csv(d))
    counts["yielding_report"] = counts["cond"] = 0
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = main(["sweep", str(path), "--k", "1", "--l", "2", "--num", "2001"])
    assert code == 0
    assert len(out.getvalue().splitlines()) == 2002
    assert counts["yielding_report"] == 1
    # The one condition number is the profile's kappa(D); none is taken per t.
    assert counts["cond"] == 1


def test_sweep_factors_each_sample_in_stacks(counts):
    path = Path(__file__).parent / "golden" / "pairunit-8.csv"
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = main(["sweep", str(path), "--k", "1", "--l", "2", "--num", "2001"])
    assert code == 0
    rows = [row.split(",") for row in out.getvalue().splitlines()[1:]]
    assert sum(cells[1] == "true" for cells in rows) == SWEEP_EDM_ROWS
    assert counts["matrices"] == SWEEP_MATRICES
    assert counts["eigh"] <= SWEEP_EIGH_BOUND
    # The profile's sphericity; each stack of samples is judged in array form.
    assert counts["sphericity"] == 1
    # One closed-form call for the whole grid.
    assert counts["radius_squared"] == 1
    assert counts["radius_samples"] == 2001
    # One eigendecomposition record per LAPACK call, and the profile's
    # spectrum of D: none per row.
    assert counts["eig_decomp"] <= counts["eigh"] + 1


def test_entry_judges_sphericity_once_at_n128(counts, tmp_path):
    # The cross-check's samples and T= members are judged a stack at a time,
    # with no sphericity call per t: the one call is the profile's.
    spec = InstanceSpec(128, 64, Structure.ZERO_GALE_PAIR, EntryIndex(1, 2), seed=0)
    d = gen_unit_spherical(spec)
    assert classify(profile(d), spec.entry).case_tag is CaseTag.PAIR_UNIT
    path = tmp_path / "d.csv"
    path.write_text(matrix_to_csv(d))
    counts["sphericity"] = 0
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = main(["entry", str(path), "--k", "1", "--l", "2"])
    assert code == 0
    assert json.loads(out.getvalue())["entry"]["cross_check"]["samples"] == 21
    assert counts["sphericity"] == 1


def test_bordered_checks_read_the_border_profile(counts):
    d = gen_unit_spherical(InstanceSpec(n=6, r=3, seed=0))
    counts["centroid_gram"] = 0
    prof = profile(d)
    border = profile(DistanceMatrix(bordered(d)))
    assert counts["centroid_gram"] == 2
    counts["centroid_gram"] = counts["eigh"] = 0
    results = check_bordered(prof, border)
    assert all(res.ok for res in results)
    # w~, the pseudoinverse, the Gram, the embedding dimension and the
    # spectrum the independent rank check cuts all come from the border
    # profile: nothing is factored again.
    assert counts["centroid_gram"] == 0
    assert counts["eigh"] == 0


def test_entry_evaluates_each_closed_radius_once(counts):
    # The closed-vs-oracle and bordered-vs-closed comparisons share one
    # closed-form radius per cross-check sample, all from one call.
    path = Path(__file__).parent / "golden" / "pairunit-8.csv"
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = main(["entry", str(path), "--k", "1", "--l", "2"])
    assert code == 0
    assert json.loads(out.getvalue())["entry"]["cross_check"]["samples"] == 21
    assert counts["radius_squared"] == 1
    assert counts["radius_samples"] == 21
