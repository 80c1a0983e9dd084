"""Deterministic operation counts: each entry is classified once and each
matrix of a profile is factored once.

Calls are counted by wrapping numpy's eigh and svd, the yielding
classifier as seen from the perturbation module, `profile` under every
module name that calls it, and `EigDecomp.cond`.  Only a change that
lowers a count may tighten its bound.
"""

import contextlib
import io

import numpy as np
import pytest

import edmp.cayley
import edmp.model
import edmp.oracle
import edmp.perturbation
import edmp.verify
from edmp import CaseTag, EntryIndex, InstanceSpec, classify, gen_unit_spherical, profile
from edmp.cli import main
from edmp.linalg import EigDecomp
from edmp.matio import matrix_to_csv
from edmp.verify import check_bordered, default_templates, run_verification

# eigh and profile calls of run_verification(21, seed=0), measured with
# every matrix of an instance factored once.
VERIFY_21_EIGH_BOUND = 2974
VERIFY_21_PROFILE_CALLS = 67

# svd calls of one classify: the Gale test decides NotYielding, the [w Z]
# test then decides TleqTrivial, and each warning reads the ratio its test
# measured.
CLASSIFY_SVD_CALLS = {CaseTag.NOT_YIELDING: 1, CaseTag.TLEQ_TRIVIAL: 2}


@pytest.fixture
def counts(monkeypatch):
    seen = {"eigh": 0, "svd": 0, "yielding_report": 0, "profile": 0, "cond": 0,
            "centroid_gram": 0}

    def counting(module, name, key):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            seen[key] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counting(np.linalg, "eigh", "eigh")
    counting(np.linalg, "svd", "svd")
    counting(edmp.perturbation, "yielding_report", "yielding_report")
    for module in (edmp.model, edmp.oracle, edmp.verify):
        counting(module, "profile", "profile")
    counting(EigDecomp, "cond", "cond")
    counting(edmp.cayley, "centroid_gram", "centroid_gram")
    return seen


def test_profile_factors_b_and_d_once(counts):
    d = gen_unit_spherical(InstanceSpec(n=8, r=5, seed=0))
    counts["eigh"] = 0
    prof = profile(d)
    assert prof.Z is not None
    assert counts["eigh"] == 2


def test_verify_classifies_each_entry_once(counts):
    summary = run_verification(21, seed=0)
    assert summary.passed
    assert counts["yielding_report"] == 21
    assert counts["eigh"] <= VERIFY_21_EIGH_BOUND
    assert counts["profile"] == VERIFY_21_PROFILE_CALLS


def test_classify_measures_each_parallelism_once(counts):
    tags = set()
    for template in default_templates(8):
        if template.expected not in CLASSIFY_SVD_CALLS:
            continue
        prof = profile(gen_unit_spherical(template.spec))
        counts["svd"] = 0
        report = classify(prof, template.spec.entry)
        assert report.case_tag is template.expected
        assert counts["svd"] == CLASSIFY_SVD_CALLS[template.expected]
        tags.add(report.case_tag)
    assert tags == set(CLASSIFY_SVD_CALLS)


def test_sweep_classifies_once(counts, tmp_path):
    d = gen_unit_spherical(InstanceSpec(n=8, r=7, seed=0))
    assert classify(profile(d), EntryIndex(1, 2)).case_tag is CaseTag.PAIR_UNIT
    path = tmp_path / "d.csv"
    path.write_text(matrix_to_csv(d))
    counts["yielding_report"] = 0
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = main(["sweep", str(path), "--k", "1", "--l", "2", "--num", "2001"])
    assert code == 0
    assert len(out.getvalue().splitlines()) == 2002
    assert counts["yielding_report"] == 1
    assert counts["cond"] == 0


def test_bordered_view_builds_its_gram_once(counts):
    d = gen_unit_spherical(InstanceSpec(n=6, r=3, seed=0))
    prof = profile(d)
    # A border-direct view reads only w~ and builds no bordered Gram.
    assert edmp.cayley.cm_build(d).w_tilde.shape == (7,)
    assert counts["centroid_gram"] == 0
    # The EDM test, the embedding dimension and the Gale check share one.
    results = check_bordered(prof, edmp.cayley.cm_build(d))
    assert all(res.ok for res in results)
    assert counts["centroid_gram"] == 1
