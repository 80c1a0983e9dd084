"""Deterministic operation counts: each entry is classified once and each
matrix of a profile is factored once.

Calls are counted by wrapping numpy's eigh and the yielding classifier as
seen from the perturbation module.  Only a change that lowers a count may
tighten its bound.
"""

import contextlib
import io

import numpy as np
import pytest

import edmp.perturbation
from edmp import CaseTag, EntryIndex, InstanceSpec, classify, gen_unit_spherical, profile
from edmp.cli import main
from edmp.matio import matrix_to_csv
from edmp.verify import run_verification

# eigh calls of run_verification(21, seed=0), measured after the
# classify-once refactor (3,468 before it).
VERIFY_21_EIGH_BOUND = 3211


@pytest.fixture
def counts(monkeypatch):
    seen = {"eigh": 0, "yielding_report": 0}

    def counting(module, name, key):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            seen[key] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counting(np.linalg, "eigh", "eigh")
    counting(edmp.perturbation, "yielding_report", "yielding_report")
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
