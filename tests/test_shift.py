"""Shift equivariance along the line {D + t E^kl}.

T<=, T= and rho^2(t) are defined on the line, not at its base point.  For
a PairUnit entry theta_c is in T=, so D' = D + theta_c E^kl is unit
spherical and must give the same case, theta_c' = -theta_c, T<= shifted
by -theta_c and rho'^2(t) = rho^2(t + theta_c).
"""

import contextlib
import io
import json
from dataclasses import replace

import pytest

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
from edmp.cli import main
from edmp.matio import matrix_to_csv
from edmp.verify import default_templates

from conftest import perturbed_array

PAIR_TEMPLATES = [t.spec for t in default_templates(8) if t.expected is CaseTag.PAIR_UNIT]
TEMPLATE_CASES = [
    pytest.param(replace(spec, seed=seed), 1e-8,
                 id=f"n{spec.n}-r{spec.r}-{spec.structure.value}-seed{seed}")
    for spec in PAIR_TEMPLATES
    for seed in range(10)
]
# kappa(D') = 9.6e7: the entries of pinv(D') carry about 1e-7 relative error.
SEED22 = InstanceSpec(8, 7, Structure.GENERIC, EntryIndex(1, 8), seed=22)


def shifted(spec):
    d = gen_unit_spherical(spec)
    report = classify(profile(d), spec.entry)
    assert report.case_tag is CaseTag.PAIR_UNIT
    entry = spec.entry
    return report, DistanceMatrix(perturbed_array(d, entry.i, entry.j, report.theta_c))


@pytest.mark.parametrize("spec,rel", TEMPLATE_CASES + [pytest.param(SEED22, 1e-5, id="seed22")])
def test_shift_by_theta_c(spec, rel):
    report, d_shift = shifted(spec)
    tc = report.theta_c
    moved = classify(profile(d_shift), spec.entry)
    assert moved.case_tag is report.case_tag
    assert abs(moved.theta_c + tc) <= rel * abs(tc)
    for end, expect in zip(moved.t_leq, report.t_leq):
        assert abs(end - (expect - tc)) <= rel * abs(tc)
    for t in map(float, moved.t_leq.interior_samples(7)):
        rho_sq = radius_squared(report, t + tc)
        assert abs(radius_squared(moved, t) - rho_sq) <= rel * abs(rho_sq)


def test_entry_cli_on_shifted_seed22(tmp_path):
    # A kappa-blind gate on the two derivations of g raised here.
    _, d_shift = shifted(SEED22)
    path = tmp_path / "shifted.csv"
    path.write_text(matrix_to_csv(d_shift))
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = main(["entry", str(path), "--k", "1", "--l", "8"])
    assert code == 0
    assert json.loads(out.getvalue())["entry"]["case"] == "PairUnit"
