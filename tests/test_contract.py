"""Input contract of the command line, checked on adversarial matrices.

Every matrix that `analyze`, `entry` and `sweep` are given ends either in
a report (exit 0, empty stderr, output that parses) or in one `error:`
line on stderr with a documented exit code, never in a traceback or a
warning.  Warnings are errors under the suite's filterwarnings setting,
so one that escapes the library fails the test like any exception.
"""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

from edmp.cli import main
from edmp.oracle import edm_from_points

# Exit codes of analyze, entry and sweep (see edmp.cli).
DOCUMENTED_EXITS = {0, 2, 3, 4, 5, 7}
KINDS = ("edm", "unit", "duplicate", "perturbed", "non-edm", "asymmetric",
         "non-finite", "subnormal")
SWEEP_COLUMNS = 7


@st.composite
def adversarial_matrices(draw):
    """A matrix file's contents and an entry (k, l) to ask about."""
    n = draw(st.integers(min_value=3, max_value=8))
    kind = draw(st.sampled_from(KINDS))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    points = rng.normal(size=(n, draw(st.integers(min_value=1, max_value=n - 1))))
    if kind != "edm":
        points /= np.linalg.norm(points, axis=1, keepdims=True)
    if kind == "duplicate":
        points[1] = points[0]
    d = np.array(edm_from_points(points).d)
    i, j = rng.choice(n, size=2, replace=False)
    if kind == "perturbed":
        d[i, j] = d[j, i] = d[i, j] + rng.normal()
    elif kind == "non-edm":
        a = rng.uniform(0.0, 4.0, size=(n, n))
        d = a + a.T
        np.fill_diagonal(d, 0.0)
    elif kind == "asymmetric":
        d[i, j] += rng.uniform(1e-6, 1.0)
    elif kind == "non-finite":
        d[i, j] = d[j, i] = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    elif kind == "subnormal":
        d *= 10.0 ** -draw(st.integers(min_value=308, max_value=323)) / max(d.max(), 1e-300)
    exponent = draw(st.one_of(st.just(0), st.integers(min_value=-300, max_value=300)))
    with np.errstate(over="ignore", under="ignore"):
        d = d * 10.0**exponent
    k, l = draw(st.lists(st.integers(min_value=1, max_value=n), min_size=2, max_size=2,
                         unique=True))
    text = "\n".join(",".join(repr(float(x)) for x in row) for row in d) + "\n"
    return text, k, l


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _no_constant(name):
    raise ValueError(f"report holds the non-finite constant {name}")


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(adversarial_matrices())
def test_every_input_ends_in_a_report_or_one_error_line(case):
    text, k, l = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "matrix.csv"
        path.write_text(text)
        entry = [str(path), "--k", str(k), "--l", str(l)]
        for argv in (["analyze", str(path)], ["entry", *entry],
                     ["sweep", *entry, "--num", "5"]):
            code, out, err = _run(argv)
            assert code in DOCUMENTED_EXITS, (argv[0], code, err)
            if code != 0:
                assert out == ""
                assert err.startswith("error: ") and err.count("\n") == 1, err
                continue
            assert err == ""
            if argv[0] == "sweep":
                header, *rows = out.splitlines()
                assert header.count(",") == SWEEP_COLUMNS - 1
                assert rows and all(row.count(",") == SWEEP_COLUMNS - 1 for row in rows)
            else:
                json.loads(out, parse_constant=_no_constant)
