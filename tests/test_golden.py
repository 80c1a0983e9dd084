"""Byte-exact CLI outputs recorded before the classify-once refactor.

`golden/cases.json` lists each command (argv relative to `golden/`) with
its exit code; `golden/<name>.out` holds its stdout.  The inputs are the
three conftest matrices as CSV files.  To record a new set after an
intended output change, run `PYTHONPATH=src python tests/test_golden.py`
from the repository root.
"""

import contextlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from edmp import cli

GOLDEN = Path(__file__).parent / "golden"
ORDERS = {"square": 4, "antipodal": 4, "triangle": 3}
GEN = [
    ("generic", ["--n", "6", "--r", "3"]),
    ("parallel-gale", ["--n", "4", "--r", "2", "--k", "1", "--l", "3"]),
    ("zero-gale", ["--n", "5", "--r", "2", "--k", "1", "--l", "2"]),
    ("mirror", ["--n", "4", "--r", "3", "--k", "1", "--l", "3"]),
    ("zero-w", ["--n", "4", "--r", "3", "--k", "1", "--l", "2"]),
]


def golden_commands() -> list[tuple[str, list[str]]]:
    cases = []
    for name, n in ORDERS.items():
        cases.append((f"analyze-{name}", ["analyze", f"{name}.csv"]))
        for k in range(1, n + 1):
            for l in range(k + 1, n + 1):
                cases.append((f"entry-{name}-{k}{l}",
                              ["entry", f"{name}.csv", "--k", str(k), "--l", str(l)]))
    cases.append(("sweep-triangle-12", ["sweep", "triangle.csv", "--k", "1", "--l", "2"]))
    for structure, args in GEN:
        cases.append((f"gen-{structure}",
                      ["gen", "--seed", "7", *args, "--structure", structure]))
    cases.append(("verify-21-42", ["verify", "--count", "21", "--seed", "42"]))
    return cases


def run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(GOLDEN)
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
    finally:
        os.chdir(cwd)
    return code, out.getvalue()


def _manifest() -> list[dict]:
    return json.loads((GOLDEN / "cases.json").read_text())


@pytest.mark.parametrize("case", _manifest(), ids=lambda case: case["name"])
def test_cli_output_matches_golden(case, monkeypatch):
    monkeypatch.delenv("EDMP_TOL", raising=False)
    code, out = run_cli(case["argv"])
    assert code == case["exit"]
    assert out == (GOLDEN / f"{case['name']}.out").read_text()


def test_manifest_lists_every_command():
    assert [(c["name"], c["argv"]) for c in _manifest()] == [
        (name, argv) for name, argv in golden_commands()
    ]


def record() -> None:
    manifest = []
    for name, argv in golden_commands():
        code, out = run_cli(argv)
        (GOLDEN / f"{name}.out").write_text(out)
        manifest.append({"name": name, "argv": argv, "exit": code})
    (GOLDEN / "cases.json").write_text(json.dumps(manifest, indent=1) + "\n")


if __name__ == "__main__":
    if "EDMP_TOL" in os.environ:
        sys.exit("unset EDMP_TOL before recording goldens")
    record()
