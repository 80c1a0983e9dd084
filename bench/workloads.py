"""The benchmark's workloads: seeded inputs, CLI arguments and output checks.

Each workload is one `edmp` command.  Its input is generated from the seed
during set-up with `gen_unit_spherical` and written as a CSV file; the
program under test only ever sees that file and the argument list.  The
reasons for choosing each workload are recorded in `BENCHMARK.json`.

The output checks parse text only, so the worker can apply them without
importing anything beyond the standard library.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# Every instance workload perturbs entry (k, l) = (1, 2), 1-based.
ENTRY = (1, 2)
PAIR_UNIT = "PairUnit"

VERIFY_COUNT = 100
SWEEP_N8_NUM = 2001
SWEEP_N128_NUM = 201

# Closed-form and oracle radii must agree to this relative tolerance.
RADIUS_REL_TOL = 1e-8
# Each `entry` cross-check residual must be at most this.
CROSS_CHECK_TOL = 1e-8
CROSS_CHECK_KEYS = (
    "max_rel_closed_vs_oracle",
    "max_rel_border_vs_closed",
    "max_unit_residual_on_t_eq",
)
SWEEP_HEADER = "t,is_edm,is_spherical,radius_sq_closed_form,radius_sq_oracle,in_t_leq,in_t_eq"


class SetupError(RuntimeError):
    """The seeded input does not have the structure the workload is defined on."""


@dataclass
class Prepared:
    """What set-up hands to the measured passes."""

    argv: list[str]
    # File the set-up probe loads and profiles; None when there is no input file.
    input_path: Path | None
    facts: dict


@dataclass(frozen=True)
class Workload:
    name: str
    prepare: Callable[[int, Path], Prepared]
    check: Callable[[str], list[str]]


def _unit_instance(name: str, n: int, r: int, structure: str, seed: int,
                   workdir: Path):
    """Generate, classify and write one unit spherical instance."""
    from edmp.matio import matrix_to_csv
    from edmp.model import profile
    from edmp.oracle import InstanceSpec, Structure, gen_unit_spherical
    from edmp.perturbation import classify
    from edmp.yielding import EntryIndex

    entry = EntryIndex(*ENTRY)
    kind = Structure(structure)
    spec = InstanceSpec(n=n, r=r, structure=kind,
                        entry=None if kind is Structure.GENERIC else entry, seed=seed)
    d = gen_unit_spherical(spec)
    report = classify(profile(d), entry)
    if report.case_tag.value != PAIR_UNIT:
        raise SetupError(
            f"{name}: seed {seed} gives case {report.case_tag.value} at entry {ENTRY}, "
            f"the workload needs {PAIR_UNIT}"
        )
    workdir.mkdir(parents=True, exist_ok=True)
    path = workdir / f"{name}.csv"
    path.write_text(matrix_to_csv(
        d, comments=(f"{name} n={n} r={r} structure={structure} seed={seed}",)))
    return path, report


def _entry_args(path: Path) -> list[str]:
    return [str(path), "--k", str(ENTRY[0]), "--l", str(ENTRY[1])]


def prepare_verify_n8(seed: int, workdir: Path) -> Prepared:
    argv = ["verify", "--count", str(VERIFY_COUNT), "--seed", str(seed), "--nmax", "8"]
    return Prepared(argv, None, {"seed": seed})


def _sweep(name: str, n: int, r: int, structure: str, num: int, seed: int,
           workdir: Path) -> Prepared:
    path, report = _unit_instance(name, n, r, structure, seed, workdir)
    # A margin of half the yielding interval's width puts half of the samples
    # inside it, where each sample takes three eigendecompositions instead of
    # one, so the work of a pass does not depend on the seed.
    lo, hi = report.yielding_report.interval
    margin = 0.5 * (hi - lo)
    argv = ["sweep", *_entry_args(path), "--num", str(num), "--margin", repr(margin)]
    return Prepared(argv, path, {"case": report.case_tag.value, "margin": margin})


def prepare_sweep_n8(seed: int, workdir: Path) -> Prepared:
    return _sweep("sweep-n8", 8, 7, "generic", SWEEP_N8_NUM, seed, workdir)


def prepare_sweep_n128(seed: int, workdir: Path) -> Prepared:
    return _sweep("sweep-n128", 128, 64, "zero-gale", SWEEP_N128_NUM, seed, workdir)


def prepare_entry_n512(seed: int, workdir: Path) -> Prepared:
    path, report = _unit_instance("entry-n512", 512, 256, "zero-gale", seed, workdir)
    return Prepared(["entry", *_entry_args(path)], path, {"case": report.case_tag.value})


def check_verify(out: str) -> list[str]:
    lines = out.rstrip("\n").splitlines()
    if not lines or lines[-1] != "result: PASS":
        tail = lines[-1] if lines else "<no output>"
        return [f"verify did not end in 'result: PASS' (last line {tail!r})"]
    return []


def check_sweep(out: str, num: int) -> list[str]:
    """Every row inside T<= must carry matching closed-form and oracle radii."""
    lines = out.splitlines()
    if not lines or lines[0] != SWEEP_HEADER:
        return ["sweep output does not start with the expected header"]
    rows = lines[1:]
    problems = []
    if len(rows) != num:
        problems.append(f"sweep has {len(rows)} rows, expected {num}")
    inside = 0
    for row in rows:
        cells = row.split(",")
        if len(cells) != 7:
            problems.append(f"malformed sweep row {row!r}")
            continue
        if cells[5] != "true":
            continue
        inside += 1
        closed, oracle = cells[3], cells[4]
        if not closed or not oracle:
            problems.append(f"row t={cells[0]} is in T<= but lacks a radius")
            continue
        c, o = float(closed), float(oracle)
        if not abs(c - o) <= RADIUS_REL_TOL * max(abs(c), abs(o)):
            problems.append(f"row t={cells[0]}: closed form {closed} vs oracle {oracle}")
    if inside == 0:
        problems.append("no sweep row lies in T<=, so no radius was cross-checked")
    return problems


def check_entry(out: str) -> list[str]:
    try:
        entry = json.loads(out)["entry"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"entry output is not a report with an 'entry' block: {exc}"]
    problems = []
    if entry.get("case") != PAIR_UNIT:
        problems.append(f"entry reports case {entry.get('case')!r}, expected {PAIR_UNIT}")
    cross = entry.get("cross_check") or {}
    for key in CROSS_CHECK_KEYS:
        value = cross.get(key)
        if not isinstance(value, (int, float)) or not value <= CROSS_CHECK_TOL:
            problems.append(f"cross_check {key} = {value!r}, must be <= {CROSS_CHECK_TOL}")
    return problems


WORKLOADS = {
    w.name: w
    for w in (
        Workload("verify-n8", prepare_verify_n8, check_verify),
        Workload("sweep-n8", prepare_sweep_n8, lambda out: check_sweep(out, SWEEP_N8_NUM)),
        Workload("sweep-n128", prepare_sweep_n128,
                 lambda out: check_sweep(out, SWEEP_N128_NUM)),
        Workload("entry-n512", prepare_entry_n512, check_entry),
    )
}
