"""Command-line front end: analyze, entry, sweep, verify, gen.

Exit codes: 0 success (verify: all checks passed), 1 verification
failure, 2 parse error, 3 not an EDM, 4 not unit spherical where
required, 5 entry index out of range, 6 infeasible generator spec,
7 numerical failure (a generator that did not converge, a broken
internal identity, a vanished denominator or another domain error).
The environment variable EDMP_TOL overrides the relative rank cutoff.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import asdict

import numpy as np

from . import __version__
from .errors import (
    DegenerateDenominator,
    EdmpError,
    InfeasibleSpec,
    NotAnEdm,
    NotUnitSpherical,
    ParseError,
)
from .linalg import DEFAULT_TOL, PSD_SLACK, RECON_REL, TolerancePolicy
from .matio import fmt_float, load_matrix, matrix_to_csv, matrix_to_json, report_json
from .model import EdmProfile, profile
from .oracle import (
    InstanceSpec,
    PerturbedLine,
    Structure,
    gen_unit_spherical,
    membership_scan,
)
from .perturbation import CaseTag, PerturbationReport, classify, radius_squared
from .verify import run_verification, worst_border_vs_closed, worst_closed_vs_direct
from .yielding import PARALLEL, EntryIndex

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_PARSE = 2
EXIT_NOT_EDM = 3
EXIT_NOT_UNIT = 4
EXIT_BAD_INDEX = 5
EXIT_INFEASIBLE = 6
EXIT_NUMERICAL = 7

# The first matching row gives the exit code: ParseError is an EdmpError, so it
# precedes the catch-all.  A ValueError is a malformed matrix (asymmetry, diagonal, shape).
EXIT_CODES = (
    (ParseError, EXIT_PARSE),
    (ValueError, EXIT_PARSE),
    (NotAnEdm, EXIT_NOT_EDM),
    (NotUnitSpherical, EXIT_NOT_UNIT),
    (IndexError, EXIT_BAD_INDEX),
    (InfeasibleSpec, EXIT_INFEASIBLE),
    (EdmpError, EXIT_NUMERICAL),
)

SCHEMA_VERSION = "1"


def _policy() -> TolerancePolicy:
    raw = os.environ.get("EDMP_TOL")
    if raw is None:
        return DEFAULT_TOL
    try:
        return TolerancePolicy(rank_rel=float(raw))
    except (TypeError, ValueError) as exc:
        raise ParseError(f"invalid EDMP_TOL value {raw!r}: {exc}") from exc


def _tolerances_block(tol: TolerancePolicy) -> dict:
    return {
        "rank_rel": tol.rank_rel,
        "psd_abs_scale": PSD_SLACK,
        "recon_rel": RECON_REL,
        "parallel": PARALLEL.threshold,
    }


def _profile_block(prof: EdmProfile) -> dict:
    return {
        "n": prof.n,
        "embedding_dim": prof.r,
        "spherical": prof.spherical,
        "unit_spherical": prof.unit_spherical,
        "radius": prof.radius,
        "radius_sq": None if prof.radius is None else prof.radius**2,
        "regular": prof.regular,
        "w": list(prof.w),
        "e_dot_w": prof.sphere.e_dot_w,
        "gale_columns": 0 if prof.Z is None else prof.Z.shape[1],
        "center": None if prof.center is None else list(prof.center),
    }


def _teq_block(report: PerturbationReport) -> dict:
    kinds = {CaseTag.CONTINUUM_UNIT: "continuum", CaseTag.PAIR_UNIT: "pair"}
    return {"kind": kinds.get(report.case_tag, "singleton"), "values": list(report.t_eq)}


def _theta_value(value):
    # A vanished denominator never leaks as an infinity; it is named.
    if value is None:
        return {"degenerate": True, "error": "DegenerateDenominator"}
    return value


def _entry_block(prof: EdmProfile, report: PerturbationReport) -> dict:
    yrep = report.yielding_report
    relation = yrep.gale_relation
    return {
        "k": report.entry.k,
        "l": report.entry.l,
        "yielding": yrep.yielding,
        "gale_relation": {"kind": relation.kind.value, "c": relation.c},
        "theta_lower": _theta_value(yrep.theta_lower),
        "theta_upper": _theta_value(yrep.theta_upper),
        "theta_c": yrep.theta_c,
        "yielding_interval": yrep.interval._asdict(),
        "t_leq": report.t_leq._asdict(),
        "t_eq": _teq_block(report),
        "case": report.case_tag.value,
        "coefficients": None if report.coefficients is None else asdict(report.coefficients),
    }


def _cross_check_block(prof: EdmProfile, report: PerturbationReport) -> dict:
    tleq = report.t_leq
    ts = np.zeros(1) if tleq.width == 0.0 else tleq.interior_samples(21)
    closed = radius_squared(report, ts)
    # One stack of w(t): the samples, then the T= members.
    spheres = PerturbedLine(prof, report.entry).spheres([*ts, *report.teq_members()])
    return {
        "samples": len(ts),
        "max_rel_closed_vs_oracle": worst_closed_vs_direct(closed, spheres.radius_sq[:len(ts)]),
        "max_rel_border_vs_closed": worst_border_vs_closed(report, ts, closed),
        "max_unit_residual_on_t_eq": max([0.0, *spheres.unit_residual[len(ts):].tolist()]),
    }


def _base_document(command: str, tol: TolerancePolicy, warnings: list[str]) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "diagnostics": {"tolerances": _tolerances_block(tol), "warnings": warnings},
    }


def cmd_analyze(args, tol: TolerancePolicy) -> int:
    d = load_matrix(args.file)
    prof = profile(d, tol)
    doc = _base_document("analyze", tol, [])
    doc["profile"] = _profile_block(prof)
    sys.stdout.write(report_json(doc))
    return EXIT_OK


def _load_entry_profile(args, tol: TolerancePolicy) -> tuple[EdmProfile, EntryIndex]:
    d = load_matrix(args.file)
    try:
        entry = EntryIndex(args.k, args.l)
        entry.check_order(d.n)
    except ValueError as exc:
        raise IndexError(str(exc)) from exc
    return profile(d, tol), entry


def cmd_entry(args, tol: TolerancePolicy) -> int:
    prof, entry = _load_entry_profile(args, tol)
    doc = _base_document("entry", tol, [])
    doc["profile"] = _profile_block(prof)
    try:
        report = classify(prof, entry)
    except DegenerateDenominator as exc:
        doc["entry"] = {
            "k": entry.k,
            "l": entry.l,
            "degenerate": True,
            "error": "DegenerateDenominator",
            "detail": str(exc),
        }
    else:
        doc["diagnostics"]["warnings"].extend(report.warnings)
        doc["entry"] = _entry_block(prof, report)
        doc["entry"]["cross_check"] = _cross_check_block(prof, report)
    sys.stdout.write(report_json(doc))
    return EXIT_OK


def cmd_sweep(args, tol: TolerancePolicy) -> int:
    if args.num < 2:
        raise ParseError("--num must be at least 2")
    if not 0 <= args.margin < np.inf:
        raise ParseError("--margin must be nonnegative and finite")
    prof, entry = _load_entry_profile(args, tol)
    report = classify(prof, entry)
    lo, hi = report.yielding_report.interval
    # Beyond 1e150, the bound DistanceMatrix puts on any entry, g's scale overflows.
    if not max(abs(lo - args.margin), abs(hi + args.margin)) <= 1e150:
        raise ParseError(f"--margin {args.margin!r} takes the swept range beyond |t| = 1e150")
    try:
        ts = np.linspace(lo - args.margin, hi + args.margin, args.num)
    except MemoryError as exc:
        raise ParseError(f"--num {args.num} is too large: {exc}") from exc
    scan = membership_scan(prof, entry, ts)
    closed = np.full(ts.shape, np.nan)  # no closed form; NaN also at each pole
    if report.coefficients is not None:
        closed = radius_squared(report, scan.t, extrapolate=True)

    def cells(column):  # lazily, so only the joined rows are held at once
        if column.dtype == bool:
            return ("true" if x else "false" for x in column.tolist())
        return ("" if math.isnan(x) else fmt_float(x) for x in column.tolist())

    columns = (scan.t, scan.is_edm, ~np.isnan(scan.radius_sq), closed, scan.radius_sq,
               scan.in_t_leq, scan.in_t_eq)
    out = ["t,is_edm,is_spherical,radius_sq_closed_form,radius_sq_oracle,in_t_leq,in_t_eq",
           *map(",".join, zip(*map(cells, columns)))]
    sys.stdout.write("\n".join(out) + "\n")
    return EXIT_OK


def cmd_verify(args, tol: TolerancePolicy) -> int:
    summary = run_verification(
        count=args.count,
        seed=args.seed,
        nmax=args.nmax,
        tol=tol,
    )
    sys.stdout.write(summary.render() + "\n")
    return EXIT_OK if summary.passed else EXIT_VERIFY_FAILED


def cmd_gen(args, tol: TolerancePolicy) -> int:
    structure = Structure(args.structure)
    entry = None
    if args.k is not None or args.l is not None:
        if args.k is None or args.l is None:
            raise InfeasibleSpec("--k and --l must be given together")
        try:
            entry = EntryIndex(args.k, args.l)
        except ValueError as exc:
            raise InfeasibleSpec(str(exc)) from exc
    spec = InstanceSpec(n=args.n, r=args.r, structure=structure, entry=entry,
                        seed=args.seed)
    try:
        d = gen_unit_spherical(spec, tol)
    except MemoryError as exc:
        raise ParseError(f"--n {args.n} is too large: {exc}") from exc
    stamp = (
        f"edmp gen --n {args.n} --r {args.r} --structure {structure.value}"
        + (f" --k {entry.k} --l {entry.l}" if entry is not None else "")
        + f" --seed {args.seed}"
    )
    if args.format == "json":
        meta = {"generator": stamp, "seed": args.seed, "n": args.n, "r": args.r,
                "structure": structure.value}
        if entry is not None:
            meta["k"], meta["l"] = entry.k, entry.l
        sys.stdout.write(matrix_to_json(d, meta))
    else:
        sys.stdout.write(matrix_to_csv(d, comments=(stamp,)))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="edmp",
        description="Perturbation analysis of unit spherical Euclidean distance matrices.",
    )
    parser.add_argument("--version", action="version", version=f"edmp {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="profile a distance matrix file")
    p.add_argument("file")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("entry", help="full perturbation report for one entry")
    p.add_argument("file")
    p.add_argument("--k", type=int, required=True, help="1-based row index")
    p.add_argument("--l", type=int, required=True, help="1-based column index")
    p.set_defaults(func=cmd_entry)

    p = sub.add_parser("sweep", help="CSV sweep of oracle verdicts over the yield interval")
    p.add_argument("file")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--num", type=int, default=41, help="number of samples (>= 2)")
    p.add_argument("--margin", type=float, default=0.5,
                   help="extension beyond the yield interval on both sides")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("verify", help="run the seeded invariant suite")
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--nmax", type=int, default=8)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("gen", help="generate a unit spherical instance")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--structure", choices=[s.value for s in Structure],
                   default=Structure.GENERIC.value)
    p.add_argument("--k", type=int)
    p.add_argument("--l", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(func=cmd_gen)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    # argparse takes a value like -1e-300 for an option; join it to its flag.
    while "--margin" in argv[:-1]:
        i = argv.index("--margin")
        argv[i:i + 2] = [f"--margin={argv[i + 1]}"]
    args = parser.parse_args(argv)
    try:
        tol = _policy()
        return args.func(args, tol)
    except (ValueError, IndexError, EdmpError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in EXIT_CODES if isinstance(exc, cls))


if __name__ == "__main__":
    sys.exit(main())
