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
import os
import sys

import numpy as np

from . import __version__
from .errors import (
    DegenerateDenominator,
    EdmpError,
    InfeasibleSpec,
    NotAnEdm,
    NotUnitSpherical,
    OutsideTleq,
    ParseError,
    PoleAt,
)
from .linalg import DEFAULT_TOL, PSD_SLACK, RECON_REL, TolerancePolicy
from .matio import fmt_float, load_matrix, matrix_to_csv, matrix_to_json, report_json
from .model import EdmProfile, profile
from .oracle import (
    InstanceSpec,
    Structure,
    gen_unit_spherical,
    membership_scan,
    unit_residual,
)
from .perturbation import PerturbationReport, TeqKind, classify, radius_squared
from .verify import run_verification, worst_border_vs_closed, worst_closed_vs_direct
from .yielding import PARALLEL_TOL, EntryIndex

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
        "parallel": PARALLEL_TOL,
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
        "e_dot_w": float(prof.w.sum()),
        "gale_columns": 0 if prof.Z is None else prof.Z.shape[1],
        "center": None if prof.center is None else list(prof.center),
    }


def _interval_block(interval) -> dict:
    return {"lo": interval.lo, "hi": interval.hi}


def _teq_block(teq) -> dict:
    if teq.kind is TeqKind.CONTINUUM:
        return {"kind": teq.kind.value, "values": [teq.interval.lo, teq.interval.hi]}
    return {"kind": teq.kind.value, "values": list(teq.points)}


def _theta_value(value):
    # A vanished denominator never leaks as an infinity; it is named.
    if value is None:
        return {"degenerate": True, "error": "DegenerateDenominator"}
    return value


def _entry_block(prof: EdmProfile, report: PerturbationReport) -> dict:
    yrep = report.yielding_report
    relation = yrep.gale_relation
    block = {
        "k": report.entry.k,
        "l": report.entry.l,
        "yielding": yrep.yielding,
        "gale_relation": {"kind": relation.kind.value, "c": relation.c},
        "theta_lower": _theta_value(yrep.theta_lower),
        "theta_upper": _theta_value(yrep.theta_upper),
        "theta_c": yrep.theta_c,
        "yielding_interval": _interval_block(yrep.interval),
        "t_leq": _interval_block(report.t_leq),
        "t_eq": _teq_block(report.t_eq),
        "case": report.case_tag.value,
        "coefficients": None,
    }
    if report.coefficients is not None:
        coeffs = report.coefficients
        block["coefficients"] = {
            "alpha1": coeffs.alpha1,
            "alpha2": coeffs.alpha2,
            "beta1": coeffs.beta1,
            "beta2": coeffs.beta2,
            "c": coeffs.c,
            "w_l": coeffs.w_l,
        }
    return block


def _cross_check_block(prof: EdmProfile, report: PerturbationReport) -> dict:
    tleq = report.t_leq
    ts = [0.0] if tleq.width == 0.0 else [float(t) for t in tleq.interior_samples(21)]
    return {
        "samples": len(ts),
        "max_rel_closed_vs_oracle": worst_closed_vs_direct(prof, report, ts),
        "max_rel_border_vs_closed": worst_border_vs_closed(report, ts),
        "max_unit_residual_on_t_eq": max([0.0] + [
            unit_residual(prof.d, report.entry, float(t), prof.tol)[0]
            for t in report.t_eq.members()
        ]),
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


def _load_unit_profile(args, tol: TolerancePolicy) -> tuple[EdmProfile, EntryIndex]:
    d = load_matrix(args.file)
    try:
        entry = EntryIndex(args.k, args.l)
        entry.check_order(d.n)
    except ValueError as exc:
        raise IndexError(str(exc)) from exc
    prof = profile(d, tol)
    if not prof.unit_spherical:
        raise NotUnitSpherical("this subcommand requires a unit spherical EDM")
    return prof, entry


def cmd_entry(args, tol: TolerancePolicy) -> int:
    prof, entry = _load_unit_profile(args, tol)
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
        sys.stdout.write(report_json(doc))
        return EXIT_OK
    doc["diagnostics"]["warnings"].extend(report.warnings)
    doc["entry"] = _entry_block(prof, report)
    doc["entry"]["cross_check"] = _cross_check_block(prof, report)
    sys.stdout.write(report_json(doc))
    return EXIT_OK


def cmd_sweep(args, tol: TolerancePolicy) -> int:
    if args.num < 2:
        raise ParseError("--num must be at least 2")
    if args.margin < 0:
        raise ParseError("--margin must be nonnegative")
    prof, entry = _load_unit_profile(args, tol)
    report = classify(prof, entry)
    lo, hi = report.yielding_report.interval
    ts = np.linspace(lo - args.margin, hi + args.margin, args.num)
    records = membership_scan(prof.d, entry, ts, prof.tol)

    def fmt_bool(x: bool) -> str:
        return "true" if x else "false"

    out = ["t,is_edm,is_spherical,radius_sq_closed_form,radius_sq_oracle,in_t_leq,in_t_eq"]
    for rec in records:
        closed = ""
        if report.coefficients is not None:
            try:
                closed = fmt_float(radius_squared(report, rec.t, extrapolate=True))
            except (PoleAt, OutsideTleq):
                closed = ""
        oracle = "" if rec.radius_sq is None else fmt_float(rec.radius_sq)
        out.append(
            ",".join([
                fmt_float(rec.t),
                fmt_bool(rec.is_edm),
                fmt_bool(rec.is_spherical),
                closed,
                oracle,
                fmt_bool(rec.in_t_leq),
                fmt_bool(rec.in_t_eq),
            ])
        )
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
    d = gen_unit_spherical(spec, tol)
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
