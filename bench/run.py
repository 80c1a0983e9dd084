"""The edmp benchmark: one seeded workload of the `edmp` command line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: verify-n8, sweep-n8, sweep-n128, entry-n512 (see workloads.py
and BENCHMARK.json).  Set-up generates the workload's input from the seed
into .bench_work/ and times `setup_s` in fresh interpreters.  One worker
process then runs the passes through `edmp.cli.main` and gates each one.
The BLAS thread count is fixed to one in every process started.

With --trace 0 it reports the end-to-end metrics: `run_s` (wall time of
one warm pass), `setup_s`, `cpu_s` (process CPU time of one pass) and
`peak_rss_mb` (peak resident memory of the worker).  The three times are
medians of times scaled by the reference kernel timed around them (see
reference.py), which cancels the drift in speed of a shared host; the raw
times are printed beside them.  With --trace 1 it
reports the per-layer metrics of tracer.py, from traced passes, and writes
the spans to .bench_work/<workload>/spans.csv.  Readable lines come first;
the last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# Fresh interpreters timed per run; `setup_s` is their median.
SETUP_REPEATS = 7
# Everything must end within this many seconds of the start.
TIME_LIMIT_S = 170.0


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def child_env() -> dict:
    env = dict(os.environ, **BLAS_ENV)
    # Fixed string hashing, so that dict and set layouts repeat across runs.
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def time_setup(input_path: Path | None,
               deadline: float) -> tuple[list[float], list[float], list[str]]:
    """Run the set-up probe SETUP_REPEATS times, each in a fresh interpreter.

    Returns the set-up times scaled by the reference kernel, the raw ones
    and the problems met.
    """
    argv = [sys.executable, str(BENCH / "setup_probe.py")]
    if input_path is not None:
        argv.append(str(input_path))
    # Imports numpy, so only after main() has fixed the BLAS thread count.
    from reference import REFERENCE_S

    scaled, raw, problems = [], [], []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(argv, env=child_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=max(1.0, deadline - time.monotonic()))
        if done.returncode != 0:
            problems.append(f"set-up probe exited {done.returncode}: {done.stderr.strip()[-400:]}")
            continue
        elapsed, reference = map(float, done.stdout.split()[-2:])
        raw.append(elapsed)
        scaled.append(elapsed * REFERENCE_S / reference)
    return scaled, raw, problems


def run_worker(spec: dict, workdir: Path, deadline: float) -> dict:
    spec_path = workdir / "spec.json"
    spec_path.write_text(json.dumps(spec))
    done = subprocess.run([sys.executable, str(BENCH / "worker.py"), str(spec_path)],
                          env=child_env(), cwd=ROOT, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if done.returncode != 0 or not done.stdout.strip():
        raise RuntimeError(f"worker exited {done.returncode}: {done.stderr.strip()[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def show(name: str, values: list[float], unit: str) -> None:
    q1, q2, q3 = quartiles(values)
    line = f"{name:<12} median {q2:.6g} {unit}  p25 {q1:.6g}  p75 {q3:.6g}"
    count = len(values)
    if count > 40:
        # The highest percentile with at least ten samples above it.
        line += f"  p{round(100 * (count - 11) / (count - 1))} {sorted(values)[-11]:.6g}"
    print(f"{line}  samples {count}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    if not (SRC / "edmp" / "cli.py").is_file():
        print(f"error: no edmp sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(BLAS_ENV)  # before numpy is first imported
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS, SetupError

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    workdir = WORK / args.workload
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        prepared = WORKLOADS[args.workload].prepare(args.seed, workdir)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    setup_times: list[float] = []
    raw_setup: list[float] = []
    problems: list[str] = []
    if not args.trace:
        setup_times, raw_setup, problems = time_setup(prepared.input_path, deadline)
    spec = {
        "workload": args.workload,
        "argv": prepared.argv,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "workdir": str(workdir),
        # The worker starts no pass after this; the margin lets the last one finish.
        "budget_s": max(1.0, deadline - time.monotonic() - 20.0),
    }
    try:
        result = run_worker(spec, workdir, deadline)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = result["attempted"] + SETUP_REPEATS * (not args.trace)
    failed = result["failed"] + len(problems)
    problems += result["problems"]
    env = result["env"]
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}  facts {json.dumps(prepared.facts, sort_keys=True)}")
    print(f"command  edmp {' '.join(prepared.argv)}")
    print(f"env      python {env['python']}  numpy {env['numpy']}  nproc {env['nproc']}  "
          f"cpus_allowed {env['cpus_allowed']}  blas_threads {env['blas_threads']}  "
          f"openblas {env['openblas']}  {' '.join(f'{k}={v}' for k, v in BLAS_ENV.items())}")
    if args.trace:
        print(f"traced passes {result['traced_passes']}  spans {workdir / 'spans.csv'}")
        metrics = result["layers"]
        for name, metric in metrics.items():
            print(f"{name:<40} {metric['value']:.6g} {metric['unit']}")
    else:
        show("run_s", result["run_s"], "s")
        show("  raw wall", result["wall_s"], "s")
        if setup_times:
            show("setup_s", setup_times, "s")
            show("  raw", raw_setup, "s")
        show("cpu_s", result["cpu_s"], "s")
        show("  raw cpu", result["raw_cpu_s"], "s")
        print(f"peak_rss_mb  {result['peak_rss_mb']:.6g} MB")
        metrics = {
            "run_s": {"value": statistics.median(result["run_s"]), "unit": "s"},
            "setup_s": {"value": statistics.median(setup_times) if setup_times else 0.0,
                        "unit": "s"},
            "cpu_s": {"value": statistics.median(result["cpu_s"]), "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
    print(f"failed_frac  {failed / attempted:.6g}  ({failed} of {attempted} operations: "
          f"passes{' and set-up probes' if not args.trace else ''})")
    for problem in problems:
        print(f"FAIL {problem}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
