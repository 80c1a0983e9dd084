"""Run one workload's passes through `edmp.cli.main` in this one process.

    python3 bench/worker.py SPEC.json

`run.py` writes SPEC.json and starts this script with the BLAS thread
count fixed in its environment.  The first pass warms caches and BLAS and
is checked but not timed.  Untraced passes follow for the requested time;
when tracing is asked for, they get half of it and traced passes the other
half.  The reference kernel of reference.py runs before the first timed
pass and after each one, and every pass time is also reported scaled by
the mean of the two kernel times around it.  Every pass is gated: it must
exit 0, its output must equal the first pass's byte for byte, and that
output must pass the workload's check.  The result is printed as one JSON
line on standard output.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import platform
import statistics
import sys
import time
import traceback
from pathlib import Path

from reference import REFERENCE_S, reference_time
from workloads import WORKLOADS

MIN_PASSES = 3


class Gate:
    """Counts passes and the ones that failed, with the first few reasons."""

    def __init__(self, check) -> None:
        self.check = check
        self.expected: str | None = None
        self.expected_problem: str | None = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def judge(self, code: int, out: str, err: str) -> None:
        self.attempted += 1
        if code != 0:
            problem = f"exit code {code}: {(err.strip() or out.strip())[-400:]}"
        elif self.expected is None:
            self.expected = out
            found = self.check(out)
            self.expected_problem = "; ".join(found[:3]) if found else None
            problem = self.expected_problem
        elif out != self.expected:
            problem = "output differs from the first pass"
        else:
            problem = self.expected_problem
        if problem is not None:
            self.failed += 1
            if len(self.problems) < 5:
                self.problems.append(problem)


def run_pass(cli, argv: list[str]) -> tuple[int, str, str, float, float]:
    """One call of the CLI with its output captured: code, stdout, stderr, wall, CPU."""
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        cpu0 = time.process_time()
        wall0 = time.perf_counter()
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            # A crash is a failed pass, not a failed benchmark.
            traceback.print_exc()
            code = -1
        wall = time.perf_counter() - wall0
        cpu = time.process_time() - cpu0
    return code, out.getvalue(), err.getvalue(), wall, cpu


class Timings:
    """Wall and CPU seconds of each pass, raw and scaled by the reference kernel."""

    def __init__(self) -> None:
        self.wall: list[float] = []
        self.cpu: list[float] = []
        self.scaled_wall: list[float] = []
        self.scaled_cpu: list[float] = []


def run_for(cli, argv, gate: Gate, seconds: float, deadline: float,
            recorder=None) -> Timings:
    """Passes until `seconds` have gone by and MIN_PASSES are done, or the deadline."""
    timings = Timings()
    start = time.perf_counter()
    ref_wall, ref_cpu = reference_time()
    while len(timings.wall) < MIN_PASSES or time.perf_counter() - start < seconds:
        if time.perf_counter() > deadline:
            break
        if recorder is not None:
            recorder.begin_pass()
        code, out, err, wall, cpu = run_pass(cli, argv)
        gate.judge(code, out, err)
        next_wall, next_cpu = reference_time()
        timings.wall.append(wall)
        timings.cpu.append(cpu)
        timings.scaled_wall.append(wall * REFERENCE_S / (0.5 * (ref_wall + next_wall)))
        timings.scaled_cpu.append(cpu * REFERENCE_S / (0.5 * (ref_cpu + next_cpu)))
        ref_wall, ref_cpu = next_wall, next_cpu
    return timings


def peak_rss_mb() -> float:
    """Peak resident memory of this process, in MB of 2**20 bytes.

    VmHWM covers this process image only.  `ru_maxrss` is not used because
    Linux carries it over from the parent across fork and exec, so it would
    report the parent's peak whenever that is higher.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


def blas_info() -> dict:
    """numpy and OpenBLAS versions, and the thread count OpenBLAS runs with."""
    import ctypes

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {"numpy": np.__version__, "openblas": blas.get("version"), "blas_threads": None}
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line}
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            get_threads = getattr(lib, symbol, None)
            if get_threads is not None:
                get_threads.restype = ctypes.c_int
                info["blas_threads"] = get_threads()
    return info


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    from edmp import cli

    gate = Gate(WORKLOADS[spec["workload"]].check)
    argv = spec["argv"]
    seconds = float(spec["seconds"])
    deadline = time.perf_counter() + float(spec["budget_s"])

    if spec["trace"]:
        seconds /= 2.0
    gate.judge(*run_pass(cli, argv)[:3])
    timings = run_for(cli, argv, gate, seconds, deadline)
    result = {
        "run_s": timings.scaled_wall,
        "cpu_s": timings.scaled_cpu,
        "wall_s": timings.wall,
        "raw_cpu_s": timings.cpu,
        "peak_rss_mb": peak_rss_mb(),
        "env": {
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "cpus_allowed": len(os.sched_getaffinity(0)),
            **blas_info(),
        },
    }
    if spec["trace"]:
        import tracer

        recorder = tracer.Recorder()
        with tracer.installed(recorder):
            traced = run_for(cli, argv, gate, seconds, deadline, recorder)
        overhead = (statistics.median(traced.scaled_wall)
                    / statistics.median(timings.scaled_wall) - 1.0)
        result["layers"] = tracer.layer_metrics(recorder.pass_totals(), overhead)
        result["traced_passes"] = len(traced.wall)
        recorder.write(Path(spec["workdir"]) / "spans.csv")
    result.update(attempted=gate.attempted, failed=gate.failed, problems=gate.problems)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
