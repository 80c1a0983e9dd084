"""Tests of the benchmark itself: determinism, output checks and tracing.

    python3 -m pytest bench/tests -q

They run short benchmark passes (about a minute in all).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import tracer  # noqa: E402
from workloads import (  # noqa: E402
    PAIR_UNIT,
    SWEEP_HEADER,
    WORKLOADS,
    check_entry,
    check_sweep,
    check_verify,
)

INSTANCE_WORKLOADS = ("sweep-n8", "sweep-n128", "entry-n512")


def run_bench(workload: str, seed: int, trace: int, cwd: Path = ROOT,
              script: Path = BENCH / "run.py") -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result_of(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def exact_counts(result: dict) -> dict:
    return {name: m["value"] for name, m in result["metrics"].items()
            if name.endswith((".calls", "_calls", ".n3_sum"))}


@pytest.mark.parametrize("workload", ["verify-n8", "sweep-n8"])
def test_traced_counts_repeat_exactly(workload):
    first = result_of(run_bench(workload, 5, 1))
    second = result_of(run_bench(workload, 5, 1))
    assert first["correct"] and second["correct"]
    assert first["failed"] == 0
    counts = exact_counts(first)
    assert counts["linalg.sym_eig.calls"] > 0
    assert counts["linalg.sym_eig.n3_sum"] > 0
    assert counts == exact_counts(second)


def test_same_seed_gives_byte_identical_inputs(tmp_path):
    for name in INSTANCE_WORKLOADS:
        a = WORKLOADS[name].prepare(3, tmp_path / "a")
        b = WORKLOADS[name].prepare(3, tmp_path / "b")
        assert a.input_path.read_bytes() == b.input_path.read_bytes()
        assert a.argv[2:] == b.argv[2:]
        assert a.facts == b.facts


@pytest.mark.parametrize("seed", [0, 11])
def test_seeds_keep_the_case_tags(tmp_path, seed):
    for name in INSTANCE_WORKLOADS:
        assert WORKLOADS[name].prepare(seed, tmp_path).facts["case"] == PAIR_UNIT


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    per_layer = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    assert per_layer == tracer.PER_LAYER_METRICS
    result = result_of(run_bench("sweep-n8", 2, 0))
    assert result["correct"]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        name: m["unit"] for name, m in result["metrics"].items()}


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = run_bench("sweep-n8", 1, 0, cwd=tmp_path, script=tmp_path / "bench" / "run.py")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_checks_reject_wrong_outputs():
    assert check_verify("verified 1 instances\nresult: PASS\n") == []
    assert check_verify("verified 1 instances\nresult: FAIL\n")

    good = f"{SWEEP_HEADER}\n0,true,true,0.5,0.50000000000000011,true,false\n"
    assert check_sweep(good, 1) == []
    assert check_sweep(good.replace("0.50000000000000011", "0.5001"), 1)
    assert check_sweep(good.replace(",true,false", ",false,false"), 1)
    assert check_sweep(good, 2)

    cross = {"max_rel_closed_vs_oracle": 1e-12, "max_rel_border_vs_closed": 1e-12,
             "max_unit_residual_on_t_eq": 1e-12}
    doc = {"entry": {"case": PAIR_UNIT, "cross_check": cross}}
    assert check_entry(json.dumps(doc)) == []
    doc["entry"]["case"] = "SingletonUnit"
    assert check_entry(json.dumps(doc))
    doc["entry"].update(case=PAIR_UNIT, cross_check=dict(cross, max_rel_border_vs_closed=None))
    assert check_entry(json.dumps(doc))


def test_tracer_patches_every_importing_module_and_restores():
    import edmp.linalg
    import edmp.model
    import edmp.oracle
    from edmp.oracle import InstanceSpec, gen_unit_spherical

    d = gen_unit_spherical(InstanceSpec(n=6, r=4, seed=1))
    original = edmp.linalg.sym_eig
    recorder = tracer.Recorder()
    with tracer.installed(recorder):
        assert edmp.model.sym_eig is edmp.linalg.sym_eig is edmp.oracle.sym_eig
        assert edmp.linalg.sym_eig is not original
        recorder.begin_pass()
        edmp.model.profile(d)
    assert edmp.linalg.sym_eig is original

    [totals] = recorder.pass_totals()
    assert totals["model.profile"][0] == 1
    assert totals["linalg.sym_eig"][0] >= 2
    assert totals["linalg.sym_eig"][2] == 216 * totals["linalg.sym_eig"][0]
    assert all(row[1] >= 0 for row in totals.values())
    # Self times partition the root span exactly.
    root = recorder.end[0] - recorder.start[0]
    assert recorder.parent[0] == -1
    assert sum(row[1] for row in totals.values()) == root
