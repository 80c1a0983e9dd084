"""The benchmark's output gates hold on the current code.

Each workload of `bench/workloads.py` is prepared at a seed, its `edmp`
command runs in-process, and the workload's own check must find nothing
wrong.  The module is loaded from its file and is not modified.
"""

import contextlib
import importlib.util
import io
import sys
from pathlib import Path

import pytest

from edmp.cli import main

WORKLOADS_FILE = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"


def _workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS_FILE)
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up by name while they are built.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module.WORKLOADS


WORKLOADS = _workloads()

NARROW_TLEQ = pytest.mark.xfail(
    strict=True,
    reason="open FOUND in CHANGES.md: the sweep grid is keyed to the yielding "
           "interval, not to T<=, so no sample lands in this seed's narrow T<=")


@pytest.mark.parametrize("name,seed", [
    ("verify-n8", 0),
    ("sweep-n8", 0),
    ("sweep-n128", 0),
    ("entry-n512", 0),
    pytest.param("sweep-n128", 15, marks=NARROW_TLEQ),
    pytest.param("sweep-n128", 31, marks=NARROW_TLEQ),
])
def test_workload_passes_its_gate(name, seed, tmp_path):
    workload = WORKLOADS[name]
    prepared = workload.prepare(seed, tmp_path)
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = main(prepared.argv)
    assert code == 0
    assert workload.check(out.getvalue()) == []
