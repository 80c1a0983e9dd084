"""Time the set-up a user pays in a fresh interpreter.

    python3 bench/setup_probe.py [MATRIX_FILE]

Imports `edmp.cli` and, given a file, loads it and builds its profile,
which includes the first BLAS call of the process.  Interpreter start-up
itself is not counted.  Then times the reference kernel of reference.py
three times, to scale the set-up time by the machine's speed.  Prints the
set-up seconds and the median reference seconds as its last line.
"""

import statistics
import sys
import time

start = time.perf_counter()

import edmp.cli  # noqa: E402,F401  (the import is what is being timed)
from edmp.matio import load_matrix  # noqa: E402
from edmp.model import profile  # noqa: E402

if len(sys.argv) > 1:
    prof = profile(load_matrix(sys.argv[1]))
    if not prof.unit_spherical:
        sys.exit(f"{sys.argv[1]} is not unit spherical")
elapsed = time.perf_counter() - start

from reference import reference_time  # noqa: E402

reference = statistics.median(reference_time()[0] for _ in range(3))
print(repr(elapsed), repr(reference))
