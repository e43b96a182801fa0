"""Time one fresh-process set-up of a workload.

    python3 perfbench/setup_probe.py <workload> <seed>

Measures from the start of this script through ``import combopt``, parsing
or generating the instances, the builder and ``Model.freeze``, up to the
point where ``solve`` or ``run_experiment`` would be called, and prints the
seconds.  The caller puts the repository's ``src`` on ``PYTHONPATH``.
"""

import time

T0 = time.perf_counter()

import sys  # noqa: E402

if sys.argv[1] == "qubo-sa-baseline":
    from combopt.benchstats import run_experiment  # noqa: E402,F401
else:
    from combopt.solver import solve  # noqa: E402,F401

from inputs import prepare  # noqa: E402

prepare(sys.argv[1], int(sys.argv[2]))
print(repr(time.perf_counter() - T0))
