"""Set-up of one benchmark process, timed by ``run.py`` from outside.

    python3 setup_probe.py <src dir> <scenario> <run seed>

Imports mbmtrack, loads the scenario YAML, draws its ground truth from truth
seed 2026 and synthesizes the first run's scans, then prints the
CLOCK_MONOTONIC reading at which they were ready.
"""
import sys
import time

sys.path.insert(0, sys.argv[1])

from mbmtrack.sim import builtin_scenario, generate_run_measurements, generate_truth  # noqa: E402

scenario = generate_truth(builtin_scenario(sys.argv[2]), 2026)
scans = generate_run_measurements(scenario, int(sys.argv[3]))
ready = time.clock_gettime(time.CLOCK_MONOTONIC)
print(repr(ready))
