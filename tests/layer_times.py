"""Per-layer times of one scenario1 filter run: phases, Gaussian calls, ranking and LSAP.

    PYTHONPATH=src python tests/layer_times.py [--max-globals 200] [--repeats 5]

Filters scenario1 (truth seed 2026, run seed 2027) ``--repeats`` times at
N_h = ``--max-globals``, timing every call of the four phases of a step
(``mbm.predict``, ``update``, ``estimate`` and ``prune``), of the stacked
Gaussian calls they make (``predict_stack`` in ``predict``;
``innovation_factors``, ``gate``, ``kalman_gains`` and ``posterior_means``
in ``update``), of ``mbm._ranked_columns`` (the filter's ranking, inside
``update``), of ``assignment._murty`` (the ranking's search past each
matrix's best assignment) and of ``assignment.linear_sum_assignment``
(scipy's compiled solver, which both call), with the solves made inside
``_murty`` apart from the root pass's.  Prints the median over the repeats
of the filter's time; of each phase's time, ``update``'s less its ranking;
of the Gaussian calls' time in ``predict`` and in ``update`` (part of those
phases' times); of the ranking time, its Murty time and the rest (the root
pass), the LSAP time and its share inside Murty, the ranking time outside
LSAP; and of the Murty call count, the LSAP solve counts (all, and inside
Murty) and the solutions the ranking emitted (the sum of its counts).  At
N_h = 1 the ranking is a small part of ``update``, so the phase and
Gaussian lines are the profile there.

Scans are drawn before the clock starts, and nothing is scored.  Each timed
call adds two ``perf_counter`` reads, about 0.1 us, to the times around it.
Like ``golden.py``, this file is not collected by pytest.
"""
from __future__ import annotations

import argparse
import collections
import statistics
import time

import mbmtrack.assignment as assignment
import mbmtrack.mbm as mbm
from mbmtrack.mbm import FilterParams
from mbmtrack.sim import builtin_scenario, generate_run_measurements, generate_truth, run_filter

TRUTH_SEED, RUN_SEED = 2026, 2027
PHASES = ("predict", "update", "estimate", "prune")
GAUSSIAN_IN_PREDICT = ("predict_stack",)
GAUSSIAN_IN_UPDATE = ("innovation_factors", "gate", "kalman_gains", "posterior_means")
OPEN_MURTY = [0]  # timed ``_murty`` calls running


def timed(module, name: str, tallies: dict, count=lambda result: 0) -> None:
    """Rebind ``module.name`` to a wrapper that adds each call's time, the call
    and ``count(result)`` to ``tallies[key]``, where ``key`` is ``name``, or
    ``name + " in murty"`` for a call made while a timed ``_murty`` call runs."""
    inner = getattr(module, name)

    def wrapper(*args):
        tally = tallies[name + " in murty" if OPEN_MURTY[0] else name]
        OPEN_MURTY[0] += name == "_murty"
        start = time.perf_counter()
        try:
            result = inner(*args)
        finally:
            tally[0] += time.perf_counter() - start
            tally[1] += 1
            OPEN_MURTY[0] -= name == "_murty"
        tally[2] += count(result)
        return result

    setattr(module, name, wrapper)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--max-globals", type=int, default=200)
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args(argv)
    if args.repeats < 5:
        parser.error("--repeats must be at least 5: medians of fewer runs are noise here")
    scenario = generate_truth(builtin_scenario("scenario1"), TRUTH_SEED)
    scans = generate_run_measurements(scenario, RUN_SEED)
    params = FilterParams(max_globals=args.max_globals)
    # Each tally is [seconds, calls, counted]: the ranking counts the
    # solutions it emits.
    tallies = collections.defaultdict(lambda: [0.0, 0, 0])
    for name in PHASES + GAUSSIAN_IN_PREDICT + GAUSSIAN_IN_UPDATE:
        timed(mbm, name, tallies)
    timed(mbm, "_ranked_columns", tallies, lambda result: sum(result[0]))
    timed(assignment, "_murty", tallies)
    timed(assignment, "linear_sum_assignment", tallies)
    rows = []
    run_filter(scenario, scans, params)  # warm-up: imports, caches, the birth block
    for _ in range(args.repeats):
        tallies.clear()
        start = time.perf_counter()
        run_filter(scenario, scans, params)
        filter_s = time.perf_counter() - start
        ranking, murty = tallies["_ranked_columns"], tallies["_murty"]
        root_lsap = tallies["linear_sum_assignment"]
        murty_lsap = tallies["linear_sum_assignment in murty"]
        lsap = [a + b for a, b in zip(root_lsap, murty_lsap)]
        phases = [tallies[name][0] for name in PHASES]
        phases[1] -= ranking[0]
        gaussian = [sum(tallies[name][0] for name in names)
                    for names in (GAUSSIAN_IN_PREDICT, GAUSSIAN_IN_UPDATE)]
        rows.append((filter_s, *phases, *gaussian, ranking[0], murty[0], ranking[0] - murty[0],
                     lsap[0], murty_lsap[0], ranking[0] - lsap[0],
                     murty[1], lsap[1], murty_lsap[1], ranking[2]))
    medians = [statistics.median(column) for column in zip(*rows)]
    print(f"scenario1, truth seed {TRUTH_SEED}, run seed {RUN_SEED}, "
          f"N_h = {args.max_globals}, median of {args.repeats} runs")
    labels = ("filter", "predict", "update less ranking", "estimate", "prune",
              "gaussian in predict", "gaussian in update", "ranking", "murty", "root pass",
              "lsap", "lsap in murty", "ranking outside lsap")
    for label, value in zip(labels, medians):
        print(f"{label + '_s':24} {value:.4f}")
    counts = ("murty", "lsap", "lsap in murty", "solutions")
    for label, value in zip(counts, medians[len(labels):]):
        print(f"{label + '_count':24} {value:.0f}")


if __name__ == "__main__":
    main()
