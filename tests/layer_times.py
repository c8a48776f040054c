"""Per-layer times of one scenario1 Monte Carlo run: scans, filter phases, ranking, LSAP, scoring.

    PYTHONPATH=src python tests/layer_times.py [--max-globals 200] [--repeats 5]

Runs scenario1 (truth seed 2026, run seed 2027) ``--repeats`` times at
N_h = ``--max-globals``, each as ``run_monte_carlo`` runs it
(``sim._single_run``): scan synthesis (``sim.generate_run_measurements``),
the filter (``sim.run_filter``) and GOSPA scoring (``sim.gospa_run``).  It
times every call of the names in ``BINDINGS``: those three; the four phases
of a step (``mbm.predict``, ``update``, ``estimate`` and ``prune``);
``mbm._normalized`` (the global-weight normalization inside ``update`` and
``prune``); the stacked Gaussian calls the phases make (``predict_stack`` in
``predict``; ``innovation_factors``, ``gate``, ``kalman_gains`` and
``posterior_means`` in ``update``); ``mbm._ranked_columns`` (the filter's
ranking, inside ``update``); ``assignment._murty`` (the ranking's search past
each matrix's best assignment, and scoring's tie checks) and
``assignment.linear_sum_assignment`` (scipy's compiled solver, which both
call).  A call made while a timed ``gospa_run`` or ``_murty`` call runs is
tallied apart, so scoring's Murty and LSAP work stays out of the filter's
lines, and the filter's solves inside ``_murty`` apart from its root pass's.

Prints the median over the repeats of the run's time; of the scans', the
filter's and scoring's; of each phase's time, ``update``'s less its ranking;
of ``_normalized``'s (part of ``update``'s and ``prune``'s); of the Gaussian
calls' time in ``predict`` and in ``update`` (part of those phases' times);
of the ranking time, its Murty time and the rest (the root pass), the LSAP
time and its share inside Murty, the ranking time outside LSAP; of scoring's
Murty time; and of the filter's Murty call count, its LSAP solve counts (all,
and inside Murty), the solutions the ranking emitted (the sum of its counts)
and scoring's Murty call count.  At N_h = 1 the ranking is a small part of
``update``, so the phase and Gaussian lines are the profile there.  A name
that no run calls (renamed, or inlined) is an error, not a line that reads 0.

Each timed call adds two ``perf_counter`` reads, about 0.1 us, to the times
around it.  Like ``golden.py``, this file is not collected by pytest.
"""
from __future__ import annotations

import argparse
import collections
import statistics
import sys
import time

import mbmtrack.assignment as assignment
import mbmtrack.mbm as mbm
import mbmtrack.sim as sim
from mbmtrack.gospa import GospaParams
from mbmtrack.mbm import FilterParams

TRUTH_SEED, RUN_SEED = 2026, 2027
PHASES = ("predict", "update", "estimate", "prune")
GAUSSIAN_IN_PREDICT = ("predict_stack",)
GAUSSIAN_IN_UPDATE = ("innovation_factors", "gate", "kalman_gains", "posterior_means")
BINDINGS = (
    (sim, "generate_run_measurements"), (sim, "run_filter"), (sim, "gospa_run"),
    *((mbm, name) for name in PHASES + GAUSSIAN_IN_PREDICT + GAUSSIAN_IN_UPDATE),
    (mbm, "_normalized"), (mbm, "_ranked_columns"),
    (assignment, "_murty"), (assignment, "linear_sum_assignment"),
)
COUNTED = {"_ranked_columns": lambda result: sum(result[0])}  # the solutions it emits
SCOPES = ("gospa_run", "_murty")  # calls made inside these are tallied apart


def timed(module, name: str, tallies: dict, running: list, count=lambda result: 0) -> None:
    """Rebind ``module.name`` to a wrapper that adds each call's time, the call
    and ``count(result)`` to ``tallies[key]``.  ``running`` holds the timed
    calls of ``SCOPES`` under way, outermost first, and ``key`` is ``name``
    followed by `` in `` and each of them, innermost first
    (``"linear_sum_assignment in _murty in gospa_run"``)."""
    inner, scope = getattr(module, name), name in SCOPES

    def wrapper(*args):
        tally = tallies[" in ".join([name, *reversed(running)])]
        if scope:
            running.append(name)
        start = time.perf_counter()
        try:
            result = inner(*args)
        finally:
            tally[0] += time.perf_counter() - start
            tally[1] += 1
            if scope:
                running.pop()
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
    scenario = sim.generate_truth(sim.builtin_scenario("scenario1"), TRUTH_SEED)
    params, gospa_params = FilterParams(max_globals=args.max_globals), GospaParams()
    tallies = collections.defaultdict(lambda: [0.0, 0, 0])  # [seconds, calls, counted]
    running = []
    for module, name in BINDINGS:
        timed(module, name, tallies, running, COUNTED.get(name, lambda result: 0))
    rows = []
    sim._single_run(scenario, params, RUN_SEED, gospa_params)  # warm-up: imports, caches
    for _ in range(args.repeats):
        tallies.clear()
        start = time.perf_counter()
        sim._single_run(scenario, params, RUN_SEED, gospa_params)
        run_s = time.perf_counter() - start
        ranking, murty = tallies["_ranked_columns"], tallies["_murty"]
        root_lsap = tallies["linear_sum_assignment"]
        murty_lsap = tallies["linear_sum_assignment in _murty"]
        lsap = [a + b for a, b in zip(root_lsap, murty_lsap)]
        phases = [tallies[name][0] for name in PHASES]
        phases[1] -= ranking[0]
        gaussian = [sum(tallies[name][0] for name in names)
                    for names in (GAUSSIAN_IN_PREDICT, GAUSSIAN_IN_UPDATE)]
        scoring_murty = tallies["_murty in gospa_run"]
        rows.append((run_s, tallies["generate_run_measurements"][0], tallies["run_filter"][0],
                     *phases, tallies["_normalized"][0], *gaussian,
                     ranking[0], murty[0], ranking[0] - murty[0],
                     lsap[0], murty_lsap[0], ranking[0] - lsap[0],
                     tallies["gospa_run"][0], scoring_murty[0],
                     murty[1], lsap[1], murty_lsap[1], ranking[2], scoring_murty[1]))
    called = {key.split(" in ")[0] for key, tally in tallies.items() if tally[1]}
    uncalled = [f"{module.__name__}.{name}" for module, name in BINDINGS if name not in called]
    if uncalled:
        sys.exit(f"error: no run called {', '.join(uncalled)}; its lines would read 0")
    medians = [statistics.median(column) for column in zip(*rows)]
    print(f"scenario1, truth seed {TRUTH_SEED}, run seed {RUN_SEED}, "
          f"N_h = {args.max_globals}, median of {args.repeats} runs")
    labels = ("run", "scans", "filter", "predict", "update less ranking", "estimate", "prune",
              "normalized", "gaussian in predict", "gaussian in update", "ranking", "murty",
              "root pass", "lsap", "lsap in murty", "ranking outside lsap", "scoring",
              "scoring murty")
    for label, value in zip(labels, medians):
        print(f"{label + '_s':24} {value:.4f}")
    counts = ("murty", "lsap", "lsap in murty", "solutions", "scoring murty")
    for label, value in zip(counts, medians[len(labels):]):
        print(f"{label + '_count':24} {value:.0f}")


if __name__ == "__main__":
    main()
