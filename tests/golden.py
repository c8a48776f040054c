"""Golden outputs: per-step digests of the filter's states and estimates.

    PYTHONPATH=src python tests/golden.py --regen

reruns every run in ``RUNS`` and rewrites ``golden.json`` beside this file.
A change that moves the filter's outputs on purpose says so and commits the
new file; ``test_golden.py`` replays the runs against it.

Per step the file holds the sha256 of the predicted, updated and pruned
states' arrays and of the estimates, the sizes of those states, the
estimates themselves and the filter's LSAP solves.  Each run is scored as
the benchmark scores it, and per run the file holds the calls and LSAP
solves of scoring's ``k_best``.  The digests are bitwise, so they hold only
under the numpy, scipy and Python versions recorded with them.
"""
from __future__ import annotations

import contextlib
import functools
import hashlib
import importlib
import json
import platform
import sys
from pathlib import Path

import numpy as np
import scipy

import mbmtrack.assignment as assignment
import mbmtrack.mbm as mbm
import mbmtrack.sim as sim
from mbmtrack.gospa import POSITION_PROJECTION, GospaParams
from mbmtrack.mbm import FilterParams
from mbmtrack.sim import builtin_scenario, generate_truth

# The package attribute ``mbmtrack.gospa`` is the function, so the module
# comes from the import system.
gospa_module = importlib.import_module("mbmtrack.gospa")

PATH = Path(__file__).with_name("golden.json")
TRUTH_SEED = 2026
# (scenario, max_globals, run seed).  Scenarios 2 and 3 at N_h = 1 give no
# estimate at these run seeds and the same states at seeds 2027 and 2028.
RUNS = (
    ("scenario1", 1, 2027),
    ("scenario1", 1, 2028),
    ("scenario1", 200, 2027),
    ("scenario2", 200, 2027),
    ("scenario3", 200, 2027),
)
STATE_ARRAYS = (
    "means", "covariances", "existences", "log_weights", "labels", "histories", "offsets",
    "vectors", "global_log_weights",
)


def versions() -> dict:
    return {
        "python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__,
    }


def run_id(run) -> str:
    name, max_globals, run_seed = run
    return f"{name}-nh{max_globals}-seed{run_seed}"


def _digest(arrays) -> str:
    digest = hashlib.sha256()
    for array in arrays:
        array = np.ascontiguousarray(array)
        digest.update(f"{array.dtype.str}{array.shape}".encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


def _state(state: mbm.MbmState) -> tuple[str, list[int]]:
    """Digest of a state's arrays, and its hypothesis and global counts."""
    arrays = [getattr(state, name) for name in STATE_ARRAYS]
    return _digest(arrays), [len(state.means), len(state.global_log_weights)]


@contextlib.contextmanager
def _recording(steps: list, scoring: dict):
    """Record each stage of every ``mbm.step``, and count LSAP solves, while the block runs.

    A solve inside GOSPA's ``k_best`` counts toward ``scoring``, any other
    toward the filter step under way.
    """
    originals = {name: getattr(mbm, name) for name in ("predict", "update", "estimate", "prune")}
    solve, score_k_best = assignment.linear_sum_assignment, gospa_module.k_best
    filter_solves, in_scoring = [0], []

    def counted_solve(*args):
        if in_scoring:
            scoring["gospa_lsap_solves"] += 1
        else:
            filter_solves[0] += 1
        return solve(*args)

    def counted_k_best(*args, **kwargs):
        scoring["gospa_k_best_calls"] += 1
        in_scoring.append(True)
        try:
            return score_k_best(*args, **kwargs)
        finally:
            in_scoring.pop()

    def stage(name):
        def recorded(*args, **kwargs):
            out = originals[name](*args, **kwargs)
            if name == "predict":
                steps.append({})
                filter_solves[0] = 0
            if name == "estimate":
                labels = np.array([e.label for e in out], dtype=np.intp).reshape(len(out), 2)
                n_x = args[0].means.shape[1]
                states = np.array([e.state for e in out], dtype=float).reshape(len(out), n_x)
                steps[-1]["estimates"] = _digest([labels, states])
                steps[-1]["estimate_values"] = [
                    [*label, *state] for label, state in zip(labels.tolist(), states.tolist())
                ]
            else:
                steps[-1][name], steps[-1][f"{name}_counts"] = _state(out)
            if name == "prune":
                steps[-1]["lsap_solves"] = filter_solves[0]
            return out

        return recorded

    patches = [(mbm, name, stage(name)) for name in originals] + [
        (assignment, "linear_sum_assignment", counted_solve),
        (gospa_module, "k_best", counted_k_best),
    ]
    restore = [(module, name, getattr(module, name)) for module, name, _ in patches]
    try:
        for module, name, patched in patches:
            setattr(module, name, patched)
        yield
    finally:
        for module, name, original in restore:
            setattr(module, name, original)


@functools.cache
def replay(run) -> tuple[list[dict], dict]:
    """One run, filtered and scored the way the benchmark runs it.

    Returns per step the digests, counts, estimates (labels, then state) and
    filter LSAP solves, and the calls and LSAP solves of scoring's ``k_best``.
    The result is cached per run, so tests that read the same run share one
    pass; callers must not modify it.
    """
    name, max_globals, run_seed = run
    scenario = generate_truth(builtin_scenario(name), TRUTH_SEED)
    steps: list[dict] = []
    scoring = dict.fromkeys(("gospa_k_best_calls", "gospa_lsap_solves"), 0)
    with _recording(steps, scoring):
        sim._single_run(
            scenario, FilterParams(max_globals=max_globals), run_seed,
            GospaParams(projection=POSITION_PROJECTION),
        )
    return steps, scoring


def regenerate() -> None:
    header = json.dumps({"truth_seed": TRUTH_SEED, "versions": versions()})[:-1]
    replays = {run_id(run): replay(run) for run in RUNS}
    # One step per line keeps the diff of a change readable.
    runs = ",\n".join(
        f"  {json.dumps(key)}: [\n"
        + ",\n".join(f"   {json.dumps(step, separators=(',', ':'))}" for step in steps)
        + "\n  ]"
        for key, (steps, _) in replays.items()
    )
    scoring = ",\n".join(
        f"  {json.dumps(key)}: {json.dumps(counts)}" for key, (_, counts) in replays.items()
    )
    PATH.write_text(f'{header},\n "runs": {{\n{runs}\n }},\n "scoring": {{\n{scoring}\n }}\n}}\n')


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        sys.exit(f"usage: {sys.argv[0]} --regen")
    regenerate()
    print(f"wrote {PATH}")
