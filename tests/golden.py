"""Golden outputs: per-step digests of the filter's states and estimates.

    PYTHONPATH=src python tests/golden.py --regen

reruns every run in ``RUNS`` and rewrites ``golden.json`` beside this file.
A change that moves the filter's outputs on purpose says so and commits the
new file; ``test_golden.py`` replays the runs against it.

Per step the file holds the sha256 of the predicted, updated and pruned
states' arrays and of the estimates, the sizes of those states, and the
estimates themselves.  The digests are bitwise, so they hold only under the
numpy, scipy and Python versions recorded with them.
"""
from __future__ import annotations

import contextlib
import hashlib
import json
import platform
import sys
from pathlib import Path

import numpy as np
import scipy

import mbmtrack.mbm as mbm
from mbmtrack.mbm import FilterParams
from mbmtrack.sim import builtin_scenario, generate_run_measurements, generate_truth, run_filter

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
def _recording(steps: list):
    """Record each stage of every ``mbm.step`` while the block runs."""
    originals = {name: getattr(mbm, name) for name in ("predict", "update", "estimate", "prune")}

    def stage(name):
        def recorded(*args, **kwargs):
            out = originals[name](*args, **kwargs)
            if name == "predict":
                steps.append({})
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
            return out

        return recorded

    try:
        for name in originals:
            setattr(mbm, name, stage(name))
        yield
    finally:
        for name, original in originals.items():
            setattr(mbm, name, original)


def replay(run) -> list[dict]:
    """Per step of one run: digests, counts and estimates (labels, then state)."""
    name, max_globals, run_seed = run
    scenario = generate_truth(builtin_scenario(name), TRUTH_SEED)
    scans = generate_run_measurements(scenario, run_seed)
    steps: list[dict] = []
    with _recording(steps):
        run_filter(scenario, scans, FilterParams(max_globals=max_globals))
    return steps


def regenerate() -> None:
    header = json.dumps({"truth_seed": TRUTH_SEED, "versions": versions()})[:-1]
    # One step per line keeps the diff of a change readable.
    runs = ",\n".join(
        f"  {json.dumps(run_id(run))}: [\n"
        + ",\n".join(f"   {json.dumps(step, separators=(',', ':'))}" for step in replay(run))
        + "\n  ]"
        for run in RUNS
    )
    PATH.write_text(f'{header},\n "runs": {{\n{runs}\n }}\n}}\n')


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        sys.exit(f"usage: {sys.argv[0]} --regen")
    regenerate()
    print(f"wrote {PATH}")
