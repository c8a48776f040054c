"""Exact metamorphic relations between two runs of the filter at scenario scale.

Each relation transforms every scan of a run and asserts that the filter's
per-step outputs stay bitwise as they are, so it needs neither recorded
outputs nor a copy of the code, and it holds under any numpy, scipy and
Python version:

* permuting each scan's measurements leaves each step's updated global
  log-weights, the hypotheses each updated global selects (weight,
  existence, mean, covariance and label, component by component) and the
  estimates (as a sorted set of label and state bytes) unchanged: which
  measurement a hypothesis took moves with it;
* appending two points that no hypothesis gates leaves each step's updated
  state (all nine arrays, the global log-weights and means among them) and
  its estimates unchanged;
* at a step whose detection probability is 0, the scan's measurements can
  only be clutter, so replacing the scan by an empty one leaves that step's
  updated state and estimates, and so every later step's, unchanged.

A fault that treats the measurements symmetrically, or never reaches a
gated pair, passes the first two; the exhaustive and reference checks cover those.
"""
import functools
from dataclasses import replace

import numpy as np
import pytest
from golden import STATE_ARRAYS

import mbmtrack.mbm as mbm
from mbmtrack.mbm import FilterParams
from mbmtrack.sim import builtin_scenario, generate_run_measurements, generate_truth

TRUTH_SEED, RUN_SEED = 2026, 2027
# Far outside the scenarios' 300 x 300 m region and every gate.
FAR_POINTS = np.array([[1e4, 1e4], [-1e4, -1e4]])
# At N_h = 1 the one global of scenarios 2 and 3 takes no detection at this
# run seed, so their N_h = 50 runs are the ones whose relations depend on a
# measurement.
RUNS = [("scenario1", 1), ("scenario2", 1), ("scenario3", 1), ("scenario1", 50),
        ("scenario2", 50), ("scenario3", 50)]
# N_h = 1 on every scenario and N_h = 50 on scenario1: each blind-step case runs
# the filter twice.
BLIND_RUNS = RUNS[:4]


@functools.cache
def scenario_scans(name):
    scenario = generate_truth(builtin_scenario(name), TRUTH_SEED)
    return scenario, tuple(generate_run_measurements(scenario, RUN_SEED))


def run(scenario, scans, max_globals, blind=()):
    """Per step, each array of the updated state, the hypotheses of each
    updated global and the estimates, as bytes; the estimates also as a
    sorted set.  The steps in ``blind`` are filtered with p_D = 0."""
    params = FilterParams(max_globals=max_globals)
    state, steps = mbm.init_empty(), []
    for k, zs in enumerate(scans, start=1):
        model = replace(scenario.model, detection_prob=0.0) if k in blind else scenario.model_at(k)
        updated = mbm.update(mbm.predict(state, model, scenario.birth), zs, model, params)
        estimates = [(e.label, e.state.tobytes()) for e in mbm.estimate(updated, params)]
        selected = updated.vectors + updated.offsets[:-1]  # (globals, components) rows
        steps.append({
            **{name: getattr(updated, name).tobytes() for name in STATE_ARRAYS},
            "each global's hypotheses": [
                getattr(updated, name)[selected].tobytes()
                for name in ("log_weights", "existences", "means", "covariances", "labels")
            ],
            "estimates": estimates,
            "estimate set": sorted(estimates),
        })
        state = mbm.prune(updated, params)
    return steps


@functools.cache
def plain_run(name, max_globals):
    scenario, scans = scenario_scans(name)
    return run(scenario, scans, max_globals)


def assert_steps_equal(got, want, keys):
    assert len(got) == len(want)
    for key in keys:
        differ = [k for k, (a, b) in enumerate(zip(got, want), start=1) if a[key] != b[key]]
        assert not differ, f"{key} first differ at step {differ[0]} of {len(want)}"


@pytest.mark.parametrize("name, max_globals", RUNS)
def test_permuted_scans(name, max_globals):
    scenario, scans = scenario_scans(name)
    rng = np.random.default_rng(7)
    permuted = [zs[rng.permutation(len(zs))] for zs in scans]
    assert any(not np.array_equal(a, b) for a, b in zip(permuted, scans))
    assert_steps_equal(run(scenario, permuted, max_globals), plain_run(name, max_globals),
                       ("global_log_weights", "each global's hypotheses", "estimate set"))


@pytest.mark.parametrize("name, max_globals", RUNS)
def test_ungated_points_appended(name, max_globals):
    scenario, scans = scenario_scans(name)
    padded = [np.concatenate((zs, FAR_POINTS)) for zs in scans]
    assert_steps_equal(run(scenario, padded, max_globals), plain_run(name, max_globals),
                       (*STATE_ARRAYS, "estimates"))


@pytest.mark.parametrize("name, max_globals", BLIND_RUNS)
def test_blind_step_scans_act_as_empty_scans(name, max_globals):
    scenario, scans = scenario_scans(name)
    blind = range(3, len(scans) + 1, 7)  # steps 3, 10, 17, ...
    blanked = [np.zeros((0, 2)) if k in blind else zs for k, zs in enumerate(scans, start=1)]
    assert all(len(scans[k - 1]) for k in blind)
    assert_steps_equal(run(scenario, scans, max_globals, blind),
                       run(scenario, blanked, max_globals, blind),
                       (*STATE_ARRAYS, "estimates"))
