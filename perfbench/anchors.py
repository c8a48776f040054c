"""Tests of the benchmark itself: counter anchors, tracer and output checks.

    python3 -m pytest perfbench/anchors.py

The anchors pin the traced run's deterministic counters to the baseline the
roadmap records for truth seed 2026, run seed 2027 and N_h = 200.  The file is
named outside pytest's ``test_*.py`` pattern so the repository's own suite
does not collect it: a change that is meant to cut LSAP solves moves these
numbers, and the benchmark, not the test suite, reports that.
"""
import math

import numpy as np
import pytest

import run

run.import_package()

import tracing  # noqa: E402
import workloads  # noqa: E402
from mbmtrack.gaussian import GaussianDensity  # noqa: E402
from mbmtrack.mbm import (  # noqa: E402
    BernoulliComponent,
    GlobalHypothesis,
    HypothesisMeta,
    MbmState,
    SingleTargetHypothesis,
)

BASELINE_LSAP_SOLVES = {"scenario1": 152_996, "scenario2": 120_464, "scenario3": 147_552}
BASELINE_K_BEST_CALLS = {"scenario1": 12_840}


def _counts(metrics: dict) -> dict:
    return {name: value for name, (value, unit, _) in metrics.items() if unit != "s"}


@pytest.mark.parametrize("scenario", sorted(BASELINE_LSAP_SOLVES))
def test_traced_counters_reproduce_baseline(scenario):
    first_sample, first = workloads.traced_run(scenario, 200, 2027)
    second_sample, second = workloads.traced_run(scenario, 200, 2027)
    assert "error" not in first_sample and "error" not in second_sample
    assert _counts(first) == _counts(second)
    assert first["assignment.lsap_solves"][0] == BASELINE_LSAP_SOLVES[scenario]
    if scenario in BASELINE_K_BEST_CALLS:
        assert first["assignment.k_best_calls"][0] == BASELINE_K_BEST_CALLS[scenario]
    assert first["mbm.invariant_violations"][0] == 0
    assert first["gospa.calls"][0] == 81


def test_self_time_is_span_time_minus_child_spans(monkeypatch):
    ticks = iter([0.0, 1.0, 3.0, 4.0, 6.0, 10.0])
    monkeypatch.setattr(tracing.time, "perf_counter", lambda: next(ticks))
    tracer = tracing.Tracer()
    outer = tracer.open(tracing.SPAN_NAMES.index(tracing.UPDATE))
    for _ in range(2):
        inner = tracer.open(tracing.SPAN_NAMES.index(tracing.K_BEST))
        tracer.close(inner)
    tracer.close(outer)
    spans = tracer.drain()["spans"]
    assert spans[tracing.UPDATE] == [1, 10.0, 6.0]
    assert spans[tracing.K_BEST] == [2, 4.0, 4.0]


def _state(log_weights, vectors, existences):
    density = GaussianDensity(np.zeros(4), np.eye(4))
    hypotheses = tuple(
        SingleTargetHypothesis(0.0, r, density, HypothesisMeta(1, 1)) for r in existences
    )
    return MbmState(
        (BernoulliComponent(hypotheses),),
        tuple(GlobalHypothesis(w, v) for w, v in zip(log_weights, vectors)),
        1,
    )


def test_invariant_check_counts_each_broken_rule():
    half = math.log(0.5)
    assert tracing.invariant_violations(_state([half, half], [(0,), (1,)], [0.2, 1.0])) == 0
    assert tracing.invariant_violations(_state([half, 0.0], [(0,), (1,)], [0.2, 1.0])) == 1
    assert tracing.invariant_violations(_state([half, half], [(0,), (2,)], [0.2, 1.0])) == 1
    assert tracing.invariant_violations(_state([half, half], [(0,), (1,)], [0.2, 1.5])) == 1


def test_output_check_flags_changed_outputs():
    workload = workloads.WORKLOADS["s1-nh1"]
    reference = workloads.load_reference()
    run_seed = workloads.FIRST_RUN_SEED
    expected = reference["runs"][workloads.reference_key(workload)]
    good = {"seed": run_seed, **expected[str(run_seed)]}
    assert workloads.check(workload, good, reference) is None
    assert "RMS-GOSPA" in workloads.check(workload, {**good, "rms": good["rms"] * 1.001}, reference)
    assert "counts" in workloads.check(workload, {**good, "counts": good["counts"] + ",0"}, reference)
    assert workloads.check(workload, {**good, "seed": 1}, reference).startswith("no reference")
