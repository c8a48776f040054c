"""Layer spans and counters for mbmtrack, recorded from outside the package.

``layer_bindings`` lists replacement module attributes (for example
``mbmtrack.mbm.k_best``) that wrap the calls each module makes into the next
one.  Every wrapped call records a span: its name, start, end and the span
that was open when it began.  A layer's self time is its span time minus the
time of the spans opened inside it.  Counters that need a call's arguments or
result (matrix cells, solutions returned, hypotheses kept) are taken at the
same boundaries.

The layers are the package's modules: ``gaussian``, ``assignment``, ``mbm``,
``gospa``, ``sim`` and ``cli``.
"""
from __future__ import annotations

import contextlib
import os
import time
from array import array
from collections import Counter

import numpy as np
from scipy.special import logsumexp

import mbmtrack.assignment as assignment
import mbmtrack.cli as cli
import mbmtrack.mbm as mbm
import mbmtrack.sim as sim

# Span names.  LSAP solves are named by the caller: under a filter ``k_best``
# span they are the filter's, anywhere else they are GOSPA's.
CLI_MAIN = "cli.main"
MONTE_CARLO = "sim.run_monte_carlo"
TRUTH = "sim.truth"
MEASURE = "sim.measure"
STEP = "mbm.step"
PREDICT = "mbm.predict"
UPDATE = "mbm.update"
ESTIMATE = "mbm.estimate"
PRUNE = "mbm.prune"
K_BEST = "assignment.k_best"
LSAP = "assignment.lsap"
GOSPA = "gospa"
GOSPA_LSAP = "gospa.lsap"
KALMAN_PREDICT = "gaussian.predict"
GATE = "gaussian.gate"
POSTERIOR = "gaussian.posterior"

SPAN_NAMES = (
    CLI_MAIN, MONTE_CARLO, TRUTH, MEASURE, STEP, PREDICT, UPDATE, ESTIMATE, PRUNE,
    K_BEST, LSAP, GOSPA, GOSPA_LSAP, KALMAN_PREDICT, GATE, POSTERIOR,
)
_ID = {name: i for i, name in enumerate(SPAN_NAMES)}

# Tolerance of the global-weight normalization check on pruned states.
_LOGSUMEXP_TOL = 1e-9


class Tracer:
    """Spans held in flat arrays, plus named counters."""

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        self.pid = os.getpid()
        self._name = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack: list[int] = []
        self.counters: Counter = Counter()

    def open(self, name_id: int) -> int:
        index = len(self._name)
        self._name.append(name_id)
        self._parent.append(self._stack[-1] if self._stack else -1)
        self._end.append(0.0)
        self._stack.append(index)
        self._start.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self._end[index] = time.perf_counter()
        self._stack.pop()

    def call(self, name_id: int, fn, *args, **kwargs):
        index = self.open(name_id)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(index)

    def current(self) -> int:
        """Name id of the innermost open span, or -1."""
        return self._name[self._stack[-1]] if self._stack else -1

    def layer_times(self) -> dict[str, list[float]]:
        """Per span name: [calls, total seconds, self seconds] over closed spans."""
        if self._stack:
            raise RuntimeError("layer times requested while spans are still open")
        width = len(SPAN_NAMES)
        if not self._name:
            return {name: [0, 0.0, 0.0] for name in SPAN_NAMES}
        names = np.asarray(self._name, dtype=np.intp)
        parents = np.asarray(self._parent, dtype=np.intp)
        duration = np.asarray(self._end) - np.asarray(self._start)
        nested = parents >= 0
        inner = np.bincount(parents[nested], weights=duration[nested], minlength=len(names))
        calls = np.bincount(names, minlength=width)
        total = np.bincount(names, weights=duration, minlength=width)
        own = np.bincount(names, weights=duration - inner, minlength=width)
        return {
            name: [int(calls[i]), float(total[i]), float(own[i])]
            for i, name in enumerate(SPAN_NAMES)
        }

    def drain(self) -> dict:
        """Layer times and counters recorded so far; the tracer starts over."""
        summary = {"spans": self.layer_times(), "counters": dict(self.counters)}
        self.reset()
        return summary


@contextlib.contextmanager
def rebound(bindings):
    """Set ``(module, attribute, value)`` bindings; restore the originals on exit."""
    saved = [(module, attr, getattr(module, attr)) for module, attr, _ in bindings]
    for module, attr, value in bindings:
        setattr(module, attr, value)
    try:
        yield
    finally:
        for module, attr, value in reversed(saved):
            setattr(module, attr, value)


def _span(tracer: Tracer, name: str, fn):
    name_id = _ID[name]

    def traced(*args, **kwargs):
        return tracer.call(name_id, fn, *args, **kwargs)

    return traced


def invariant_violations(state: mbm.MbmState) -> int:
    """Number of failed checks on a pruned state (0 when it is well formed).

    Checks: global log-weights have logsumexp 0, every assignment vector has
    one in-range index per component, and every existence lies in [0, 1].
    """
    failures = 0
    weights = [g.log_weight for g in state.global_hypotheses]
    if not weights or abs(float(logsumexp(weights))) > _LOGSUMEXP_TOL:
        failures += 1
    sizes = [len(c.hypotheses) for c in state.components]
    for g in state.global_hypotheses:
        vector = g.assignment_vector
        if len(vector) != len(sizes) or any(
            not 0 <= idx < size for idx, size in zip(vector, sizes)
        ):
            failures += 1
    for comp in state.components:
        failures += sum(not 0.0 <= h.existence <= 1.0 for h in comp.hypotheses)
    return failures


def layer_bindings(tracer: Tracer) -> list[tuple]:
    """Module-attribute replacements that trace every layer boundary."""
    t = tracer  # counters are read through ``t``: ``reset`` replaces them
    k_best_id, lsap_id, gospa_lsap_id = _ID[K_BEST], _ID[LSAP], _ID[GOSPA_LSAP]
    gate_id, posterior_id = _ID[GATE], _ID[POSTERIOR]
    solve_lsap = assignment.linear_sum_assignment
    filter_k_best = mbm.k_best
    base_prepared = mbm.PreparedMeasurementUpdate
    mbm_update, mbm_prune = mbm.update, mbm.prune

    def linear_sum_assignment(cost, *args, **kwargs):
        in_filter = t.current() == k_best_id
        result = t.call(lsap_id if in_filter else gospa_lsap_id, solve_lsap, cost, *args, **kwargs)
        if in_filter:
            t.counters["assignment.cells"] += cost.size
        return result

    def k_best(*args, **kwargs):
        solutions = t.call(k_best_id, filter_k_best, *args, **kwargs)
        t.counters["assignment.solutions"] += len(solutions)
        return solutions

    class PreparedMeasurementUpdate(base_prepared):
        def __init__(self, prior, model):
            t.call(gate_id, super().__init__, prior, model)
            t.counters["gaussian.gate_calls"] += 1

        def batch_statistics(self, zs):
            maha, logliks = t.call(gate_id, super().batch_statistics, zs)
            t.counters["gaussian.gate_pairs"] += len(maha)
            return maha, logliks

        def posterior(self, z):
            return t.call(posterior_id, super().posterior, z)

    def update(*args, **kwargs):
        state = t.call(_ID[UPDATE], mbm_update, *args, **kwargs)
        vectors = [g.assignment_vector for g in state.global_hypotheses]
        t.counters["mbm.children_created"] += sum(len(c.hypotheses) for c in state.components)
        t.counters["mbm.children_referenced"] += sum(len(set(col)) for col in zip(*vectors))
        t.counters["mbm.globals_created"] += len(vectors)
        return state

    def prune(*args, **kwargs):
        state = t.call(_ID[PRUNE], mbm_prune, *args, **kwargs)
        t.counters["mbm.globals_kept"] += len(state.global_hypotheses)
        t.counters["mbm.invariant_violations"] += invariant_violations(state)
        return state

    return [
        (cli, "main", _span(t, CLI_MAIN, cli.main)),
        (cli, "run_monte_carlo", _span(t, MONTE_CARLO, cli.run_monte_carlo)),
        (sim, "generate_truth", _span(t, TRUTH, sim.generate_truth)),
        (sim, "generate_run_measurements", _span(t, MEASURE, sim.generate_run_measurements)),
        (sim, "step", _span(t, STEP, sim.step)),
        (sim, "gospa", _span(t, GOSPA, sim.gospa)),
        (mbm, "predict", _span(t, PREDICT, mbm.predict)),
        (mbm, "update", update),
        (mbm, "estimate", _span(t, ESTIMATE, mbm.estimate)),
        (mbm, "prune", prune),
        (mbm, "kalman_predict", _span(t, KALMAN_PREDICT, mbm.kalman_predict)),
        (mbm, "PreparedMeasurementUpdate", PreparedMeasurementUpdate),
        (mbm, "k_best", k_best),
        (assignment, "linear_sum_assignment", linear_sum_assignment),
    ]


def merge(summaries) -> dict:
    """Sum layer times and counters over several drained summaries."""
    spans = {name: [0, 0.0, 0.0] for name in SPAN_NAMES}
    counters: Counter = Counter()
    for summary in summaries:
        for name, values in summary["spans"].items():
            spans[name] = [a + b for a, b in zip(spans[name], values)]
        counters.update(summary["counters"])
    return {"spans": spans, "counters": dict(counters)}


def layer_metrics(summary: dict, n_runs: int) -> dict[str, tuple[float, str, str]]:
    """(value, unit, basis) per per-layer metric; counts and seconds are per run."""
    spans, counts = summary["spans"], summary["counters"]

    def calls(name):
        return spans[name][0]

    def total(name):
        return spans[name][1]

    def own(name):
        return spans[name][2]

    def mean(value, unit):
        return (value / n_runs, unit, f"mean of {n_runs} runs")

    def ratio(num, den, unit="ratio"):
        return (num / den if den else 0.0, unit, f"over {n_runs} runs")

    lsap_solves = calls(LSAP)
    created = counts.get("mbm.children_created", 0)
    referenced = counts.get("mbm.children_referenced", 0)
    posterior_calls = calls(POSTERIOR)
    return {
        "assignment.k_best_calls": mean(calls(K_BEST), "count"),
        "assignment.lsap_solves": mean(lsap_solves, "count"),
        "assignment.k_best_self_s": mean(own(K_BEST), "s"),
        "assignment.lsap_s": mean(total(LSAP), "s"),
        "assignment.solutions_per_solve": ratio(counts.get("assignment.solutions", 0), lsap_solves),
        "assignment.cells_per_solve": ratio(counts.get("assignment.cells", 0), lsap_solves, "cells"),
        "gaussian.predict_calls": mean(calls(KALMAN_PREDICT), "count"),
        "gaussian.predict_s": mean(total(KALMAN_PREDICT), "s"),
        "gaussian.gate_calls": mean(counts.get("gaussian.gate_calls", 0), "count"),
        "gaussian.gate_s": mean(total(GATE), "s"),
        "gaussian.posterior_calls": mean(posterior_calls, "count"),
        "gaussian.posterior_s": mean(total(POSTERIOR), "s"),
        "gaussian.gate_pass_frac": ratio(posterior_calls, counts.get("gaussian.gate_pairs", 0)),
        "mbm.predict_s": mean(total(PREDICT), "s"),
        "mbm.update_self_s": mean(own(UPDATE), "s"),
        "mbm.prune_s": mean(total(PRUNE), "s"),
        "mbm.estimate_s": mean(total(ESTIMATE), "s"),
        "mbm.children_created": mean(created, "count"),
        "mbm.children_referenced": mean(referenced, "count"),
        "mbm.children_used_frac": ratio(referenced, created),
        "mbm.globals_created": mean(counts.get("mbm.globals_created", 0), "count"),
        "mbm.globals_kept": mean(counts.get("mbm.globals_kept", 0), "count"),
        "mbm.invariant_violations": (
            counts.get("mbm.invariant_violations", 0), "count", f"total over {n_runs} runs"),
        "gospa.calls": mean(calls(GOSPA), "count"),
        "gospa.s": mean(total(GOSPA), "s"),
        "gospa.lsap_solves": mean(calls(GOSPA_LSAP), "count"),
        "sim.measure_s": mean(total(MEASURE), "s"),
        # Truth is drawn once per process or CLI call, not once per run.
        "sim.truth_s": (
            total(TRUTH) / calls(TRUTH) if calls(TRUTH) else 0.0, "s",
            f"mean of {calls(TRUTH)} truth draws"),
        "cli.self_s": mean(total(CLI_MAIN) - total(MONTE_CARLO), "s"),
    }
