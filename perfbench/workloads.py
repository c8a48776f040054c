"""Workloads of the mbmtrack benchmark: inputs from a seed, timed runs, checks.

Every workload shares the scenario's ground truth drawn from truth seed 2026
and runs Monte Carlo runs keyed by run seeds 2027, 2028, ...  On the
single-process workload a workload seed picks where in the workload's pool of
run seeds its runs start; the CLI workload always runs seeds 2027-2030.  The
runs of every pool were recorded once (``reference.json``) so each run's
RMS-GOSPA and per-step estimate counts can be checked.  The number of runs
follows from ``--seconds`` and the workload's nominal run time, never from the
clock, so a seed and a run length always give the same inputs.
"""
from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import math
import os
import resource
import shutil
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import mbmtrack.cli as cli
import mbmtrack.sim as sim
import tracing

TRUTH_SEED = 2026
FIRST_RUN_SEED = TRUTH_SEED + 1
# The p95 step latency needs at least 200 steps, i.e. three 81-step runs.
MIN_RUNS = 3
# Each CLI call is `mbmtrack benchmark --seed 2026 --runs 4`.  The CLI seeds
# truth and runs from one base seed, so with truth seed 2026 its inputs are
# the same for every workload seed.
CLI_RUNS_PER_CALL = 4
# Runs match their reference when RMS-GOSPA agrees to this relative tolerance
# and the per-step estimate counts agree exactly.
RMS_RTOL = 1e-9

REFERENCE_FILE = Path(__file__).with_name("reference.json")


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: str
    max_globals: int
    # Wall seconds of one run (per worker slot for the CLI) on a 2-core Xeon;
    # sets how many runs a given --seconds asks for.
    nominal_run_s: float
    # Run seeds recorded in reference.json: 2027 .. 2027 + pool - 1.
    pool: int
    why: str
    workers: int = 1


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "s1-nh1", "scenario1", 1, 0.18, 520,
            "k=1 bypasses Murty partitioning: hypothesis generation, prune and GOSPA dominate",
        ),
        Workload(
            "cli-s1-nh200-w2", "scenario1", 200, 2.5, CLI_RUNS_PER_CALL,
            "mbmtrack benchmark CLI with a 2-process pool: fan-out, record pickling, CSV writes",
            workers=2,
        ),
    )
}


def n_runs(workload: Workload, seconds: float, traced: bool) -> int:
    """Runs that take about ``seconds``; a traced run pairs each with an untraced one."""
    runs = max(MIN_RUNS, math.ceil(seconds / workload.nominal_run_s))
    if traced:
        runs = max(1, runs // 2)
    if workload.workers > 1:
        runs = CLI_RUNS_PER_CALL * max(1, runs // CLI_RUNS_PER_CALL)
    return runs


def run_seeds(workload: Workload, seed: int, count: int) -> list[int]:
    """Consecutive run seeds of the pool, starting at ``seed`` mod pool size."""
    offset = seed % workload.pool
    return [FIRST_RUN_SEED + (offset + i) % workload.pool for i in range(count)]


def reference_key(workload: Workload) -> str:
    return f"{workload.scenario}/nh{workload.max_globals}"


class StepClock:
    """Wall time of every ``mbmtrack.sim.step`` call, the filter-step boundary."""

    def __init__(self):
        self.times: list[float] = []

    def wrap(self, step):
        def timed_step(*args, **kwargs):
            start = time.perf_counter()
            try:
                return step(*args, **kwargs)
            finally:
                self.times.append(time.perf_counter() - start)

        return timed_step

    def take(self) -> list[float]:
        times, self.times = self.times, []
        return times


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _sample(record: sim.RunRecord, wall_s: float, step_s: list[float]) -> dict:
    return {
        "seed": record.seed,
        "wall_s": wall_s,
        "filter_s": record.duration_s,
        "rms": record.rms_total,
        "counts": ",".join(str(len(e)) for e in record.estimates),
        "step_s": step_s,
    }


def _failure(run_seed: int) -> dict:
    traceback.print_exc(file=sys.stderr)
    return {"seed": run_seed, "error": traceback.format_exc(limit=1).strip()}


# ---------------------------------------------------------------------------
# Single-process workloads


class SingleProcessRunner:
    """Monte Carlo runs one at a time through ``sim.run_monte_carlo``."""

    def __init__(self, scenario: str, max_globals: int):
        self.scenario_name = scenario
        self.max_globals = max_globals
        self.clock = StepClock()

    def prepare(self) -> None:
        """Load the scenario and draw its ground truth from TRUTH_SEED."""
        scenario = sim.builtin_scenario(self.scenario_name)
        self.scenario = sim.generate_truth(scenario, TRUTH_SEED)
        self.params = dataclasses.replace(scenario.filter_defaults, max_globals=self.max_globals)

    def run(self, run_seed: int) -> dict:
        """One run covering scan synthesis, filtering and GOSPA scoring."""
        self.clock.take()
        start = time.perf_counter()
        try:
            report = sim.run_monte_carlo(self.scenario, self.params, 1, run_seed - 1)
        except Exception:  # a raising run is counted as failed; the others go on
            self.clock.take()
            return _failure(run_seed)
        return _sample(report.records[0], time.perf_counter() - start, self.clock.take())

    def timing_bindings(self) -> list[tuple]:
        return [(sim, "step", self.clock.wrap(sim.step))]


def traced_run(scenario: str, max_globals: int, run_seed: int) -> tuple[dict, dict]:
    """One traced run at truth seed TRUTH_SEED: its sample and its layer metrics."""
    runner = SingleProcessRunner(scenario, max_globals)
    runner.prepare()
    tracer = tracing.Tracer()
    with tracing.rebound(runner.timing_bindings() + tracing.layer_bindings(tracer)):
        sample = runner.run(run_seed)
    return sample, tracing.layer_metrics(tracer.drain(), 1)


def run_single(workload: Workload, seed: int, count: int, trace: bool) -> dict:
    """Untraced runs; with ``trace`` each is followed by a traced run of the same seed."""
    runner = SingleProcessRunner(workload.scenario, workload.max_globals)
    tracer = tracing.Tracer() if trace else None
    plain, traced = [], []
    with tracing.rebound(runner.timing_bindings()):
        if tracer is None:
            runner.prepare()
        else:
            with tracing.rebound(tracing.layer_bindings(tracer)):
                runner.prepare()
        for rs in run_seeds(workload, seed, count):
            plain.append(runner.run(rs))
            if tracer is not None:
                with tracing.rebound(tracing.layer_bindings(tracer)):
                    traced.append(runner.run(rs))
    return {
        "plain": plain,
        "traced": traced,
        "wall_s": sum(s.get("wall_s", 0.0) for s in plain),
        "workers": 1,
        "rss_mb": _peak_rss_mb(),
        "layers": tracer.drain() if tracer is not None else None,
    }


# ---------------------------------------------------------------------------
# The CLI workload


@dataclass
class _WorkerSink:
    """What a forked pool worker needs to report a run back to the parent."""

    single_run: object
    clock: StepClock
    tracer: tracing.Tracer | None
    directory: Path
    parent_pid: int


_SINK: _WorkerSink | None = None  # set around each CLI call, inherited by its workers


def recorded_single_run(*args):
    """``sim._single_run`` in a pool worker, writing the run's sample to a file.

    The pool pickles this function by reference, so it must stay a module
    attribute.  Workers are forked, so they inherit the sink and any tracing
    bindings installed in the parent.
    """
    sink = _SINK
    in_worker = os.getpid() != sink.parent_pid
    if in_worker and sink.tracer is not None and sink.tracer.pid != os.getpid():
        sink.tracer.reset()
    sink.clock.take()
    start = time.perf_counter()
    record = sink.single_run(*args)
    sample = _sample(record, time.perf_counter() - start, sink.clock.take())
    sample["rss_mb"] = _peak_rss_mb()
    if in_worker and sink.tracer is not None:
        sample["layers"] = sink.tracer.drain()
    with open(sink.directory / f"worker-{os.getpid()}.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(sample) + "\n")
    return record


def cli_workers(workload: Workload) -> int:
    return max(1, min(workload.workers, os.cpu_count() or 1))


def cli_call(workload: Workload, out_dir: Path, tracer=None) -> dict:
    """One ``mbmtrack benchmark`` call of CLI_RUNS_PER_CALL runs."""
    global _SINK
    if out_dir.exists():
        shutil.rmtree(out_dir)
    out_dir.mkdir(parents=True)
    clock = StepClock()
    _SINK = _WorkerSink(sim._single_run, clock, tracer, out_dir, os.getpid())
    argv = [
        "benchmark", "--scenario", workload.scenario,
        "--max-globals", str(workload.max_globals),
        "--workers", str(cli_workers(workload)),
        "--runs", str(CLI_RUNS_PER_CALL),
        "--seed", str(TRUTH_SEED),
        "--out", str(out_dir),
    ]
    timing = [(sim, "_single_run", recorded_single_run), (sim, "step", clock.wrap(sim.step))]
    error = None
    start = time.perf_counter()
    try:
        with tracing.rebound(timing), contextlib.ExitStack() as stack:
            if tracer is not None:
                stack.enter_context(tracing.rebound(tracing.layer_bindings(tracer)))
            code = cli.main(argv)
        if code != 0:
            error = f"mbmtrack benchmark exited with code {code}"
    except Exception:  # the whole call fails; its runs count as failed
        traceback.print_exc(file=sys.stderr)
        error = traceback.format_exc(limit=1).strip()
    wall = time.perf_counter() - start
    _SINK = None
    samples = []
    for path in sorted(out_dir.glob("worker-*.jsonl")):
        samples += [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    samples.sort(key=lambda s: s["seed"])
    expected = [FIRST_RUN_SEED + i for i in range(CLI_RUNS_PER_CALL)]
    if error is None and [s["seed"] for s in samples] != expected:
        error = f"worker samples cover run seeds {[s['seed'] for s in samples]}, not {expected}"
    if error is not None:
        samples = [{"seed": rs, "error": error} for rs in expected]
    summary = out_dir / "summary.csv"
    digest = hashlib.sha256(summary.read_bytes()).hexdigest() if summary.exists() else None
    for s in samples:
        s["summary_sha256"] = digest
    return {"samples": samples, "wall_s": wall}


def run_cli(workload: Workload, count: int, trace: bool, out_root: Path) -> dict:
    """Untraced CLI calls; with ``trace`` each is followed by a traced call of the same seed."""
    tracer = tracing.Tracer() if trace else None
    plain, traced, layers, wall = [], [], [], 0.0
    for j in range(count // CLI_RUNS_PER_CALL):
        result = cli_call(workload, out_root / f"call{j}")
        plain += result["samples"]
        wall += result["wall_s"]
        if tracer is not None:
            result = cli_call(workload, out_root / f"traced{j}", tracer)
            traced += result["samples"]
            layers += [s["layers"] for s in result["samples"] if "layers" in s]
    if tracer is not None:
        layers.append(tracer.drain())
    return {
        "plain": plain,
        "traced": traced,
        "wall_s": wall,
        "workers": cli_workers(workload),
        "rss_mb": max((s.get("rss_mb", 0.0) for s in plain), default=0.0),
        "layers": tracing.merge(layers) if tracer is not None else None,
    }


# ---------------------------------------------------------------------------
# Output checks


def load_reference() -> dict:
    return json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))


def check(workload: Workload, sample: dict, reference: dict) -> str | None:
    """Why the run's outputs differ from the recorded reference, or None."""
    if "error" in sample:
        return sample["error"]
    key = reference_key(workload)
    expected = reference["runs"].get(key, {}).get(str(sample["seed"]))
    if expected is None:
        return f"no reference for {key} run seed {sample['seed']}"
    if not math.isclose(sample["rms"], expected["rms"], rel_tol=RMS_RTOL, abs_tol=0.0):
        return f"run seed {sample['seed']}: RMS-GOSPA {sample['rms']!r} != {expected['rms']!r}"
    if sample["counts"] != expected["counts"]:
        return f"run seed {sample['seed']}: per-step estimate counts differ"
    if "summary_sha256" in sample and sample["summary_sha256"] != reference["cli_summary_sha256"]:
        return "summary.csv digest differs"
    return None
