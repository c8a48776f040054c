"""Scenario definitions, truth/measurement synthesis, Monte Carlo benchmark.

Randomness comes from numpy's counter-based Philox generator so runs are
reproducible across platforms.  The ground-truth stream uses the base seed;
Monte Carlo run i (1-based) uses base seed + i, which makes a single
``simulate`` invocation identical to run 1 of a benchmark with the same
seed.

Work that does not depend on the filter recursion is done once per run, not
once per step: a run's scans share one factor of R and read the scenario's
per-step truth arrays, and the run is scored by one ``gospa_run`` call on the
positions H x that the model observes.
"""
from __future__ import annotations

import importlib.resources
import math
import os
import time
from dataclasses import dataclass, field, fields, replace
from functools import cached_property
from itertools import repeat

import numpy as np
import yaml

from .errors import InputError, finite_array, integer, read_text, real_number
from .gaussian import GaussianDensity, LinearGaussianModel
# gospa stays a module attribute here: perfbench/tracing.py rebinds it.
from .gospa import GospaParams, GospaResult, gospa, gospa_run, run_summary  # noqa: F401
from .mbm import (
    BirthComponent,
    BirthModel,
    FilterParams,
    TargetEstimate,
    init_empty,
    step,
)

SCENARIO_NAMES = ("scenario1", "scenario2", "scenario3")

_MIDPOINT_MEAN = np.array([150.0, 0.0, 150.0, 0.0])
_MIDPOINT_STD = 0.1
_MIDPOINT_STEP = 41


def constant_velocity_model(
    sampling_time: float = 1.0,
    process_noise_intensity: float = 0.01,
    survival_prob: float = 0.99,
    detection_prob: float = 0.9,
    measurement_noise=None,
    clutter_intensity: float = 0.0,
) -> LinearGaussianModel:
    """Planar constant-velocity model over states [px, vx, py, vy]."""
    T = real_number(sampling_time, "sampling_time", "(0, inf)")
    q = real_number(process_noise_intensity, "process_noise_intensity", "[0, inf)")
    try:  # a float power raises OverflowError rather than returning inf
        block = np.array([[T**3 / 3.0, T**2 / 2.0], [T**2 / 2.0, T]])
    except OverflowError:
        raise InputError(f"sampling_time {T!r} overflows the process noise") from None
    F = np.kron(np.eye(2), np.array([[1.0, T], [0.0, 1.0]]))
    # An overflow leaves Q infinite, which LinearGaussianModel rejects.
    with np.errstate(over="ignore"):
        Q = q * np.kron(np.eye(2), block)
    H = np.kron(np.eye(2), np.array([[1.0, 0.0]]))
    R = np.eye(2) if measurement_noise is None else measurement_noise
    return LinearGaussianModel(F, Q, H, R, survival_prob, detection_prob, clutter_intensity)


@dataclass(frozen=True)
class Trajectory:
    """One target's full generated path plus its alive interval (1-based)."""

    label: tuple[int, int]
    first_step: int
    last_step: int
    states: np.ndarray  # (>= duration, state_dim); rows outside the interval are anchors only

    def alive(self, step_index: int) -> bool:
        return self.first_step <= step_index <= self.last_step


@dataclass(frozen=True)
class Scenario:
    """Model, birth and clutter configuration plus (optional) ground truth.

    Checked on construction, by ``dataclasses.replace`` too, which also sets
    the model's clutter intensity to ``clutter_rate`` over the region's area.
    ``model_at`` gives each step's model.
    """

    name: str
    model: LinearGaussianModel
    birth: BirthModel
    region: tuple[tuple[float, float], tuple[float, float]]
    clutter_rate: float
    duration: int
    detection_schedule: tuple[float, ...] = ()
    filter_defaults: FilterParams = field(default_factory=FilterParams)
    truth: tuple[Trajectory, ...] | None = None

    def __post_init__(self):
        if any(c.density.dim != self.model.state_dim for c in self.birth.components):
            raise InputError(f"birth components must have dimension {self.model.state_dim}")
        if self.model.meas_dim != 2:  # the region, and so the clutter, is planar
            raise InputError(f"measurements must be planar, got measurement dimension "
                             f"{self.model.meas_dim}")
        (x0, x1), (y0, y1) = finite_array(self.region, "region", (2, 2)).tolist()
        area = (x1 - x0) * (y1 - y0)
        if not (x0 < x1 and y0 < y1 and 0.0 < area < math.inf):
            raise InputError("region bounds must increase and enclose a positive, finite area")
        object.__setattr__(self, "region", ((x0, x1), (y0, y1)))
        clutter_rate = real_number(self.clutter_rate, "clutter_rate", "[0, 1e4]")
        object.__setattr__(self, "clutter_rate", clutter_rate)
        intensity = clutter_rate / area
        if not math.isfinite(intensity):
            raise InputError(f"clutter_rate {clutter_rate!r} over region area {area!r} overflows")
        if self.model.clutter_intensity != intensity:
            object.__setattr__(self, "model", replace(self.model, clutter_intensity=intensity))
        object.__setattr__(self, "duration", integer(self.duration, "duration", 1, 10**5))
        from collections.abc import Mapping, Set
        try:
            if isinstance(self.detection_schedule, (Set, Mapping)):  # walked in no step order
                raise TypeError
            schedule = tuple(self.detection_schedule)
        except TypeError:  # also None or a bare number; () is the no-schedule form
            raise InputError("detection_schedule must be a sequence of detection probabilities, "
                             f"got {type(self.detection_schedule).__name__}") from None
        object.__setattr__(self, "detection_schedule", tuple(
            real_number(p_d, f"detection_schedule step {k} detection_prob", "[0, 1]")
            for k, p_d in enumerate(schedule, start=1)
        ))
        for t in self.truth or ():
            states = finite_array(t.states, f"trajectory {t.label} states")
            if states.shape[1:] != (self.model.state_dim,) or len(states) < self.duration:
                raise InputError(
                    f"trajectory {t.label} states must have shape"
                    f" (>= {self.duration}, {self.model.state_dim}), got {states.shape}")

    @cached_property
    def _models(self) -> dict[float, LinearGaussianModel]:
        """``model`` at each p_D of the schedule, one object per value; built on first use."""
        models = {p: replace(self.model, detection_prob=p) for p in set(self.detection_schedule)}
        return models | {self.model.detection_prob: self.model}

    def model_at(self, step_index: int) -> LinearGaussianModel:
        """Step ``step_index``'s (1-based) model: ``model`` at its scheduled p_D, or past it."""
        if 1 <= step_index <= len(self.detection_schedule):
            return self._models[self.detection_schedule[step_index - 1]]
        return self.model

    def truth_at(self, step_index: int) -> list[tuple[tuple[int, int], np.ndarray]]:
        if self.truth is None:
            raise InputError("scenario has no ground truth attached")
        return [
            (t.label, t.states[step_index - 1]) for t in self.truth if t.alive(step_index)
        ]

    @cached_property
    def truth_states(self) -> tuple[np.ndarray, ...]:
        """Per step, the (targets alive, state_dim) array of their true states.

        Built on first use and shared by every run, so never written; step
        k's array is entry k - 1.
        """
        return tuple(
            np.array([state for _, state in self.truth_at(k)]).reshape(-1, self.model.state_dim)
            for k in range(1, self.duration + 1)
        )


def make_rng(seed: int) -> np.random.Generator:
    """Counter-based Philox stream keyed by an int >= 0."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(integer(seed, "seed", 0))))


def _noise_factor(name: str, covariance: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of a noise covariance that samples are drawn from."""
    try:
        return np.linalg.cholesky(covariance)
    except np.linalg.LinAlgError:
        raise InputError(f"simulation needs a positive definite {name} covariance") from None


def generate_truth(scenario: Scenario, seed: int) -> Scenario:
    """Scenario with four crossing trajectories drawn from the base-seed Philox stream.

    Two targets are born at step 1 and two at step 21; the first step-1
    target dies at step 40 (alive through step 39).  Each path is drawn by
    sampling the midpoint state near [150, 0, 150, 0] and running the model
    dynamics forward and backward with per-transition noise.
    """
    duration, model = scenario.duration, scenario.model
    if model.state_dim != len(_MIDPOINT_MEAN):
        raise InputError(f"generate_truth's crossing trajectories need a state of dimension "
                         f"{len(_MIDPOINT_MEAN)}, got {model.state_dim}")
    rng = make_rng(seed)
    specs = (
        ((1, 1), 1, 39),
        ((1, 2), 1, duration),
        ((21, 1), 21, duration),
        ((21, 2), 21, duration),
    )
    # The anchor sits at step 41 for the standard 81-step run; shorter desk
    # runs anchor at their middle step instead.
    midpoint_step = min(_MIDPOINT_STEP, (duration + 1) // 2)
    F = model.transition
    F_inv = np.linalg.inv(F)
    chol_q = _noise_factor("process noise", model.process_noise)
    dim = model.state_dim
    truth = []
    for label, first, last in specs:
        states = np.zeros((duration, dim))
        states[midpoint_step - 1] = _MIDPOINT_MEAN + _MIDPOINT_STD * rng.standard_normal(dim)
        for k in range(midpoint_step, duration):
            states[k] = F @ states[k - 1] + chol_q @ rng.standard_normal(dim)
        for k in range(midpoint_step - 1, 0, -1):
            states[k - 1] = F_inv @ (states[k] - chol_q @ rng.standard_normal(dim))
        truth.append(Trajectory(label, first, min(last, duration), states))
    return replace(scenario, truth=tuple(truth))


def _scan(states, detection_prob, H, chol_r, region, clutter_rate, rng) -> np.ndarray:
    """One scan's draws: per state a detection test, then its noise; then clutter."""
    n_z = len(chol_r)
    points = []
    for x in states:
        if rng.random() < detection_prob:
            points.append(H @ x + chol_r @ rng.standard_normal(n_z))
    (x0, x1), (y0, y1) = region
    # Drawn row-major: x then y for each point in turn.
    clutter = rng.uniform((x0, y0), (x1, y1), size=(rng.poisson(clutter_rate), 2))
    block = np.vstack(points + [clutter])
    return block[rng.permutation(len(block))]


def generate_run_measurements(scenario: Scenario, run_seed: int) -> list[np.ndarray]:
    """Measurement scans for every step of one run (its own Philox stream).

    R is factored once per run, and each step's true states come from the
    scenario's ``truth_states``.
    """
    rng = make_rng(run_seed)
    model = scenario.model
    chol_r = _noise_factor("measurement noise", model.measurement_noise)
    return [
        _scan(states, scenario.model_at(k).detection_prob, model.observation, chol_r,
              scenario.region, scenario.clutter_rate, rng)
        for k, states in enumerate(scenario.truth_states, start=1)
    ]


def run_filter(
    scenario: Scenario, measurements: list[np.ndarray], params: FilterParams
) -> list[list[TargetEstimate]]:
    """Run the MBM recursion over a measurement sequence."""
    state = init_empty()
    estimates = []
    for k, scan in enumerate(measurements, start=1):
        state, step_estimates = step(state, scan, scenario.model_at(k), scenario.birth, params)
        estimates.append(step_estimates)
    return estimates


@dataclass(frozen=True)
class RunRecord:
    seed: int
    measurement_counts: list[int]  # each step's number of measurements
    estimates: list[list[TargetEstimate]]
    gospa: list[GospaResult]
    summary: tuple[float, float, float, float]  # gospa.run_summary of ``gospa``
    duration_s: float

    @property
    def rms_total(self) -> float:
        return self.summary[0]


@dataclass(frozen=True)
class MonteCarloReport:
    records: list[RunRecord]

    @property
    def mean_summary(self) -> tuple[float, ...]:
        """The mean over the runs of each field of their ``summary``."""
        return tuple(float(np.mean(column)) for column in zip(*(r.summary for r in self.records)))

    @property
    def mean_runtime_s(self) -> float:
        return float(np.mean([r.duration_s for r in self.records]))


def _single_run(
    scenario: Scenario,
    params: FilterParams,
    run_seed: int,
    gospa_params: GospaParams,
) -> RunRecord:
    scans = generate_run_measurements(scenario, run_seed)
    t0 = time.perf_counter()
    estimates = run_filter(scenario, scans, params)
    duration = time.perf_counter() - t0
    H, truths = scenario.model.observation, scenario.truth_states
    states = [e.state for step_estimates in estimates for e in step_estimates]
    # Each side's positions H x, projected as one block.
    truth_points, estimate_points = (
        np.reshape(block, (-1, H.shape[1])) @ H.T for block in (np.concatenate(truths), states))
    sizes = [[len(t), len(e)] for t, e in zip(truths, estimates)]
    scores = gospa_run(truth_points, estimate_points, sizes, gospa_params)
    return RunRecord(run_seed, [len(scan) for scan in scans], estimates, scores,
                     run_summary(scores, gospa_params.order), duration)


def run_monte_carlo(
    scenario: Scenario,
    params: FilterParams,
    n_runs: int,
    seed: int,
    gospa_params: GospaParams = GospaParams(),
    workers: int = 1,
) -> MonteCarloReport:
    """Independently seeded filter runs over the scenario's ground truth.

    Truth is drawn once from the base seed and shared across runs.  Runs are
    embarrassingly parallel; ``workers > 1`` fans them out over processes
    while records are still collected in run-index order, so the report is
    identical (timings aside) for any worker count.
    """
    n_runs, seed = integer(n_runs, "n_runs", 1), integer(seed, "seed", 0)
    workers = integer(workers, "workers", 1)
    base = generate_truth(scenario, seed) if scenario.truth is None else scenario
    runs = (repeat(base), repeat(params), range(seed + 1, seed + n_runs + 1), repeat(gospa_params))
    if workers > 1 and n_runs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(workers, n_runs)) as pool:
            return MonteCarloReport(list(pool.map(_single_run, *runs)))
    return MonteCarloReport(list(map(_single_run, *runs)))


# ---------------------------------------------------------------------------
# Scenario configuration files


def _parse_birth(entries) -> BirthModel:
    comps = []
    for entry in entries:
        mean = finite_array(entry["mean"], "birth mean")
        std = finite_array(entry["std"], "birth std", mean.shape)
        comps.append(BirthComponent(entry["existence"], GaussianDensity(mean, np.diag(std**2))))
    return BirthModel(tuple(comps))


def _parse_schedule(raw, scenario: Scenario) -> tuple[float, ...]:
    """Per-step detection probabilities from the file's blocks; ``Scenario`` checks them."""
    if not raw:
        return ()
    schedule = [scenario.model.detection_prob] * scenario.duration
    for block in raw:
        first, last = (integer(v, "detection schedule steps", 1) for v in block["steps"])
        if not first <= last <= scenario.duration:
            raise InputError(f"detection schedule steps {block['steps']} out of range")
        schedule[first - 1:last] = [block["detection_prob"]] * (last - first + 1)
    return tuple(schedule)


# The keys a scenario file may hold; a list holds the keys of each of its entries.
# Model keys but measurement_noise_std are constant_velocity_model's own arguments.
_SCENARIO_KEYS = {
    "name": None,
    "duration": None,
    "clutter_rate": None,
    "region": {"x": None, "y": None},
    "model": dict.fromkeys((
        "sampling_time", "process_noise_intensity", "measurement_noise_std",
        "survival_prob", "detection_prob",
    )),
    "birth": [dict.fromkeys(("existence", "mean", "std"))],
    "detection_schedule": [dict.fromkeys(("steps", "detection_prob"))],
    "filter": dict.fromkeys(f.name for f in fields(FilterParams)),
}


def _unknown_keys(raw: dict, known: dict, where: str = ""):
    """Dotted paths of the keys of ``raw`` that ``known`` does not list."""
    for key, value in raw.items():
        path = f"{where}{key}"
        if key not in known:
            yield path
        elif isinstance(known[key], dict) and isinstance(value, dict):
            yield from _unknown_keys(value, known[key], path + ".")
        elif isinstance(known[key], list) and isinstance(value, list):
            for index, entry in enumerate(value):
                if isinstance(entry, dict):
                    yield from _unknown_keys(entry, known[key][0], f"{path}[{index}].")


def scenario_from_mapping(raw: dict) -> Scenario:
    """Build a Scenario (plus its filter defaults) from parsed config data.

    Every key must be one the loader reads: a misspelt field would otherwise
    leave its default in place without notice.
    """
    unknown = list(_unknown_keys(raw, _SCENARIO_KEYS)) if isinstance(raw, dict) else []
    if unknown:
        raise InputError(f"bad scenario configuration: unknown keys {', '.join(unknown)}")
    # An overflow (a birth std whose square is inf, say) is a bad value too.
    with np.errstate(over="raise"):
        try:
            model_raw = {**raw.get("model", {})}
            noise = model_raw.pop("measurement_noise_std", 1.0)
            noise = real_number(noise, "measurement_noise_std", "[0, inf)")
            scenario = Scenario(
                name=str(raw.get("name", "custom")),
                model=constant_velocity_model(measurement_noise=np.eye(2) * noise**2, **model_raw),
                birth=_parse_birth(raw["birth"]),
                region=(raw["region"]["x"], raw["region"]["y"]),
                clutter_rate=raw["clutter_rate"],
                duration=raw["duration"],
                filter_defaults=FilterParams(**raw.get("filter", {})),  # keys checked above
            )
            # The schedule needs the checked duration.
            schedule = _parse_schedule(raw.get("detection_schedule"), scenario)
            return replace(scenario, detection_schedule=schedule)
        except (AttributeError, LookupError, TypeError, ValueError, ArithmeticError) as exc:
            detail = exc if isinstance(exc, InputError) else repr(exc)
            raise InputError(f"bad scenario configuration: {detail}") from exc


class _UniqueKeyLoader(yaml.SafeLoader):
    """``yaml.SafeLoader`` that refuses a key given twice in a mapping, ``<<`` merges too."""

    def construct_mapping(self, node, deep=False):
        mapping, keys = super().construct_mapping(node, deep), []
        for key_node, _ in node.value:
            keys.append(self.construct_object(key_node, deep))
            if keys[-1] in keys[:-1]:
                problem = f"key {keys[-1]!r} is given twice"
                raise yaml.MarkedYAMLError(problem=problem, problem_mark=key_node.start_mark)
        return mapping


def load_scenario_file(path) -> Scenario:
    try:
        raw = yaml.load(read_text(path), _UniqueKeyLoader)
    except yaml.YAMLError as exc:  # one line: the parser's own message names no file
        mark = getattr(exc, "problem_mark", None)
        where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        problem = getattr(exc, "problem", None) or str(exc).splitlines()[0]
        raise InputError(f"scenario file {path} is not valid YAML{where}: {problem}") from exc
    if not isinstance(raw, dict):
        raise InputError(f"scenario file {path} does not hold a mapping")
    try:
        return scenario_from_mapping(raw)
    except InputError as exc:
        raise InputError(f"scenario file {path}: {exc}") from exc


def builtin_scenario(name: str) -> Scenario:
    if name not in SCENARIO_NAMES:
        raise InputError(f"unknown scenario {name!r}; expected one of {SCENARIO_NAMES}")
    resource = importlib.resources.files("mbmtrack").joinpath(f"data/{name}.yaml")
    with importlib.resources.as_file(resource) as path:
        return load_scenario_file(path)


def resolve_scenario(name_or_path: str) -> Scenario:
    """A builtin scenario name, or a path to a scenario YAML file."""
    if name_or_path in SCENARIO_NAMES:
        return builtin_scenario(name_or_path)
    if os.path.exists(name_or_path):
        return load_scenario_file(name_or_path)
    raise InputError(
        f"unknown scenario {name_or_path!r}: not a builtin name {SCENARIO_NAMES} or a file"
    )
