import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

import mbmtrack.sim as sim
from mbmtrack.errors import InputError
from mbmtrack.gaussian import GaussianDensity, LinearGaussianModel
from mbmtrack.gospa import GospaParams
from mbmtrack.mbm import BirthComponent, BirthModel, FilterParams
from mbmtrack.sim import (
    SCENARIO_NAMES,
    Scenario,
    Trajectory,
    builtin_scenario,
    constant_velocity_model,
    generate_run_measurements,
    generate_truth,
    make_rng,
    run_monte_carlo,
    scenario_from_mapping,
)


class TestBuiltinScenarios:
    def test_all_three_load(self):
        scenarios = {name: builtin_scenario(name) for name in SCENARIO_NAMES}
        assert set(scenarios) == {"scenario1", "scenario2", "scenario3"}

    def test_scenario1_birth_sites(self):
        s = builtin_scenario("scenario1")
        assert len(s.birth.components) == 4
        means = [b.density.mean for b in s.birth.components]
        np.testing.assert_allclose(means[0], [140.0, 0.0, 170.0, 0.0])
        np.testing.assert_allclose(means[1], [165.0, 0.0, 155.0, 0.0])
        np.testing.assert_allclose(means[2], [150.0, 0.0, 160.0, 0.0])
        np.testing.assert_allclose(means[3], [160.0, 0.0, 150.0, 0.0])
        for b in s.birth.components:
            assert b.existence == 0.01
            np.testing.assert_allclose(
                b.density.covariance, np.diag([9.0, 1.0, 9.0, 1.0])
            )

    def test_scenario2_broad_birth(self):
        s = builtin_scenario("scenario2")
        assert len(s.birth.components) == 2
        for b in s.birth.components:
            assert b.existence == 0.02
            np.testing.assert_allclose(b.density.mean, [100.0, 0.0, 100.0, 0.0])
            np.testing.assert_allclose(
                b.density.covariance, np.diag([150.0**2, 1.0, 150.0**2, 1.0])
            )

    def test_scenario3_detection_schedule(self):
        s = builtin_scenario("scenario3")
        assert s.model_at(1).detection_prob == 0.0
        assert s.model_at(10).detection_prob == 0.0
        assert s.model_at(11).detection_prob == 0.9
        assert s.model_at(81).detection_prob == 0.9

    def test_equal_detection_probs_share_one_model(self):
        s = builtin_scenario("scenario3")
        assert s.model_at(1) is s.model_at(10)
        # The schedule's 0.9 steps, and steps past it, run under the model itself.
        assert s.model_at(11) is s.model_at(81) is s.model_at(82) is s.model
        blind = s.model_at(1)
        assert blind.detection_prob == 0.0 and blind.clutter_intensity == s.model.clutter_intensity
        plain = builtin_scenario("scenario1")
        assert plain.detection_schedule == () and plain.model_at(1) is plain.model

    def test_shared_model_constants(self):
        for s in map(builtin_scenario, SCENARIO_NAMES):
            assert s.model.survival_prob == 0.99
            assert s.model.detection_prob == 0.9
            assert s.duration == 81
            assert s.clutter_rate == 10.0
            assert s.region == ((0.0, 300.0), (0.0, 300.0))
            assert s.model.clutter_intensity == pytest.approx(10.0 / 90000.0)
            # T = 1, q = 0.01 constant-velocity blocks
            np.testing.assert_allclose(
                s.model.transition, np.kron(np.eye(2), [[1.0, 1.0], [0.0, 1.0]])
            )
            np.testing.assert_allclose(
                s.model.process_noise,
                0.01 * np.kron(np.eye(2), [[1.0 / 3.0, 0.5], [0.5, 1.0]]),
            )
            np.testing.assert_allclose(s.model.measurement_noise, np.eye(2))

    def test_unknown_name_rejected(self):
        with pytest.raises(InputError):
            builtin_scenario("scenario9")

    def test_renamed_package_copy_loads_its_own_scenarios(self, tmp_path):
        # The copy's scenario1 gets its own name, so a scenario read from any
        # other installed package fails the check as well.
        copy = tmp_path / "mbmcopy"
        shutil.copytree(Path(sim.__file__).parent, copy,
                        ignore=shutil.ignore_patterns("__pycache__"))
        data = copy / "data" / "scenario1.yaml"
        data.write_text(data.read_text(encoding="utf-8").replace(
            "name: scenario1", "name: copied"), encoding="utf-8")
        code = "import mbmcopy.sim as sim; print(sim.builtin_scenario('scenario1').name)"
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": str(tmp_path)}, timeout=60)
        assert (done.returncode, done.stdout, done.stderr) == (0, "copied\n", "")

    def test_bad_mapping_rejected(self):
        with pytest.raises(InputError):
            scenario_from_mapping({"duration": 10})

    @staticmethod
    def minimal_mapping(**extra):
        return {
            "duration": 5,
            "region": {"x": [0.0, 10.0], "y": [0.0, 10.0]},
            "clutter_rate": 1.0,
            "birth": [{"existence": 0.1, "mean": [5.0, 0.0, 5.0, 0.0], "std": [1.0] * 4}],
            **extra,
        }

    def test_filter_defaults_come_from_filter_params(self):
        assert scenario_from_mapping(self.minimal_mapping()).filter_defaults == FilterParams()
        partial = scenario_from_mapping(self.minimal_mapping(filter={"gate_threshold": 9}))
        assert partial.filter_defaults == FilterParams(gate_threshold=9.0)
        assert isinstance(partial.filter_defaults.gate_threshold, float)

    def test_bad_filter_value_rejected(self):
        with pytest.raises(InputError, match="max_globals"):
            scenario_from_mapping(self.minimal_mapping(filter={"max_globals": 0}))

    @pytest.mark.parametrize(
        "extra, field",
        [
            ({"duration": 2.7}, "duration"),
            ({"duration": True}, "duration"),
            ({"filter": {"max_globals": 2.9}}, "max_globals"),
            ({"detection_schedule": [{"steps": [1.5, 3], "detection_prob": 0.5}]}, "steps"),
        ],
        ids=["fractional_duration", "bool_duration", "fractional_max_globals", "fractional_steps"],
    )
    def test_integer_fields_reject_non_integers(self, extra, field):
        with pytest.raises(InputError, match=field):
            scenario_from_mapping(self.minimal_mapping(**extra))

    @pytest.mark.parametrize(
        "extra",
        [
            {"birth": [{"existence": 0.1, "mean": [5.0, 0.0, 5.0, 0.0], "std": [1e200, 1, 1, 1]}]},
            {"birth": [{"existence": 0.1, "mean": [5.0, 0.0, 5.0, 0.0], "std": [1e154, 1, 1, 1]}]},
            {"model": {"process_noise_intensity": 1e308}},
            {"model": {"process_noise_intensity": 1e308, "sampling_time": 2.0}},
        ],
        ids=["birth_std_squared", "birth_variance_doubled", "process_noise_symmetrized",
             "process_noise_scaled"],
    )
    def test_overflow_rejected(self, extra):
        # Tier-1 turns RuntimeWarnings into errors, so an overflow that only
        # warned would fail here with RuntimeWarning, not InputError.
        with pytest.raises(InputError):
            scenario_from_mapping(self.minimal_mapping(**extra))

    def test_model_overflow_rejected(self):
        with pytest.raises(InputError, match="process_noise must be finite"):
            constant_velocity_model(sampling_time=2.0, process_noise_intensity=1e308)

    @pytest.mark.parametrize(
        "kwargs, name",
        [
            ({"sampling_time": 1e200}, "sampling_time"),
            ({"sampling_time": 1e200, "process_noise_intensity": 0.0}, "sampling_time"),
            ({"sampling_time": float("inf")}, "sampling_time"),
            ({"sampling_time": float("nan")}, "sampling_time"),
            ({"sampling_time": 0.0}, "sampling_time"),
            ({"sampling_time": -1.0}, "sampling_time"),
            ({"sampling_time": "a"}, "sampling_time"),
            ({"sampling_time": True}, "sampling_time"),
            ({"process_noise_intensity": float("inf")}, "noise_intensity"),
            ({"process_noise_intensity": -0.5}, "noise_intensity"),
            ({"process_noise_intensity": None}, "noise_intensity"),
        ],
        ids=["time_cubed_overflows", "time_cubed_overflows_noiseless", "inf_time", "nan_time",
             "zero_time", "negative_time", "string_time", "bool_time", "inf_noise",
             "negative_noise", "none_noise"],
    )
    def test_model_inputs_rejected(self, kwargs, name):
        # Tier-1 turns RuntimeWarnings into errors, so a value that only
        # warned would fail here with RuntimeWarning, not InputError.
        with pytest.raises(InputError, match=name):
            constant_velocity_model(**kwargs)

    def test_model_accepts_zero_noise_and_integer_time(self):
        model = constant_velocity_model(sampling_time=2, process_noise_intensity=0)
        assert model.transition[0, 1] == 2.0
        assert not model.process_noise.any()

    @pytest.mark.parametrize(
        "extra",
        [{"region": {"x": ["0", "10"], "y": [0.0, 10.0]}},
         {"birth": [{"existence": 0.1, "mean": ["5", 0.0, 5.0, 0.0], "std": [1.0] * 4}]},
         {"birth": [{"existence": 0.1, "mean": [5.0, 0.0, 5.0, 0.0], "std": [True] * 4}]}],
        ids=["quoted_region", "quoted_birth_mean", "bool_birth_std"],
    )
    def test_arrays_of_quoted_numbers_or_bools_rejected(self, extra):
        with pytest.raises(InputError, match="elements are not real numbers"):
            scenario_from_mapping(self.minimal_mapping(**extra))

    def test_null_model_section_rejected(self):
        with pytest.raises(InputError, match="bad scenario configuration"):
            scenario_from_mapping(self.minimal_mapping(model=None))

    def test_birth_dimension_must_match_the_model(self):
        flat = {"existence": 0.1, "mean": [5.0, 5.0], "std": [1.0, 1.0]}
        with pytest.raises(InputError, match="birth components must have dimension 4"):
            scenario_from_mapping(self.minimal_mapping(birth=[flat]))
        scenario = scenario_from_mapping(self.minimal_mapping())
        flat_birth = BirthModel((BirthComponent(0.1, GaussianDensity(np.zeros(2), np.eye(2))),))
        with pytest.raises(InputError, match="birth components must have dimension 4"):
            replace(scenario, birth=flat_birth)

    @pytest.mark.parametrize("steps", [[4, 6], [3, 2]], ids=["past_duration", "reversed"])
    def test_schedule_block_out_of_range_rejected(self, steps):
        schedule = [{"steps": steps, "detection_prob": 0.5}]
        with pytest.raises(InputError, match=r"detection schedule steps \[.*\] out of range"):
            scenario_from_mapping(self.minimal_mapping(detection_schedule=schedule))

    def test_unknown_keys_rejected_by_path(self):
        raw = self.minimal_mapping(
            modle={},
            region={"x": [0.0, 10.0], "y": [0.0, 10.0], "z": [0.0, 1.0]},
            model={"detection_prob": 0.8, "pd": 0.8},
            filter={"max_global": 5},
            detection_schedule=[{"steps": [1, 2], "detection_prob": 0.5, "prob": 0.5}],
        )
        raw["birth"][0]["stdev"] = 1.0
        with pytest.raises(InputError) as caught:
            scenario_from_mapping(raw)
        for path in ("modle", "region.z", "model.pd", "filter.max_global",
                     "detection_schedule[0].prob", "birth[0].stdev"):
            assert path in str(caught.value)


_NAN, _INF = float("nan"), float("inf")
# Per case: the bad field, its value on a Scenario, and the same mistake in a
# scenario file (keys over TestBuiltinScenarios.minimal_mapping's).
BAD_SCENARIO_FIELDS = {
    "negative_clutter_rate": ("clutter_rate", -1.0, {"clutter_rate": -1.0}),
    "nan_clutter_rate": ("clutter_rate", _NAN, {"clutter_rate": _NAN}),
    "string_clutter_rate": ("clutter_rate", "1", {"clutter_rate": "1"}),
    "nan_region": ("region", ((0, _NAN), (0, 9)), {"region": {"x": [0, _NAN], "y": [0, 9]}}),
    "inf_region": ("region", ((0, _INF), (0, 9)), {"region": {"x": [0, _INF], "y": [0, 9]}}),
    "zero_area_region": ("region", ((5, 5), (0, 9)), {"region": {"x": [5, 5], "y": [0, 9]}}),
    "underflowing_area_region": (
        "region", ((0, 1e-200), (0, 1e-200)), {"region": {"x": [0, 1e-200], "y": [0, 1e-200]}},
    ),
    "intensity_overflowing_region": (  # a subnormal area of 1e-320
        "region", ((0, 1e-160), (0, 1e-160)), {"region": {"x": [0, 1e-160], "y": [0, 1e-160]}},
    ),
    "reversed_region": ("region", ((9, 0), (9, 0)), {"region": {"x": [9, 0], "y": [9, 0]}}),
    "three_row_region": ("region", ((0, 9),) * 3, {"region": {"x": [0, 9, 18], "y": [0, 9, 18]}}),
    "zero_duration": ("duration", 0, {"duration": 0}),
    "fractional_duration": ("duration", 2.5, {"duration": 2.5}),
    "bool_duration": ("duration", True, {"duration": True}),
    "schedule_entry_above_one": (
        "detection_schedule", (0.9, 1.5),
        {"detection_schedule": [{"steps": [2, 2], "detection_prob": 1.5}]},
    ),
}


def _scenario_fields():
    base = builtin_scenario("scenario1")
    return dict(name="probe", model=base.model, birth=base.birth,
                region=((0.0, 300.0), (0.0, 300.0)), clutter_rate=10.0, duration=81)


@pytest.mark.parametrize("build", ["constructor", "replace", "file"])
@pytest.mark.parametrize("case", sorted(BAD_SCENARIO_FIELDS))
def test_every_scenario_path_checks_every_field(case, build):
    field, value, file_extra = BAD_SCENARIO_FIELDS[case]
    with pytest.raises(InputError, match=field):
        if build == "constructor":
            Scenario(**{**_scenario_fields(), field: value})
        elif build == "replace":
            replace(builtin_scenario("scenario1"), **{field: value})
        else:
            scenario_from_mapping(TestBuiltinScenarios.minimal_mapping(**file_extra))


@pytest.mark.parametrize("build", ["constructor", "replace"])
def test_clutter_intensity_follows_rate_and_region(build):
    fields = {"clutter_rate": 40.0, "region": ((0.0, 200.0), (-50.0, 50.0))}
    if build == "constructor":
        scenario = Scenario(**{**_scenario_fields(), **fields})
    else:
        scenario = replace(builtin_scenario("scenario1"), **fields)
    assert scenario.model.clutter_intensity == 40.0 / 20000.0
    # A new rate alone, and a new model, are re-derived as well.
    assert replace(scenario, clutter_rate=10.0).model.clutter_intensity == 10.0 / 20000.0
    other = replace(scenario.model, clutter_intensity=1.0)
    assert replace(scenario, model=other).model.clutter_intensity == 40.0 / 20000.0
    assert replace(builtin_scenario("scenario1"), clutter_rate=40.0).model.clutter_intensity \
        == 40.0 / 90000.0


def test_scenario_stores_converted_fields():
    scenario = Scenario(**{**_scenario_fields(), "region": np.array([[0, 300], [0, 300]]),
                           "clutter_rate": 10, "duration": np.int64(81),
                           "detection_schedule": [0, np.float32(0.5)]})
    assert scenario.region == ((0.0, 300.0), (0.0, 300.0))
    assert type(scenario.region[0][1]) is float and type(scenario.clutter_rate) is float
    assert type(scenario.duration) is int and scenario.detection_schedule == (0.0, 0.5)
    assert scenario.model_at(3) is scenario.model  # past a short schedule


@pytest.mark.parametrize("rows", [1, 3])
@pytest.mark.parametrize("build", ["constructor", "replace"])
def test_scenario_rejects_measurements_that_are_not_planar(rows, build):
    # The region and its uniform clutter are planar, so a scan could not hold
    # both a clutter point and a detection of any other dimension.
    base = builtin_scenario("scenario1")
    model = replace(base.model, observation=np.eye(rows, 4), measurement_noise=np.eye(rows))
    message = f"^measurements must be planar, got measurement dimension {rows}$"
    with pytest.raises(InputError, match=message):
        if build == "constructor":
            Scenario(**{**_scenario_fields(), "model": model})
        else:
            replace(base, model=model)


class TestCrossingTruth:
    def test_counts_follow_birth_and_death_schedule(self):
        scenario = generate_truth(builtin_scenario("scenario1"), 3)
        counts = [len(scenario.truth_at(k)) for k in range(1, 82)]
        assert all(c == 2 for c in counts[0:20])
        assert all(c == 4 for c in counts[20:39])
        assert all(c == 3 for c in counts[39:81])

    def test_midpoints_near_anchor(self):
        scenario = builtin_scenario("scenario1")
        for seed in range(5):
            trajectories = generate_truth(scenario, seed).truth
            assert len(trajectories) == 4
            for t in trajectories:
                mid = t.states[40]
                assert abs(mid[0] - 150.0) < 0.5
                assert abs(mid[2] - 150.0) < 0.5
                assert abs(mid[1]) < 0.5 and abs(mid[3]) < 0.5

    def test_labels_and_intervals(self):
        trajectories = generate_truth(builtin_scenario("scenario1"), 0).truth
        spec = {t.label: (t.first_step, t.last_step) for t in trajectories}
        assert spec == {
            (1, 1): (1, 39),
            (1, 2): (1, 81),
            (21, 1): (21, 81),
            (21, 2): (21, 81),
        }

    @pytest.mark.parametrize("seed", [-1, (1, -2), 1.5, True, "3", None])
    def test_bad_seed_rejected(self, seed):
        scenario = builtin_scenario("scenario1")
        for draw in (make_rng, lambda s: generate_truth(scenario, s),
                     lambda s: generate_run_measurements(generate_truth(scenario, 1), s)):
            with pytest.raises(InputError, match="seed must be an integer >= 0"):
                draw(seed)

    def test_seed_tuples_rejected(self):
        # A run's stream is keyed by one int; SeedSequence would take a tuple.
        with pytest.raises(InputError, match=r"seed must be an integer >= 0, got \(3, 1\)"):
            make_rng((3, 1))

    def test_crossing_trajectories_need_a_4d_state(self):
        model = LinearGaussianModel(np.eye(2), np.eye(2), np.eye(2), np.eye(2), 0.99, 0.9, 0.0)
        birth = BirthModel((BirthComponent(0.1, GaussianDensity(np.zeros(2), np.eye(2))),))
        scenario = replace(builtin_scenario("scenario1"), model=model, birth=birth)
        with pytest.raises(InputError, match="need a state of dimension 4, got 2"):
            generate_truth(scenario, 1)
        with pytest.raises(InputError, match="need a state of dimension 4, got 2"):
            run_monte_carlo(scenario, FilterParams(), 1, 1)

    def test_same_seed_same_truth(self):
        scenario = builtin_scenario("scenario1")
        a = generate_truth(scenario, 9).truth
        b = generate_truth(scenario, 9).truth
        for t1, t2 in zip(a, b):
            assert np.array_equal(t1.states, t2.states)

    def test_dynamics_consistency(self):
        # each transition must be reachable under the model: x' - F x has the
        # process-noise distribution; check the empirical second moment
        scenario = builtin_scenario("scenario1")
        model = scenario.model
        residuals = []
        for seed in range(40):
            for t in generate_truth(scenario, seed).truth:
                diffs = t.states[1:] - t.states[:-1] @ model.transition.T
                residuals.append(diffs)
        residuals = np.concatenate(residuals)
        cov = residuals.T @ residuals / len(residuals)
        np.testing.assert_allclose(cov, model.process_noise, atol=2e-3)


class TestMeasurementGeneration:
    @staticmethod
    def scenario(duration, truth=(), **fields):
        """scenario1 over ``duration`` steps with the given truth (none by default)."""
        return replace(builtin_scenario("scenario1"), duration=duration, truth=truth, **fields)

    @staticmethod
    def still(state, duration, label=(1, 1)):
        """A trajectory that stays at ``state`` for ``duration`` steps."""
        return Trajectory(label, 1, duration, np.tile(state, (duration, 1)))

    def test_no_sources_no_measurements(self):
        quiet = self.scenario(50, clutter_rate=0.0)
        for scan in generate_run_measurements(quiet, 0):
            assert scan.shape == (0, 2)

    def test_non_finite_states_rejected(self):
        track = self.still([150.0, 0.0, np.nan, 0.0], 5)
        with pytest.raises(InputError, match=r"trajectory \(1, 1\) states must be finite"):
            self.scenario(5, (track,))

    @pytest.mark.parametrize(
        "states", [np.zeros((5, 2)), np.zeros(5), np.zeros((5, 4, 1)), np.zeros((4, 4))],
        ids=["two_columns", "flat", "three_dimensional", "fewer_rows_than_duration"],
    )
    def test_misshapen_states_rejected(self, states):
        good = self.still(np.zeros(4), 5)
        bad = Trajectory((21, 2), 1, 5, states)
        with pytest.raises(InputError, match=r"trajectory \(21, 2\) states must have shape"):
            self.scenario(5, (good, bad))

    def test_truth_may_outlast_the_duration(self):
        scenario = self.scenario(5, (self.still([1.0, 0.0, 2.0, 0.0], 9),))
        assert len(scenario.truth_states) == 5

    def test_detection_residual_moments(self):
        x = np.array([150.0, 0.0, 120.0, 0.0])
        certain = self.scenario(10_000, (self.still(x, 10_000),), clutter_rate=0.0,
                                model=constant_velocity_model(detection_prob=1.0))
        residuals = []
        for scan in generate_run_measurements(certain, 1):
            assert scan.shape == (1, 2)
            residuals.append(scan[0] - certain.model.observation @ x)
        residuals = np.asarray(residuals)
        cov = residuals.T @ residuals / len(residuals)
        assert np.abs(cov - np.eye(2)).max() < 0.1
        assert np.abs(residuals.mean(axis=0)).max() < 0.05

    def test_clutter_mean_and_chi_square_gof(self):
        scans = generate_run_measurements(self.scenario(10_000), 123)
        counts = np.array([len(scan) for scan in scans])
        assert abs(counts.mean() - 10.0) < 0.2
        # chi-square goodness of fit against Poisson(10) at the 1% level
        max_count = counts.max()
        observed = np.bincount(counts, minlength=max_count + 1).astype(float)
        expected = stats.poisson.pmf(np.arange(max_count + 1), 10.0) * len(counts)
        expected[-1] += (1.0 - stats.poisson.cdf(max_count, 10.0)) * len(counts)
        # merge sparse tails so every expected bin has mass >= 5
        while expected[0] < 5:
            expected[1] += expected[0]
            observed[1] += observed[0]
            expected, observed = expected[1:], observed[1:]
        while expected[-1] < 5:
            expected[-2] += expected[-1]
            observed[-2] += observed[-1]
            expected, observed = expected[:-1], observed[:-1]
        _, p_value = stats.chisquare(observed, expected * observed.sum() / expected.sum())
        assert p_value > 0.01

    def test_clutter_uniform_over_region(self):
        points = np.concatenate(generate_run_measurements(self.scenario(2000), 7))
        assert points.min() >= 0.0 and points.max() <= 300.0
        assert abs(points[:, 0].mean() - 150.0) < 3.0
        assert abs(points[:, 1].mean() - 150.0) < 3.0

    @staticmethod
    def per_point_scan(states, detection_prob, model, region, clutter_rate, rng):
        """Reference scan that draws each clutter point's x, then its y, in a loop."""
        chol_r = np.linalg.cholesky(model.measurement_noise)
        points = []
        for x in states:
            if rng.random() < detection_prob:
                points.append(model.observation @ x + chol_r @ rng.standard_normal(2))
        (x0, x1), (y0, y1) = region
        for _ in range(rng.poisson(clutter_rate)):
            points.append(np.array([rng.uniform(x0, x1), rng.uniform(y0, y1)]))
        if not points:
            return np.zeros((0, 2))
        block = np.vstack(points)
        return block[rng.permutation(len(block))]

    @pytest.mark.parametrize("clutter_rate", [0.0, 0.5, 10.0, 60.0])
    def test_clutter_matches_per_point_draws(self, clutter_rate, monkeypatch):
        region = ((-50.0, 250.0), (10.0, 400.0))
        states = [np.array([100.0, 1.0, 200.0, -1.0]), np.array([0.0, 0.0, 50.0, 0.0])]
        scenario = self.scenario(
            5, (self.still(states[0], 5), self.still(states[1], 5, (1, 2))),
            region=region, clutter_rate=clutter_rate, detection_schedule=(0.6,) * 5,
        )
        streams = []

        def recorded_rng(seed):
            streams.append(make_rng(seed))
            return streams[-1]

        monkeypatch.setattr(sim, "make_rng", recorded_rng)
        for seed in range(20):
            scans = generate_run_measurements(scenario, seed)
            reference_rng = make_rng(seed)
            for scan in scans:
                expected = self.per_point_scan(
                    states, 0.6, scenario.model, region, clutter_rate, reference_rng
                )
                assert scan.shape == expected.shape
                assert scan.tobytes() == expected.tobytes()
            np.testing.assert_equal(
                streams[-1].bit_generator.state, reference_rng.bit_generator.state
            )

    def test_scenario3_targets_silent_early(self):
        scenario = generate_truth(builtin_scenario("scenario3"), 11)
        # remove clutter so only target-originated measurements remain
        import dataclasses

        quiet = dataclasses.replace(scenario, clutter_rate=0.0)
        scans = generate_run_measurements(quiet, 12)
        assert all(len(scans[k]) == 0 for k in range(10))
        assert any(len(scans[k]) > 0 for k in range(10, 81))


class TestRunMeasurements:
    @staticmethod
    def per_step_scans(scenario, rng):
        """Reference run: each scan reads its states from ``truth_at`` and
        factors R itself."""
        model, scans = scenario.model, []
        for k in range(1, scenario.duration + 1):
            chol_r = np.linalg.cholesky(model.measurement_noise)
            points = []
            for _, x in scenario.truth_at(k):
                if rng.random() < scenario.model_at(k).detection_prob:
                    points.append(model.observation @ x + chol_r @ rng.standard_normal(2))
            (x0, x1), (y0, y1) = scenario.region
            clutter = rng.uniform(
                (x0, y0), (x1, y1), size=(rng.poisson(scenario.clutter_rate), 2)
            )
            block = np.vstack(points + [clutter])
            scans.append(block[rng.permutation(len(block))])
        return scans

    @pytest.mark.parametrize("name", ["scenario1", "scenario2", "scenario3"])
    def test_same_bytes_and_stream_as_per_step_reference(self, name, monkeypatch):
        scenario = generate_truth(builtin_scenario(name), 2026)
        streams = []

        def recorded_rng(seed):
            streams.append(make_rng(seed))
            return streams[-1]

        monkeypatch.setattr(sim, "make_rng", recorded_rng)
        for run_seed in range(2027, 2047):
            scans = generate_run_measurements(scenario, run_seed)
            reference_rng = make_rng(run_seed)
            expected = self.per_step_scans(scenario, reference_rng)
            assert [(s.shape, s.tobytes()) for s in scans] == [
                (s.shape, s.tobytes()) for s in expected
            ]
            np.testing.assert_equal(
                streams[-1].bit_generator.state, reference_rng.bit_generator.state
            )

    def test_truth_at_needs_truth(self):
        with pytest.raises(InputError, match="scenario has no ground truth attached"):
            builtin_scenario("scenario1").truth_at(1)

    def test_truth_states_follow_truth_at(self):
        scenario = generate_truth(builtin_scenario("scenario1"), 5)
        assert len(scenario.truth_states) == scenario.duration
        for k, states in enumerate(scenario.truth_states, start=1):
            expected = [state for _, state in scenario.truth_at(k)]
            assert states.shape == (len(expected), 4)
            assert states.tobytes() == np.array(expected).tobytes()


class TestMonteCarlo:
    def small_scenario(self):
        import dataclasses

        scenario = builtin_scenario("scenario1")
        return dataclasses.replace(scenario, duration=15)

    def test_reproducible_reports(self):
        scenario = self.small_scenario()
        params = FilterParams(max_globals=50)
        a = run_monte_carlo(scenario, params, 2, 5)
        b = run_monte_carlo(scenario, params, 2, 5)
        assert a.mean_summary[0] == b.mean_summary[0]
        for ra, rb in zip(a.records, b.records):
            assert ra.seed == rb.seed
            for sa, sb in zip(ra.gospa, rb.gospa):
                assert sa.total == sb.total
            for ea, eb in zip(ra.estimates, rb.estimates):
                assert len(ea) == len(eb)
                for x, y in zip(ea, eb):
                    assert np.array_equal(x.state, y.state)

    def test_records_summarise_their_runs_at_the_report_order(self):
        gospa_params = GospaParams(cutoff=20.0, order=3.0)
        report = run_monte_carlo(self.small_scenario(), FilterParams(max_globals=50), 2, 5,
                                 gospa_params)
        for record in report.records:
            n = len(record.gospa)
            assert record.rms_total == pytest.approx(
                (sum(g.total**2 for g in record.gospa) / n) ** 0.5, rel=1e-12)
            terms = [sum(getattr(g, name) for g in record.gospa) / n
                     for name in ("localisation_p", "missed_p", "false_p")]
            assert record.summary == pytest.approx(
                (record.rms_total, *(t ** (1.0 / 3.0) for t in terms)), rel=1e-12)
        runs = [record.summary for record in report.records]
        assert report.mean_summary == pytest.approx(
            tuple((a + b) / 2 for a, b in zip(*runs)), rel=1e-12)

    def test_workers_do_not_change_results(self):
        scenario = self.small_scenario()
        params = FilterParams(max_globals=50)
        serial = run_monte_carlo(scenario, params, 2, 5, workers=1)
        parallel = run_monte_carlo(scenario, params, 2, 5, workers=2)
        assert serial.mean_summary[0] == parallel.mean_summary[0]
        for ra, rb in zip(serial.records, parallel.records):
            for sa, sb in zip(ra.gospa, rb.gospa):
                assert sa.total == sb.total

    def test_easy_scenario_converges(self):
        # well-separated targets, high detection, light clutter: after the
        # transient both cardinality costs should nearly vanish
        import dataclasses

        from mbmtrack.mbm import BirthComponent, BirthModel
        from mbmtrack.gaussian import GaussianDensity

        base = builtin_scenario("scenario1")
        birth = BirthModel(
            (
                BirthComponent(
                    0.05,
                    GaussianDensity([60.0, 0.0, 60.0, 0.0], np.diag([9.0, 1.0, 9.0, 1.0])),
                ),
                BirthComponent(
                    0.05,
                    GaussianDensity([240.0, 0.0, 240.0, 0.0], np.diag([9.0, 1.0, 9.0, 1.0])),
                ),
            )
        )
        model = constant_velocity_model(
            detection_prob=0.98, clutter_intensity=1.0 / 90000.0
        )
        scenario = dataclasses.replace(
            base, name="easy", model=model, birth=birth, clutter_rate=1.0, duration=30
        )

        # hand-made truth: two nearly stationary, far apart targets
        from mbmtrack.sim import Trajectory

        states_a = np.tile([60.0, 0.0, 60.0, 0.0], (30, 1))
        states_b = np.tile([240.0, 0.0, 240.0, 0.0], (30, 1))
        scenario = dataclasses.replace(
            scenario,
            truth=(
                Trajectory((1, 1), 1, 30, states_a),
                Trajectory((1, 2), 1, 30, states_b),
            ),
        )
        report = run_monte_carlo(scenario, FilterParams(max_globals=50), 3, 3)
        late = [score for record in report.records for score in record.gospa[10:]]
        mean_missed = np.mean([s.missed_p for s in late])
        mean_false = np.mean([s.false_p for s in late])
        assert mean_missed + mean_false < 5.0
        assert np.isfinite(report.mean_summary[0])

    def test_scoring_does_not_depend_on_the_state_layout(self):
        # The same scenario over states [px, py, vx, vy]: a run is scored on
        # the positions H x, so it scores as the [px, vx, py, vy] layout does.
        base = generate_truth(replace(builtin_scenario("scenario1"), duration=30), 2026)
        P = np.eye(4)[[0, 2, 1, 3]]
        m = base.model
        model = replace(m, transition=P @ m.transition @ P.T,
                        process_noise=P @ m.process_noise @ P.T, observation=m.observation @ P.T)
        birth = BirthModel(tuple(
            BirthComponent(b.existence, GaussianDensity(
                P @ b.density.mean, P @ b.density.covariance @ P.T))
            for b in base.birth.components))
        truth = tuple(replace(t, states=t.states @ P.T) for t in base.truth)
        permuted = replace(base, model=model, birth=birth, truth=truth)
        params = FilterParams(max_globals=20)
        expected = run_monte_carlo(base, params, 3, 1).mean_summary
        assert run_monte_carlo(permuted, params, 3, 1).mean_summary == expected

    def test_n_runs_validated(self):
        bad = [(0, 1, 1, "n_runs"), (2.5, 1, 1, "n_runs"), (True, 1, 1, "n_runs"),
               (1, 1.5, 1, "seed"), (1, -1, 1, "seed")]
        bad += [(2, 1, workers, "workers") for workers in (0, -3, 2.5, "2", True, None)]
        for n_runs, seed, workers, name in bad:
            with pytest.raises(InputError, match=name):
                run_monte_carlo(self.small_scenario(), FilterParams(), n_runs, seed,
                                workers=workers)
