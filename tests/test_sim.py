from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

import mbmtrack.sim as sim
from mbmtrack.errors import InputError
from mbmtrack.gaussian import GaussianDensity
from mbmtrack.gospa import GospaParams
from mbmtrack.mbm import BirthComponent, BirthModel, FilterParams
from mbmtrack.sim import (
    builtin_scenario,
    builtin_scenarios,
    constant_velocity_model,
    generate_measurements,
    generate_run_measurements,
    generate_truth,
    make_crossing_truth,
    make_rng,
    run_monte_carlo,
    scenario_from_mapping,
)


class TestBuiltinScenarios:
    def test_all_three_load(self):
        scenarios = builtin_scenarios()
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
        assert s.detection_prob_at(1) == 0.0
        assert s.detection_prob_at(10) == 0.0
        assert s.detection_prob_at(11) == 0.9
        assert s.detection_prob_at(81) == 0.9

    def test_shared_model_constants(self):
        for s in builtin_scenarios().values():
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
            constant_velocity_model(sampling_time=2.0, noise_intensity=1e308)

    @pytest.mark.parametrize(
        "kwargs, name",
        [
            ({"sampling_time": 1e200}, "sampling_time"),
            ({"sampling_time": 1e200, "noise_intensity": 0.0}, "sampling_time"),
            ({"sampling_time": float("inf")}, "sampling_time"),
            ({"sampling_time": float("nan")}, "sampling_time"),
            ({"sampling_time": 0.0}, "sampling_time"),
            ({"sampling_time": -1.0}, "sampling_time"),
            ({"sampling_time": "a"}, "sampling_time"),
            ({"sampling_time": True}, "sampling_time"),
            ({"noise_intensity": float("inf")}, "noise_intensity"),
            ({"noise_intensity": -0.5}, "noise_intensity"),
            ({"noise_intensity": None}, "noise_intensity"),
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
        model = constant_velocity_model(sampling_time=2, noise_intensity=0)
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


class TestCrossingTruth:
    def test_counts_follow_birth_and_death_schedule(self):
        scenario = generate_truth(builtin_scenario("scenario1"), 3)
        counts = [len(scenario.truth_at(k)) for k in range(1, 82)]
        assert all(c == 2 for c in counts[0:20])
        assert all(c == 4 for c in counts[20:39])
        assert all(c == 3 for c in counts[39:81])

    def test_midpoints_near_anchor(self):
        model = builtin_scenario("scenario1").model
        for seed in range(5):
            trajectories = make_crossing_truth(model, make_rng(seed))
            assert len(trajectories) == 4
            for t in trajectories:
                mid = t.states[40]
                assert abs(mid[0] - 150.0) < 0.5
                assert abs(mid[2] - 150.0) < 0.5
                assert abs(mid[1]) < 0.5 and abs(mid[3]) < 0.5

    def test_labels_and_intervals(self):
        trajectories = make_crossing_truth(builtin_scenario("scenario1").model, make_rng(0))
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

    def test_seed_tuples_accepted(self):
        assert make_rng((3, 1)).random() == make_rng((3, 1)).random() != make_rng(3).random()

    def test_same_seed_same_truth(self):
        model = builtin_scenario("scenario1").model
        a = make_crossing_truth(model, make_rng(9))
        b = make_crossing_truth(model, make_rng(9))
        for t1, t2 in zip(a, b):
            assert np.array_equal(t1.states, t2.states)

    def test_dynamics_consistency(self):
        # each transition must be reachable under the model: x' - F x has the
        # process-noise distribution; check the empirical second moment
        model = builtin_scenario("scenario1").model
        residuals = []
        for seed in range(40):
            for t in make_crossing_truth(model, make_rng(seed)):
                diffs = t.states[1:] - t.states[:-1] @ model.transition.T
                residuals.append(diffs)
        residuals = np.concatenate(residuals)
        cov = residuals.T @ residuals / len(residuals)
        np.testing.assert_allclose(cov, model.process_noise, atol=2e-3)


class TestMeasurementGeneration:
    def region(self):
        return ((0.0, 300.0), (0.0, 300.0))

    def test_no_sources_no_measurements(self):
        model = constant_velocity_model(clutter_intensity=0.0)
        rng = make_rng(0)
        for _ in range(50):
            scan = generate_measurements([], 0.0, model, self.region(), 0.0, rng)
            assert scan.shape == (0, 2)

    def test_non_finite_states_rejected(self):
        model, state = constant_velocity_model(), [150.0, 0.0, np.nan, 0.0]
        with pytest.raises(InputError, match="true states must be finite"):
            generate_measurements([state], 1.0, model, self.region(), 0.0, make_rng(0))

    def test_detection_residual_moments(self):
        model = constant_velocity_model(detection_prob=1.0)
        rng = make_rng(1)
        x = np.array([150.0, 0.0, 120.0, 0.0])
        residuals = []
        for _ in range(10_000):
            scan = generate_measurements([x], 1.0, model, self.region(), 0.0, rng)
            assert scan.shape == (1, 2)
            residuals.append(scan[0] - model.observation @ x)
        residuals = np.asarray(residuals)
        cov = residuals.T @ residuals / len(residuals)
        assert np.abs(cov - np.eye(2)).max() < 0.1
        assert np.abs(residuals.mean(axis=0)).max() < 0.05

    def test_clutter_mean_and_chi_square_gof(self):
        model = constant_velocity_model()
        rng = make_rng(123)
        counts = np.array(
            [
                len(generate_measurements([], 0.0, model, self.region(), 10.0, rng))
                for _ in range(10_000)
            ]
        )
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
        model = constant_velocity_model()
        rng = make_rng(7)
        points = []
        for _ in range(2000):
            scan = generate_measurements([], 0.0, model, self.region(), 10.0, rng)
            points.extend(scan)
        points = np.asarray(points)
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
    def test_clutter_matches_per_point_draws(self, clutter_rate):
        model = constant_velocity_model()
        region = ((-50.0, 250.0), (10.0, 400.0))
        states = [np.array([100.0, 1.0, 200.0, -1.0]), np.array([0.0, 0.0, 50.0, 0.0])]
        for seed in range(20):
            rng, reference_rng = make_rng(seed), make_rng(seed)
            for _ in range(5):
                scan = generate_measurements(states, 0.6, model, region, clutter_rate, rng)
                expected = self.per_point_scan(
                    states, 0.6, model, region, clutter_rate, reference_rng
                )
                assert scan.shape == expected.shape
                assert scan.tobytes() == expected.tobytes()
            np.testing.assert_equal(rng.bit_generator.state, reference_rng.bit_generator.state)

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
                if rng.random() < scenario.detection_prob_at(k):
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
        assert a.mean_rms_gospa == b.mean_rms_gospa
        for ra, rb in zip(a.records, b.records):
            assert ra.seed == rb.seed
            for sa, sb in zip(ra.gospa, rb.gospa):
                assert sa.total == sb.total
            for ea, eb in zip(ra.estimates, rb.estimates):
                assert len(ea) == len(eb)
                for x, y in zip(ea, eb):
                    assert np.array_equal(x.state, y.state)

    def test_workers_do_not_change_results(self):
        scenario = self.small_scenario()
        params = FilterParams(max_globals=50)
        serial = run_monte_carlo(scenario, params, 2, 5, workers=1)
        parallel = run_monte_carlo(scenario, params, 2, 5, workers=2)
        assert serial.mean_rms_gospa == parallel.mean_rms_gospa
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
        assert np.isfinite(report.mean_rms_gospa)

    def test_n_runs_validated(self):
        bad = [(0, 1, 1, "n_runs"), (2.5, 1, 1, "n_runs"), (True, 1, 1, "n_runs"),
               (1, 1.5, 1, "seed"), (1, -1, 1, "seed")]
        bad += [(2, 1, workers, "workers") for workers in (0, -3, 2.5, "2", True, None)]
        for n_runs, seed, workers, name in bad:
            with pytest.raises(InputError, match=name):
                run_monte_carlo(self.small_scenario(), FilterParams(), n_runs, seed,
                                workers=workers)
