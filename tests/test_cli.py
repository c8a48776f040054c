import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml

from mbmtrack import cli
from mbmtrack.cli import (
    main,
    read_cost_file,
    read_labeled_state_file,
    read_measurement_file,
    write_labeled_state_file,
    write_measurement_file,
)
from mbmtrack.assignment import FORBIDDEN
from mbmtrack.errors import InputError
from mbmtrack.mbm import FilterParams


def small_scenario_file(tmp_path, name="mini", duration=8, clutter_rate=10.0, extra=None):
    config = {
        "name": name,
        "duration": duration,
        "region": {"x": [0.0, 300.0], "y": [0.0, 300.0]},
        "clutter_rate": clutter_rate,
        "model": {
            "sampling_time": 1.0,
            "process_noise_intensity": 0.01,
            "survival_prob": 0.99,
            "detection_prob": 0.9,
            "measurement_noise_std": 1.0,
        },
        "birth": [
            {"existence": 0.01, "mean": [140.0, 0.0, 170.0, 0.0], "std": [3.0, 1.0, 3.0, 1.0]},
            {"existence": 0.01, "mean": [160.0, 0.0, 150.0, 0.0], "std": [3.0, 1.0, 3.0, 1.0]},
        ],
        "filter": {"max_globals": 30},
    }
    if extra:
        config.update(extra)
    path = tmp_path / f"{name}.yaml"
    path.write_text(yaml.safe_dump(config), encoding="utf-8")
    return path


class TestFileFormats:
    def test_measurement_round_trip(self, tmp_path):
        scans = [
            np.array([[1.5, 2.25], [3.0, -4.0]]),
            np.zeros((0, 2)),
            np.array([[0.1, 0.2]]),
        ]
        path = tmp_path / "meas.txt"
        write_measurement_file(path, scans)
        back = read_measurement_file(path, 2)
        assert len(back) == 3
        for a, b in zip(scans, back):
            np.testing.assert_array_equal(a, b)

    def test_labeled_state_round_trip(self, tmp_path):
        per_step = [
            [((1, 2), np.array([1.0, 0.5, 2.0, -0.5]))],
            [],
            [((1, 1), np.array([3.0, 0.0, 4.0, 0.0])), ((21, 2), np.array([5.0, 0.0, 6.0, 0.0]))],
        ]
        path = tmp_path / "states.txt"
        write_labeled_state_file(path, per_step)
        back = read_labeled_state_file(path)
        assert len(back) == 3
        assert back[1] == []
        assert back[0][0][0] == (1, 2)
        np.testing.assert_array_equal(back[2][1][1], [5.0, 0.0, 6.0, 0.0])

    def test_empty_steps_round_trip(self, tmp_path):
        # No steps write an empty file, which must not read back as one empty step.
        for n_steps in (0, 1, 2):
            write_measurement_file(tmp_path / "meas.txt", [np.zeros((0, 2))] * n_steps)
            assert len(read_measurement_file(tmp_path / "meas.txt", 2)) == n_steps
            write_labeled_state_file(tmp_path / "states.txt", [[]] * n_steps)
            assert read_labeled_state_file(tmp_path / "states.txt") == [[]] * n_steps
        assert (tmp_path / "states.txt").read_text(encoding="utf-8") == "\n\n"

    def test_bad_measurement_file(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1.0 2.0;x y\n", encoding="utf-8")
        with pytest.raises(Exception):
            read_measurement_file(path, 2)


class TestSimulate:
    def test_deterministic_output(self, tmp_path):
        scenario = small_scenario_file(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert main(["simulate", "--scenario", str(scenario), "--seed", "7", "--out", str(out)]) == 0
        assert (out_a / "measurements.txt").read_bytes() == (out_b / "measurements.txt").read_bytes()
        assert (out_a / "truth.txt").read_bytes() == (out_b / "truth.txt").read_bytes()

    def test_scenario3_early_steps_clutter_only(self, tmp_path):
        # with clutter disabled the first ten steps must be empty
        config = {
            "detection_schedule": [{"steps": [1, 10], "detection_prob": 0.0}],
        }
        scenario = small_scenario_file(
            tmp_path, name="quiet3", duration=14, clutter_rate=0.0, extra=config
        )
        out = tmp_path / "sim3"
        assert main(["simulate", "--scenario", str(scenario), "--seed", "3", "--out", str(out)]) == 0
        scans = read_measurement_file(out / "measurements.txt", 2)
        assert len(scans) == 14
        assert all(len(s) == 0 for s in scans[:10])

    def test_unknown_scenario_exits_2(self, tmp_path, capsys):
        assert main(["simulate", "--scenario", "nonsense", "--out", str(tmp_path)]) == 2
        assert "error" in capsys.readouterr().err

    def test_builtin_scenario_accepted(self, tmp_path):
        out = tmp_path / "builtin"
        assert main(["simulate", "--scenario", "scenario1", "--seed", "2", "--out", str(out)]) == 0
        assert len(read_measurement_file(out / "measurements.txt", 2)) == 81

    def test_negative_seed_exits_2(self, tmp_path, capsys):
        out = tmp_path / "neg"
        assert main(["simulate", "--seed", "-1", "--out", str(out)]) == 2
        assert "seed must be an integer >= 0" in capsys.readouterr().err
        assert not (out / "truth.txt").exists()


class TestTrackAndEvaluate:
    def test_empty_measurements_give_empty_estimates(self, tmp_path):
        scenario = small_scenario_file(tmp_path)
        meas = tmp_path / "meas.txt"
        write_measurement_file(meas, [np.zeros((0, 2))] * 8)
        out = tmp_path / "track"
        assert main(
            ["track", "--scenario", str(scenario), "--measurements", str(meas), "--out", str(out)]
        ) == 0
        estimates = read_labeled_state_file(out / "estimates.txt")
        assert len(estimates) == 8
        assert all(e == [] for e in estimates)

    def test_track_deterministic_and_param_overrides_run(self, tmp_path):
        scenario = small_scenario_file(tmp_path)
        sim_out = tmp_path / "sim"
        main(["simulate", "--scenario", str(scenario), "--seed", "5", "--out", str(sim_out)])
        t1, t2, t3 = tmp_path / "t1", tmp_path / "t2", tmp_path / "t3"
        base = ["track", "--scenario", str(scenario), "--measurements", str(sim_out / "measurements.txt")]
        assert main(base + ["--out", str(t1)]) == 0
        assert main(base + ["--out", str(t2)]) == 0
        assert (t1 / "estimates.txt").read_bytes() == (t2 / "estimates.txt").read_bytes()
        assert main(base + ["--out", str(t3), "--max-globals", "100"]) == 0

    def test_scenario1_budget_sweep_completes(self, tmp_path):
        # a short measurement file keeps the sweep cheap; both caps must run
        rng = np.random.default_rng(0)
        meas = tmp_path / "meas.txt"
        write_measurement_file(meas, [rng.uniform(140, 170, size=(4, 2)) for _ in range(5)])
        for budget in ("100", "500"):
            out = tmp_path / f"nh{budget}"
            assert main(
                [
                    "track",
                    "--scenario",
                    "scenario1",
                    "--measurements",
                    str(meas),
                    "--max-globals",
                    budget,
                    "--out",
                    str(out),
                ]
            ) == 0
            assert len(read_labeled_state_file(out / "estimates.txt")) == 5

    def test_evaluate_identity_is_zero(self, tmp_path):
        states = [
            [((1, 1), np.array([10.0, 0.0, 20.0, 0.0]))],
            [((1, 1), np.array([11.0, 0.0, 21.0, 0.0])), ((1, 2), np.array([50.0, 0.0, 60.0, 0.0]))],
        ]
        truth = tmp_path / "truth.txt"
        write_labeled_state_file(truth, states)
        out = tmp_path / "eval"
        assert main(
            ["evaluate", "--truth", str(truth), "--estimates", str(truth), "--out", str(out)]
        ) == 0
        rows = (out / "gospa.csv").read_text().strip().splitlines()
        assert rows[0] == "step,total,loc_p,missed_p,false_p,n_missed,n_false"
        for row in rows[1:]:
            fields = row.split(",")
            assert float(fields[1]) == 0.0
            assert fields[5] == "0" and fields[6] == "0"

    def test_evaluate_empty_estimates_pure_missed(self, tmp_path):
        truth_states = [[((1, 1), np.array([10.0, 0.0, 20.0, 0.0]))]]
        truth = tmp_path / "truth.txt"
        write_labeled_state_file(truth, truth_states)
        empty = tmp_path / "empty.txt"
        write_labeled_state_file(empty, [[]])
        out = tmp_path / "eval"
        assert main(
            ["evaluate", "--truth", str(truth), "--estimates", str(empty), "--out", str(out)]
        ) == 0
        row = (out / "gospa.csv").read_text().strip().splitlines()[1].split(",")
        # defaults c = 10, p = 2: total = sqrt(c^p / 2), missed_p = 50
        assert float(row[1]) == pytest.approx((100.0 / 2.0) ** 0.5)
        assert float(row[3]) == pytest.approx(50.0)
        assert row[5] == "1"

    def test_evaluate_empty_files_score_zero(self, tmp_path):
        empty = tmp_path / "empty.txt"
        empty.write_text("", encoding="utf-8")
        out = tmp_path / "eval"
        assert main(
            ["evaluate", "--truth", str(empty), "--estimates", str(empty), "--out", str(out)]
        ) == 0
        assert (out / "gospa_summary.csv").read_text().splitlines()[1] == "0,0,0,0,0"

    def test_step_count_mismatch_exits_2(self, tmp_path, capsys):
        truth = tmp_path / "truth.txt"
        write_labeled_state_file(truth, [[], []])
        estimates = tmp_path / "est.txt"
        write_labeled_state_file(estimates, [[]])
        assert main(
            ["evaluate", "--truth", str(truth), "--estimates", str(estimates), "--out", str(tmp_path)]
        ) == 2
        err = capsys.readouterr().err
        assert "one estimate set per truth set, got 2 and 1" in err
        assert err.startswith(f"error: {truth}, {estimates}: GOSPA needs")

    def test_missing_file_exits_2(self, tmp_path):
        assert main(
            ["evaluate", "--truth", "no_such.txt", "--estimates", "nope.txt", "--out", str(tmp_path)]
        ) == 2

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    def test_non_finite_estimate_exits_2(self, tmp_path, capsys, token):
        truth, estimates = tmp_path / "truth.txt", tmp_path / "est.txt"
        truth.write_text("1:1 0 0 0 0\n", encoding="utf-8")
        estimates.write_text(f"1:1 {token} 0 0 0\n", encoding="utf-8")
        out = tmp_path / "eval"
        assert main(
            ["evaluate", "--truth", str(truth), "--estimates", str(estimates), "--out", str(out)]
        ) == 2
        assert "est.txt:1: labeled state" in capsys.readouterr().err
        assert not (out / "gospa.csv").exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--gospa-p", "400"], "c**p"),
            (["--gospa-c", "1e200"], "c**p"),
            (["--gospa-c", "inf"], "cutoff c must be finite"),
        ],
    )
    def test_gospa_params_out_of_range_exit_2(self, tmp_path, capsys, flags, message):
        truth = tmp_path / "truth.txt"
        write_labeled_state_file(truth, [[((1, 1), np.array([10.0, 0.0, 20.0, 0.0]))]])
        out = tmp_path / "eval"
        assert main(
            ["evaluate", "--truth", str(truth), "--estimates", str(truth), "--out", str(out), *flags]
        ) == 2
        assert message in capsys.readouterr().err
        assert not (out / "gospa.csv").exists()

    def test_cutoff_power_past_its_bound_exits_2(self, tmp_path, capsys):
        # One missed truth point at c**p = 1e300 would give RMS-GOSPA the square of 5e299.
        truth, estimates = tmp_path / "truth.txt", tmp_path / "est.txt"
        write_labeled_state_file(truth, [[((1, 1), np.array([10.0, 0.0, 20.0, 0.0]))]])
        write_labeled_state_file(estimates, [[]])
        out = tmp_path / "eval"
        assert main(["evaluate", "--truth", str(truth), "--estimates", str(estimates),
                     "--out", str(out), "--gospa-c", "1e300", "--gospa-p", "1"]) == 2
        assert "error: GOSPA c**p must be in (0, 1e100], got c=1e+300, p=1.0" in capsys.readouterr().err
        assert not (out / "gospa_summary.csv").exists()

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    def test_reader_rejects_non_finite_state(self, tmp_path, token):
        path = tmp_path / "states.txt"
        path.write_text(f"1:1 0 0 0 0;1:2 0 {token} 0 0\n", encoding="utf-8")
        with pytest.raises(InputError, match="must be finite"):
            read_labeled_state_file(path)

    @pytest.mark.parametrize(
        "token, message",
        [("1-1 0 0 0 0", "bad labeled state"), ("1:a 0 0 0 0", "bad labeled state"),
         ("1:1 0 x 0 0", "bad labeled state"), ("1:1", "has no coordinates")],
        ids=["no_colon", "text_label", "text_coordinate", "label_only"],
    )
    def test_reader_rejects_malformed_state(self, tmp_path, token, message):
        path = tmp_path / "states.txt"
        path.write_text(f"1:1 0 0 0 0\n{token}\n", encoding="utf-8")
        with pytest.raises(InputError, match=f"states.txt:2: .*{message}"):
            read_labeled_state_file(path)

    def evaluate(self, tmp_path, truth_text, estimates_text):
        truth, estimates = tmp_path / "truth.txt", tmp_path / "est.txt"
        truth.write_text(truth_text, encoding="utf-8")
        estimates.write_text(estimates_text, encoding="utf-8")
        return main(["evaluate", "--truth", str(truth), "--estimates", str(estimates),
                     "--out", str(tmp_path / "eval")])

    def test_evaluate_scores_planar_points_as_positions(self, tmp_path):
        assert self.evaluate(tmp_path, "1:1 10 20\n", "1:1 13 24\n") == 0
        row = (tmp_path / "eval" / "gospa.csv").read_text().splitlines()[1].split(",")
        assert float(row[1]) == pytest.approx(5.0)  # one assigned pair at distance 5

    def test_evaluate_three_dimensional_state_exits_2(self, tmp_path, capsys):
        assert self.evaluate(tmp_path, "1:1 10 20 30\n", "1:1 10 20 30\n") == 2
        err = capsys.readouterr().err
        assert "expected 2D points or 4D states, got dimension 3" in err
        assert err.startswith(f"error: {tmp_path / 'truth.txt'}:1: expected")
        # Line k holds step k.
        assert self.evaluate(tmp_path, "1:1 10 20\n\n", "\n1:1 10 20 30\n") == 2
        assert capsys.readouterr().err.startswith(f"error: {tmp_path / 'est.txt'}:2: expected")
        assert not (tmp_path / "eval" / "gospa.csv").exists()


class TestBenchmark:
    def test_nh_sweep_rows_and_determinism(self, tmp_path):
        scenario = small_scenario_file(tmp_path)
        out_a, out_b = tmp_path / "ba", tmp_path / "bb"
        args = [
            "benchmark",
            "--scenario",
            str(scenario),
            "--seed",
            "7",
            "--runs",
            "2",
            "--max-globals",
            "20,50",
        ]
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--out", str(out_b)]) == 0
        summary = (out_a / "summary.csv").read_text().strip().splitlines()
        assert len(summary) == 3
        assert summary[0].startswith("max_globals,")
        assert summary[1].split(",")[0] == "20"
        assert summary[2].split(",")[0] == "50"
        assert (out_a / "summary.csv").read_bytes() == (out_b / "summary.csv").read_bytes()
        assert (out_a / "runs_nh20.csv").read_bytes() == (out_b / "runs_nh20.csv").read_bytes()
        assert (out_a / "timings.csv").exists()

    def test_pipeline_matches_benchmark_run1(self, tmp_path):
        # simulate/track/evaluate with seed s must reproduce run 1 of a
        # benchmark with the same seed
        scenario = small_scenario_file(tmp_path)
        sim_out = tmp_path / "sim"
        assert main(["simulate", "--scenario", str(scenario), "--seed", "9",
                     "--out", str(sim_out)]) == 0
        track_out = tmp_path / "trk"
        assert main(["track", "--scenario", str(scenario),
                     "--measurements", str(sim_out / "measurements.txt"),
                     "--out", str(track_out)]) == 0
        eval_out = tmp_path / "ev"
        assert main(["evaluate", "--truth", str(sim_out / "truth.txt"),
                     "--estimates", str(track_out / "estimates.txt"), "--out", str(eval_out)]) == 0
        bench_out = tmp_path / "bench"
        assert main(["benchmark", "--scenario", str(scenario), "--seed", "9", "--runs", "1",
                     "--max-globals", "30", "--out", str(bench_out)]) == 0
        # Both commands write each number by one formatter, so the fields match as text.
        gospa_rows = (eval_out / "gospa.csv").read_text().strip().splitlines()[1:]
        run_rows = (bench_out / "runs_nh30.csv").read_text().strip().splitlines()[1:]
        assert len(gospa_rows) == len(run_rows)
        for g_row, r_row in zip(gospa_rows, run_rows):
            assert g_row.split(",")[1:5] == r_row.split(",")[4:8]
        # With one run, each mean over the runs is that run's own summary.
        summary = (eval_out / "gospa_summary.csv").read_text().splitlines()[1].split(",")
        means = (bench_out / "summary.csv").read_text().splitlines()[1].split(",")
        assert summary[1:] == means[5:]

    def test_bad_max_globals_exits_2(self, tmp_path):
        scenario = small_scenario_file(tmp_path)
        assert main(
            [
                "benchmark",
                "--scenario",
                str(scenario),
                "--max-globals",
                "abc",
                "--out",
                str(tmp_path),
            ]
        ) == 2


    def test_empty_max_globals_list_exits_2(self, tmp_path, capsys):
        scenario = small_scenario_file(tmp_path)
        for caps in (",", ""):
            args = ["benchmark", "--scenario", str(scenario), "--runs", "1", "--max-globals", caps]
            assert main(args + ["--out", str(tmp_path / "out")]) == 2
            assert "--max-globals must list at least one value" in capsys.readouterr().err
            assert not (tmp_path / "out").exists()

    def test_cap_defaults_to_the_scenario_file(self, tmp_path):
        scenario = small_scenario_file(tmp_path)  # its filter block sets max_globals: 30
        args = ["benchmark", "--scenario", str(scenario), "--runs", "1", "--out", str(tmp_path)]
        assert main(args) == 0
        summary = (tmp_path / "summary.csv").read_text(encoding="utf-8").splitlines()
        assert [row.split(",")[0] for row in summary] == ["max_globals", "30"]
        assert (tmp_path / "runs_nh30.csv").exists()

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_bad_workers_exits_2(self, tmp_path, capsys, workers):
        scenario = small_scenario_file(tmp_path)
        args = ["benchmark", "--scenario", str(scenario), "--runs", "2", "--workers", workers]
        assert main(args + ["--out", str(tmp_path / "out")]) == 2
        assert "workers" in capsys.readouterr().err
        assert not (tmp_path / "out" / "summary.csv").exists()

    def test_repeated_max_globals_exits_2(self, tmp_path, capsys):
        # A repeated cap would run twice, write two identical summary rows and
        # overwrite its runs file; it is refused before any run starts.
        scenario = small_scenario_file(tmp_path)
        args = ["benchmark", "--scenario", str(scenario), "--runs", "2", "--max-globals", "1,3,1"]
        assert main(args + ["--out", str(tmp_path / "out")]) == 2
        assert "more than once" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_zero_max_globals_exits_2(self, tmp_path, capsys):
        scenario = small_scenario_file(tmp_path)
        args = ["benchmark", "--scenario", str(scenario), "--runs", "1", "--max-globals", "5,0"]
        assert main(args + ["--out", str(tmp_path / "out")]) == 2
        assert "max_globals" in capsys.readouterr().err
        # every cap is checked before any run writes output
        assert not (tmp_path / "out" / "runs_nh5.csv").exists()


# One bad field per case, as a dotted path into small_scenario_file's config.
_NAN = float("nan")
BAD_SCENARIO_FIELDS = {
    "nan_clutter_rate": ("clutter_rate", _NAN, "clutter_rate"),
    "zero_duration": ("duration", 0, "duration"),
    "negative_duration": ("duration", -3, "duration"),
    "infinite_duration": ("duration", float("inf"), "bad scenario configuration"),
    "zero_measurement_noise": ("model.measurement_noise_std", 0.0, "measurement noise"),
    "nan_region_bound": ("region.x", [0.0, _NAN], "region"),
    "nan_birth_mean": ("birth.0.mean", [_NAN, 0.0, 170.0, 0.0], "birth"),
    "nan_birth_std": ("birth.0.std", [3.0, _NAN, 3.0, 1.0], "birth"),
    "nan_sampling_time": ("model.sampling_time", _NAN, "sampling_time"),
}


@pytest.mark.parametrize("case", sorted(BAD_SCENARIO_FIELDS))
def test_bad_scenario_file_exits_2(tmp_path, capsys, case):
    path, value, message = BAD_SCENARIO_FIELDS[case]
    scenario = small_scenario_file(tmp_path)
    config = yaml.safe_load(scenario.read_text(encoding="utf-8"))
    *parents, leaf = path.split(".")
    node = config
    for key in parents:
        node = node[int(key)] if key.isdigit() else node[key]
    node[leaf] = value
    scenario.write_text(yaml.safe_dump(config), encoding="utf-8")
    args = ["benchmark", "--scenario", str(scenario), "--runs", "1"]
    assert main(args + ["--out", str(tmp_path / "out")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out" / "summary.csv").exists()


@pytest.mark.parametrize(
    "birth",
    [
        [{"existence": 0.01, "mean": [140.0, 170.0], "std": [3.0, 3.0]}],
        [{"existence": 0.01, "mean": [140.0, 0.0, 170.0, 0.0], "std": [3.0, 1.0, 3.0, 1.0]},
         {"existence": 0.01, "mean": [140.0, 170.0], "std": [3.0, 3.0]}],
    ],
    ids=["two_dimensional", "mixed_dimensions"],
)
def test_birth_of_the_wrong_dimension_exits_2(tmp_path, capsys, birth):
    scenario = small_scenario_file(tmp_path, extra={"birth": birth})
    args = ["benchmark", "--scenario", str(scenario), "--runs", "1"]
    assert main(args + ["--out", str(tmp_path / "out")]) == 2
    assert "birth components must" in capsys.readouterr().err
    assert not (tmp_path / "out" / "summary.csv").exists()


@pytest.mark.parametrize("value", [1.5, float("nan")])
def test_bad_detection_schedule_exits_2(tmp_path, capsys, value):
    schedule = [{"steps": [2, 3], "detection_prob": value}]
    scenario = small_scenario_file(tmp_path, extra={"detection_schedule": schedule})
    assert main(["simulate", "--scenario", str(scenario), "--out", str(tmp_path / "out")]) == 2
    assert "detection_prob" in capsys.readouterr().err
    assert not (tmp_path / "out" / "measurements.txt").exists()


class TestFilterParamsFromScenario:
    """The scenario file's filter block sets every threshold; --max-globals only the cap."""

    FILTER = {"max_globals": 30, "gate_threshold": 12.0, "prune_global_weight": 1e-4,
              "prune_existence": 0.01, "estimate_existence": 0.6}

    def params_used(self, tmp_path, monkeypatch, command, flags=()):
        """The FilterParams each filter run of ``command`` receives."""
        used = []

        def record(run, position):
            def recorded(*args, **kwargs):
                used.append(args[position])
                return run(*args, **kwargs)
            return recorded

        monkeypatch.setattr(cli, "run_filter", record(cli.run_filter, 2))
        monkeypatch.setattr(cli, "run_monte_carlo", record(cli.run_monte_carlo, 1))
        scenario = small_scenario_file(tmp_path, duration=3, extra={"filter": self.FILTER})
        meas = tmp_path / "meas.txt"
        meas.write_text("140 170\n", encoding="utf-8")
        inputs = ["--measurements", str(meas)] if command == "track" else ["--runs", "1"]
        argv = [command, "--scenario", str(scenario), *inputs, "--out", str(tmp_path / "out")]
        assert main(argv + list(flags)) == 0
        return used

    @pytest.mark.parametrize("command", ["track", "benchmark"])
    def test_without_flags_the_file_sets_every_threshold(self, tmp_path, monkeypatch, command):
        assert self.params_used(tmp_path, monkeypatch, command) == [FilterParams(**self.FILTER)]

    @pytest.mark.parametrize(
        "command, caps", [("track", "7"), ("benchmark", "5,9")], ids=["track", "benchmark"]
    )
    def test_max_globals_replaces_only_the_cap(self, tmp_path, monkeypatch, command, caps):
        used = self.params_used(tmp_path, monkeypatch, command, ["--max-globals", caps])
        file_params = FilterParams(**self.FILTER)
        expected = [replace(file_params, max_globals=int(nh)) for nh in caps.split(",")]
        assert used == expected

    @pytest.mark.parametrize(
        "argv",
        [["track", "--measurements", "m.txt", "--gate", "25"],
         ["benchmark", "--prune-weight", "1e-4"]],
        ids=["track_gate", "benchmark_prune_weight"],
    )
    def test_threshold_flags_are_unrecognized(self, capsys, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestRejectedTrackInput:
    def run_track(self, tmp_path, measurement_text, extra=(), scenario_extra=None):
        scenario = small_scenario_file(tmp_path, extra=scenario_extra)
        meas = tmp_path / "meas.txt"
        meas.write_text(measurement_text, encoding="utf-8")
        return main(
            ["track", "--scenario", str(scenario), "--measurements", str(meas),
             "--out", str(tmp_path / "out"), *extra]
        )

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    def test_non_finite_measurement_exits_2(self, tmp_path, capsys, token):
        assert self.run_track(tmp_path, f"140 170\n150 {token};160 150\n") == 2
        assert "meas.txt:2: measurements must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("token", ["nan", "inf"])
    def test_reader_rejects_non_finite(self, tmp_path, token):
        path = tmp_path / "meas.txt"
        path.write_text(f"{token} 1\n", encoding="utf-8")
        with pytest.raises(InputError, match="finite"):
            read_measurement_file(path, 2)

    def test_negative_gate_exits_2(self, tmp_path, capsys):
        bad_filter = {"filter": {"gate_threshold": -1}}
        assert self.run_track(tmp_path, "140 170\n", scenario_extra=bad_filter) == 2
        err = capsys.readouterr().err
        assert "mini.yaml" in err and "gate_threshold" in err

    def test_negative_process_noise_exits_2(self, tmp_path, capsys):
        model = {"process_noise_intensity": -1}
        assert self.run_track(tmp_path, "140 170\n", scenario_extra={"model": model}) == 2
        err = capsys.readouterr().err
        assert "mini.yaml" in err and "process_noise_intensity" in err

    def test_max_globals_beyond_the_float_range_exits_2(self, tmp_path, capsys):
        assert self.run_track(tmp_path, "140 170\n", ["--max-globals", "1" + "0" * 400]) == 2
        assert "max_globals must fit a float" in capsys.readouterr().err
        assert not (tmp_path / "out" / "estimates.txt").exists()

    def test_ragged_measurements_exit_2(self, tmp_path, capsys):
        assert self.run_track(tmp_path, "140 170\n1 2;3 4 5\n") == 2
        assert "meas.txt:2: measurements have inconsistent dimensions" in capsys.readouterr().err
        assert not (tmp_path / "out" / "estimates.txt").exists()

    def test_reader_rejects_ragged_points(self, tmp_path):
        path = tmp_path / "meas.txt"
        path.write_text("1 2;3 4 5\n", encoding="utf-8")
        with pytest.raises(InputError, match="inconsistent dimensions"):
            read_measurement_file(path, 2)

    def test_wrong_dimension_line_exits_2(self, tmp_path, capsys):
        assert self.run_track(tmp_path, "140 170\n1 2 3\n") == 2
        assert "meas.txt:2: measurements must have 2 coordinates, got 3" in capsys.readouterr().err
        assert not (tmp_path / "out" / "estimates.txt").exists()

    def test_empty_line_takes_the_measurement_dimension(self, tmp_path):
        path = tmp_path / "meas.txt"
        path.write_text("1 2 3\n\n", encoding="utf-8")
        assert [scan.shape for scan in read_measurement_file(path, 3)] == [(1, 3), (0, 3)]

    def test_unknown_scenario_keys_exit_2(self, tmp_path, capsys):
        scenario = small_scenario_file(
            tmp_path, extra={"filter": {"max_global": 5}, "modle": {"detection_prob": 0.5}}
        )
        meas = tmp_path / "meas.txt"
        meas.write_text("140 170\n", encoding="utf-8")
        code = main(["track", "--scenario", str(scenario), "--measurements", str(meas),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert "filter.max_global" in err and "modle" in err


    def test_bad_scenario_value_names_the_file(self, tmp_path, capsys):
        scenario = small_scenario_file(tmp_path, name="bad", duration=-1)
        assert main(["simulate", "--scenario", str(scenario), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err == (
            f"error: scenario file {scenario}: bad scenario configuration:"
            " duration must be an integer >= 1, got -1\n"
        )

    def test_scenario_file_holding_a_list_exits_2(self, tmp_path, capsys):
        scenario = tmp_path / "list.yaml"
        scenario.write_text(yaml.safe_dump([{"duration": 5}]), encoding="utf-8")
        meas = tmp_path / "meas.txt"
        meas.write_text("140 170\n", encoding="utf-8")
        code = main(["track", "--scenario", str(scenario), "--measurements", str(meas),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert "list.yaml does not hold a mapping" in capsys.readouterr().err

    def test_malformed_scenario_yaml_exits_2(self, tmp_path, capsys):
        scenario = tmp_path / "bad.yaml"
        scenario.write_text("a: [\n", encoding="utf-8")
        meas = tmp_path / "meas.txt"
        meas.write_text("140 170\n", encoding="utf-8")
        code = main(["track", "--scenario", str(scenario), "--measurements", str(meas),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: scenario file {scenario} is not valid YAML at line 2"), err

    @pytest.mark.parametrize("line, repeat", [
        ("duration: 8\n", "duration: 5\n"),
        ("  survival_prob: 0.99\n", "  survival_prob: 0.5\n"),
    ], ids=["top_level", "inside_model"])
    def test_repeated_scenario_key_exits_2(self, tmp_path, capsys, line, repeat):
        # The last value would win without notice, as a misspelt key would be ignored.
        path = small_scenario_file(tmp_path)
        text = path.read_text(encoding="utf-8")
        assert main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "a")]) == 0
        path.write_text(text.replace(line, line + repeat), encoding="utf-8")
        assert main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "b")]) == 2
        at = text[:text.index(line)].count("\n") + 2
        key = repeat.split(":")[0]
        column = len(key) - len(key.lstrip()) + 1
        assert capsys.readouterr().err == (
            f"error: scenario file {path} is not valid YAML at line {at}, column {column}:"
            f" key {key.strip()!r} is given twice\n"
        )
        assert not (tmp_path / "b").exists()


# The files each subcommand reads, by flag name.
READ_FLAGS = {
    "simulate": ("scenario",),
    "track": ("scenario", "measurements"),
    "evaluate": ("truth", "estimates"),
    "benchmark": ("scenario",),
    "assign": ("input",),
}
# Contents that make an input file unreadable, and what the error line then says.
UNREADABLE = {
    "not_utf8": (b"\xff\xfe 1 2\n", "is not UTF-8 text"),
    "bad_yaml": (b"a: [\n", "is not valid YAML"),
}


@pytest.mark.parametrize("command, flag, problem", [
    *((command, flag, "not_utf8") for command, flags in READ_FLAGS.items() for flag in flags),
    *((command, "scenario", "bad_yaml") for command in ("simulate", "track", "benchmark")),
])
def test_unreadable_input_file_exits_2(tmp_path, capsys, command, flag, problem):
    content, message = UNREADABLE[problem]
    files = {
        "scenario": small_scenario_file(tmp_path, duration=2),
        "measurements": tmp_path / "meas.txt",
        "truth": tmp_path / "truth.txt",
        "estimates": tmp_path / "estimates.txt",
        "input": tmp_path / "cost.txt",
    }
    files["measurements"].write_text("140 170\n\n", encoding="utf-8")
    files["truth"].write_text("1:1 140 170\n", encoding="utf-8")
    files["estimates"].write_text("1:1 141 170\n", encoding="utf-8")
    files["input"].write_text("-5 -1\n-2 -4\n", encoding="utf-8")
    argv = [command]
    for name in READ_FLAGS[command]:
        argv += [f"--{name}", str(files[name])]
    argv += {"assign": [], "benchmark": ["--runs", "1", "--out", str(tmp_path)]}.get(
        command, ["--out", str(tmp_path)])
    assert main(argv) == 0, capsys.readouterr().err  # every file is readable
    files[flag].write_bytes(content)
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    assert str(files[flag]) in err[0] and message in err[0]


class TestAssign:
    def test_prints_k_best(self, tmp_path, capsys):
        matrix = tmp_path / "cost.txt"
        matrix.write_text("-5 -1\n-2 -4\n", encoding="utf-8")
        assert main(["assign", "--input", str(matrix), "--k", "3"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3
        assert lines[0].split("\t")[0] == "-9"
        assert "0->0" in lines[0] and "1->1" in lines[0]

    def test_forbidden_token(self, tmp_path, capsys):
        matrix = tmp_path / "cost.txt"
        matrix.write_text("-5 inf\ninf -4\n", encoding="utf-8")
        assert main(["assign", "--input", str(matrix), "--k", "10"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 4  # {}, {0:0}, {1:1}, both
        assert lines[0].split("\t")[0] == "-9"
        assert lines[-1].split("\t")[1] == "(none)"

    def test_missing_input_exits_2(self):
        assert main(["assign", "--input", "missing.txt"]) == 2

    def test_only_inf_tokens_exclude_a_pair(self, tmp_path, capsys):
        # 1e400 reads as +inf, but it is a finite entry past the float range,
        # not an exclusion.
        matrix = tmp_path / "cost.txt"
        matrix.write_text("-5 INF +inf\nInfinity -4 1e400\n", encoding="utf-8")
        assert main(["assign", "--input", str(matrix), "--k", "10"]) == 2
        assert capsys.readouterr().err == (
            f"error: {matrix}:2: bad cost entry:"
            " a finite entry overflows a float; only inf excludes a pair\n"
        )
        matrix.write_text("-5 INF +inf\nInfinity -4 3\n", encoding="utf-8")
        assert main(["assign", "--input", str(matrix), "--k", "10"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        # Every assignment that uses no inf entry, and no other.
        assert [line.split("\t")[1] for line in lines] == [
            "0->0 1->1", "0->0", "1->1", "0->0 1->2", "(none)", "1->2",
        ]

    @pytest.mark.parametrize("entry", ["-1e400", "-inf", "nan"])
    def test_nan_and_minus_inf_entries_name_their_line(self, tmp_path, capsys, entry):
        matrix = tmp_path / "cost.txt"
        matrix.write_text(f"-5 -1\n\n1 {entry}\n", encoding="utf-8")
        assert main(["assign", "--input", str(matrix)]) == 2
        assert capsys.readouterr().err == (
            f"error: {matrix}:3: bad cost entry:"
            " NaN, -inf and an entry that overflows to -inf are not costs\n"
        )

    @pytest.mark.parametrize("text, message", [
        ("1 2\n3 x\n", "2: bad cost entry: could not convert string to float: 'x'"),
        ("1 2\n\n3\n", "3: cost matrix rows have inconsistent lengths"),
    ], ids=["bad_token", "ragged_rows"])
    def test_bad_line_names_file_and_line(self, tmp_path, capsys, monkeypatch, text, message):
        monkeypatch.chdir(tmp_path)
        Path("c.txt").write_text(text, encoding="utf-8")
        assert main(["assign", "--input", "c.txt"]) == 2
        assert capsys.readouterr().err == f"error: c.txt:{message}\n"


class TestReadCostFile:
    def test_round_trip_with_inf(self, tmp_path):
        path = tmp_path / "cost.txt"
        path.write_text("1.5 inf -2\ninf 0 3\n", encoding="utf-8")
        costs = read_cost_file(path)
        assert costs.shape == (2, 3)
        assert costs[0, 1] == FORBIDDEN
        assert costs[1, 0] == FORBIDDEN
        assert costs[0, 2] == -2.0

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "cost.txt"
        path.write_text("1 2\n3\n", encoding="utf-8")
        with pytest.raises(InputError, match="cost.txt:2: cost matrix rows have inconsistent"):
            read_cost_file(path)

    def test_bad_token_rejected(self, tmp_path):
        path = tmp_path / "cost.txt"
        path.write_text("1 x\n", encoding="utf-8")
        with pytest.raises(InputError, match="cost.txt:1: bad cost entry"):
            read_cost_file(path)

    def test_empty_text(self, tmp_path):
        path = tmp_path / "cost.txt"
        path.write_text("\n\n", encoding="utf-8")
        assert read_cost_file(path).shape == (0, 0)


def test_numerical_degeneracy_exits_1(tmp_path, capsys):
    # zero measurement noise and a zero-covariance birth make the innovation
    # covariance singular on the first detection
    config = {
        "name": "degenerate",
        "duration": 2,
        "region": {"x": [0.0, 10.0], "y": [0.0, 10.0]},
        "clutter_rate": 0.1,
        "model": {"measurement_noise_std": 0.0},
        "birth": [
            {"existence": 0.5, "mean": [1.0, 0.0, 1.0, 0.0], "std": [0.0, 0.0, 0.0, 0.0]}
        ],
    }
    scenario = tmp_path / "degenerate.yaml"
    scenario.write_text(yaml.safe_dump(config), encoding="utf-8")
    meas = tmp_path / "meas.txt"
    write_measurement_file(meas, [np.array([[1.0, 1.0]]), np.zeros((0, 2))])
    code = main(
        ["track", "--scenario", str(scenario), "--measurements", str(meas), "--out", str(tmp_path)]
    )
    assert code == 1
    assert "numerical" in capsys.readouterr().err


@pytest.mark.parametrize(
    "field, value", [("process_noise_intensity", 1e300), ("measurement_noise_std", 1e150)]
)
def test_overflowing_innovation_determinant_exits_1(tmp_path, capsys, field, value):
    # Valid magnitudes whose planar det S overflows; gains computed from it
    # would be 0, and the run would miss every target.
    scenario = small_scenario_file(tmp_path)
    config = yaml.safe_load(scenario.read_text(encoding="utf-8"))
    config["model"][field] = value
    scenario.write_text(yaml.safe_dump(config), encoding="utf-8")
    args = ["benchmark", "--scenario", str(scenario), "--runs", "1", "--max-globals", "5"]
    assert main(args + ["--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "numerical error: innovation covariance determinant overflows or underflows"
    ]
    assert not (tmp_path / "out" / "summary.csv").exists()


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as excinfo:
        main(["no-such-command"])
    assert excinfo.value.code == 2


def test_out_defaults_to_the_working_directory(tmp_path, monkeypatch):
    scenario = small_scenario_file(tmp_path, duration=5)
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    assert main(["simulate", "--scenario", str(scenario), "--seed", "1"]) == 0
    assert (work / "measurements.txt").exists() and (work / "truth.txt").exists()


def test_python_dash_m_reaches_the_cli():
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run(
        [sys.executable, "-m", "mbmtrack", "--help"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: mbmtrack")


def test_python_dash_m_assign_exit_codes(tmp_path):
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    matrix = tmp_path / "cost.txt"
    matrix.write_text("-5 -1\n-2 -4\n", encoding="utf-8")
    argv = [sys.executable, "-m", "mbmtrack", "assign", "--input", str(matrix), "--k", "2"]
    done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "-9\t0->0 1->1\n-5\t0->0\n"
    matrix.write_bytes(UNREADABLE["not_utf8"][0])
    done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert done.stderr.startswith(f"error: {matrix} is not UTF-8 text"), done.stderr
