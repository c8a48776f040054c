import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from mbmtrack.cli import (
    _params_from_args,
    build_parser,
    main,
    read_labeled_state_file,
    read_measurement_file,
    write_labeled_state_file,
    write_measurement_file,
)
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
        assert main(base + ["--out", str(t3), "--max-globals", "100", "--gate", "25"]) == 0

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
        assert "mismatch" in capsys.readouterr().err

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

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    def test_reader_rejects_non_finite_state(self, tmp_path, token):
        path = tmp_path / "states.txt"
        path.write_text(f"1:1 0 0 0 0;1:2 0 {token} 0 0\n", encoding="utf-8")
        with pytest.raises(InputError, match="must be finite"):
            read_labeled_state_file(path)


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
        main(["simulate", "--scenario", str(scenario), "--seed", "9", "--out", str(sim_out)])
        track_out = tmp_path / "trk"
        main(
            [
                "track",
                "--scenario",
                str(scenario),
                "--measurements",
                str(sim_out / "measurements.txt"),
                "--out",
                str(track_out),
            ]
        )
        eval_out = tmp_path / "ev"
        main(
            [
                "evaluate",
                "--truth",
                str(sim_out / "truth.txt"),
                "--estimates",
                str(track_out / "estimates.txt"),
                "--out",
                str(eval_out),
            ]
        )
        bench_out = tmp_path / "bench"
        main(
            [
                "benchmark",
                "--scenario",
                str(scenario),
                "--seed",
                "9",
                "--runs",
                "1",
                "--max-globals",
                "30",
                "--out",
                str(bench_out),
            ]
        )
        gospa_rows = (eval_out / "gospa.csv").read_text().strip().splitlines()[1:]
        run_rows = (bench_out / "runs_nh30.csv").read_text().strip().splitlines()[1:]
        assert len(gospa_rows) == len(run_rows)
        for g_row, r_row in zip(gospa_rows, run_rows):
            assert float(g_row.split(",")[1]) == pytest.approx(
                float(r_row.split(",")[4]), abs=1e-12
            )

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


class TestFilterParamsFromArgs:
    def test_unset_flags_keep_scenario_defaults(self):
        args = build_parser().parse_args(["track", "--measurements", "m.txt"])
        defaults = FilterParams(max_globals=30, gate_threshold=12.0)
        assert _params_from_args(args, defaults) == defaults

    def test_set_flags_override(self):
        args = build_parser().parse_args(
            [
                "track", "--measurements", "m.txt", "--max-globals", "7", "--gate", "25",
                "--prune-weight", "1e-4", "--prune-existence", "0.01",
                "--estimate-threshold", "0.6",
            ]
        )
        assert _params_from_args(args, FilterParams(max_globals=30)) == FilterParams(
            max_globals=7,
            gate_threshold=25.0,
            prune_global_weight=1e-4,
            prune_existence=0.01,
            estimate_existence=0.6,
        )

    def test_benchmark_cap_overrides_flag(self):
        args = build_parser().parse_args(["benchmark", "--max-globals", "5,9", "--gate", "30"])
        assert _params_from_args(args, FilterParams(), max_globals=9) == FilterParams(
            max_globals=9, gate_threshold=30.0
        )


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestRejectedTrackInput:
    def run_track(self, tmp_path, measurement_text, extra=()):
        scenario = small_scenario_file(tmp_path)
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
        assert self.run_track(tmp_path, "140 170\n", ["--gate", "-1"]) == 2
        assert "gate_threshold" in capsys.readouterr().err

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


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as excinfo:
        main(["no-such-command"])
    assert excinfo.value.code == 2


def test_out_dir_env_var(tmp_path, monkeypatch, capsys):
    matrix = tmp_path / "cost.txt"
    matrix.write_text("-1\n", encoding="utf-8")
    monkeypatch.setenv("MBMTRACK_OUT", str(tmp_path / "envout"))
    scenario = small_scenario_file(tmp_path, duration=5)
    assert main(["simulate", "--scenario", str(scenario), "--seed", "1"]) == 0
    assert (tmp_path / "envout" / "measurements.txt").exists()


def test_python_dash_m_reaches_the_cli():
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run(
        [sys.executable, "-m", "mbmtrack", "--help"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: mbmtrack")
