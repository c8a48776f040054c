"""Command-line front end: simulate / track / evaluate / benchmark / assign.

File formats are line-oriented text so golden files stay diffable:

* measurement file: one line per step, points separated by ``;``, each
  point is whitespace-separated numbers (``12.5 30.25;40 51``);
* truth/estimates file: same layout with a leading ``t:l`` label token per
  state (``1:2 150 0.1 148 -0.2``).

Every subcommand is deterministic given its full flag set including the
seed.  Exit codes: 0 success, 2 usage/input error, 1 numerical error.
"""
from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from pathlib import Path

import numpy as np

from .assignment import k_best, parse_cost_matrix
from .errors import InputError, NumericalError, finite_array
from .gospa import POSITION_PROJECTION, GospaParams, component_rms, gospa_run, rms
from .mbm import FilterParams
from .sim import (
    generate_run_measurements,
    generate_truth,
    resolve_scenario,
    run_filter,
    run_monte_carlo,
)

OUT_DIR_ENV = "MBMTRACK_OUT"


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _write_lines(path, lines) -> None:
    """Each line ended by a newline: no lines (no steps) write an empty file."""
    Path(path).write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def write_measurement_file(path, scans) -> None:
    lines = (";".join(" ".join(_fmt(v) for v in point) for point in scan) for scan in scans)
    _write_lines(path, lines)


def read_measurement_file(path, meas_dim: int) -> list[np.ndarray]:
    """One (points, meas_dim) scan per line: points split by ';', coordinates by spaces."""
    scans = []
    for line_no, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        points = []
        for token in filter(None, (part.strip() for part in line.split(";"))):
            try:
                points.append([float(v) for v in token.split()])
            except ValueError as exc:
                raise InputError(f"{path}:{line_no}: bad measurement {token!r}") from exc
        if any(len(point) != len(points[0]) for point in points):
            raise InputError(f"{path}:{line_no}: measurements have inconsistent dimensions")
        if points and len(points[0]) != meas_dim:
            raise InputError(
                f"{path}:{line_no}: measurements must have {meas_dim} coordinates, "
                f"got {len(points[0])}"
            )
        scan = finite_array(points, f"{path}:{line_no}: measurements")
        scans.append(scan.reshape(len(points), meas_dim))
    return scans


def write_labeled_state_file(path, per_step) -> None:
    _write_lines(path, (
        ";".join(f"{t}:{l} " + " ".join(_fmt(v) for v in state) for (t, l), state in entries)
        for entries in per_step
    ))


def read_labeled_state_file(path) -> list[list[tuple[tuple[int, int], np.ndarray]]]:
    per_step = []
    for line_no, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        entries = []
        for token in filter(None, (part.strip() for part in line.split(";"))):
            fields = token.split()
            try:
                t, l = fields[0].split(":")
                label = (int(t), int(l))
                state = [float(v) for v in fields[1:]]
            except (ValueError, IndexError) as exc:
                raise InputError(f"{path}:{line_no}: bad labeled state {token!r}") from exc
            if not state:
                raise InputError(f"{path}:{line_no}: labeled state {token!r} has no coordinates")
            state = finite_array(state, f"{path}:{line_no}: labeled state {token!r}")
            entries.append((label, state))
        per_step.append(entries)
    return per_step


def _out_dir(args) -> Path:
    out = args.out or os.environ.get(OUT_DIR_ENV) or "."
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _params_from_args(args, defaults: FilterParams, max_globals: int | None = None) -> FilterParams:
    given = {
        f.name: getattr(args, f.name)
        for f in dataclasses.fields(FilterParams)
        if getattr(args, f.name, None) is not None
    }
    if max_globals is not None:
        given["max_globals"] = max_globals
    return dataclasses.replace(defaults, **given)


def cmd_simulate(args) -> int:
    scenario = generate_truth(resolve_scenario(args.scenario), args.seed)
    out = _out_dir(args)
    truth_per_step = [scenario.truth_at(k) for k in range(1, scenario.duration + 1)]
    write_labeled_state_file(out / "truth.txt", truth_per_step)
    scans = generate_run_measurements(scenario, args.seed + 1)
    write_measurement_file(out / "measurements.txt", scans)
    print(f"wrote {out / 'truth.txt'} and {out / 'measurements.txt'}")
    return 0


def cmd_track(args) -> int:
    scenario = resolve_scenario(args.scenario)
    params = _params_from_args(args, scenario.filter_defaults)
    scans = read_measurement_file(args.measurements, scenario.model.meas_dim)
    estimates = run_filter(scenario, scans, params)
    out = _out_dir(args)
    per_step = [[(e.label, e.state) for e in step_estimates] for step_estimates in estimates]
    write_labeled_state_file(out / "estimates.txt", per_step)
    print(f"wrote {out / 'estimates.txt'}")
    return 0


def cmd_evaluate(args) -> int:
    truth = read_labeled_state_file(args.truth)
    estimates = read_labeled_state_file(args.estimates)
    if len(truth) != len(estimates):
        raise InputError(
            f"step-count mismatch: truth has {len(truth)} steps, estimates {len(estimates)}"
        )
    gospa_params = GospaParams(cutoff=args.gospa_c, order=args.gospa_p)
    out = _out_dir(args)
    rows = ["step,total,loc_p,missed_p,false_p,n_missed,n_false"]
    results = gospa_run(
        [[_positions(state) for _, state in entries] for entries in truth],
        [[_positions(state) for _, state in entries] for entries in estimates],
        gospa_params,
    )
    for k, result in enumerate(results, start=1):
        rows.append(
            f"{k},{_fmt(result.total)},{_fmt(result.localisation_p)},{_fmt(result.missed_p)},"
            f"{_fmt(result.false_p)},{result.n_missed},{result.n_false}"
        )
    _write_lines(out / "gospa.csv", rows)
    order = gospa_params.order
    summary = [
        "steps,rms_gospa,rms_loc,rms_missed,rms_false",
        ",".join(
            [
                str(len(results)),
                _fmt(rms(r.total for r in results)),
                _fmt(component_rms(results, "localisation_p", order)),
                _fmt(component_rms(results, "missed_p", order)),
                _fmt(component_rms(results, "false_p", order)),
            ]
        ),
    ]
    _write_lines(out / "gospa_summary.csv", summary)
    print(f"wrote {out / 'gospa.csv'} and {out / 'gospa_summary.csv'}")
    return 0


def _positions(state: np.ndarray) -> np.ndarray:
    """Position slice for scoring: 4D tracker states project to (px, py)."""
    if state.size == 4:
        return state[list(POSITION_PROJECTION)]
    if state.size == 2:
        return state
    raise InputError(f"expected 2D points or 4D states, got dimension {state.size}")


def cmd_benchmark(args) -> int:
    scenario = resolve_scenario(args.scenario)
    try:
        nh_values = [int(v) for v in str(args.max_globals_list).split(",") if v.strip()]
    except ValueError as exc:
        raise InputError(f"bad --max-globals list {args.max_globals_list!r}") from exc
    if not nh_values:
        raise InputError("--max-globals must list at least one value")
    if len(set(nh_values)) < len(nh_values):
        # A repeated cap would rerun the same runs and overwrite its runs_nh<N>.csv.
        raise InputError(f"--max-globals lists a cap more than once: {args.max_globals_list!r}")
    all_params = [
        _params_from_args(args, scenario.filter_defaults, max_globals=nh) for nh in nh_values
    ]
    gospa_params = GospaParams(args.gospa_c, args.gospa_p, POSITION_PROJECTION)
    out = _out_dir(args)
    summary_rows = [
        "max_globals,n_runs,seed,gospa_c,gospa_p,mean_rms_gospa,mean_rms_loc,mean_rms_missed,mean_rms_false"
    ]
    timing_rows = ["max_globals,mean_runtime_s"]
    for nh, params in zip(nh_values, all_params):
        report = run_monte_carlo(
            scenario, params, args.runs, args.seed, gospa_params, workers=args.workers
        )
        run_rows = ["run,step,m_k,n_estimates,gospa_total,loc_p,missed_p,false_p"]
        for record in report.records:
            for k, score in enumerate(record.gospa, start=1):
                run_rows.append(
                    ",".join(
                        [
                            str(record.seed - args.seed),
                            str(k),
                            str(len(record.measurements[k - 1])),
                            str(len(record.estimates[k - 1])),
                            _fmt(score.total),
                            _fmt(score.localisation_p),
                            _fmt(score.missed_p),
                            _fmt(score.false_p),
                        ]
                    )
                )
        _write_lines(out / f"runs_nh{nh}.csv", run_rows)
        summary_rows.append(
            ",".join(
                [
                    str(nh),
                    str(report.n_runs),
                    str(report.seed),
                    _fmt(gospa_params.cutoff),
                    _fmt(gospa_params.order),
                    _fmt(report.mean_rms_gospa),
                    _fmt(report.mean_component_rms("localisation_p")),
                    _fmt(report.mean_component_rms("missed_p")),
                    _fmt(report.mean_component_rms("false_p")),
                ]
            )
        )
        timing_rows.append(f"{nh},{report.mean_runtime_s:.6f}")
    _write_lines(out / "summary.csv", summary_rows)
    _write_lines(out / "timings.csv", timing_rows)
    print(f"wrote {out / 'summary.csv'} and {out / 'timings.csv'}")
    return 0


def cmd_assign(args) -> int:
    costs = parse_cost_matrix(Path(args.input).read_text(encoding="utf-8"))
    for assignment in k_best(costs, args.k):
        pairs = " ".join(f"{r}->{c}" for r, c in assignment.pairs())
        print(f"{assignment.total_cost:.12g}\t{pairs if pairs else '(none)'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mbmtrack",
        description="Multi-Bernoulli mixture tracking benchmark tools",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, scenario=True):
        if scenario:
            p.add_argument("--scenario", default="scenario1", help="builtin name or YAML path")
        p.add_argument("--out", default=None, help=f"output directory (default ${OUT_DIR_ENV} or .)")

    def add_params(p):
        # Each dest is a FilterParams field; each subcommand adds its own --max-globals.
        p.add_argument("--gate", type=float, dest="gate_threshold")
        p.add_argument("--prune-weight", type=float, dest="prune_global_weight")
        p.add_argument("--prune-existence", type=float)
        p.add_argument("--estimate-threshold", type=float, dest="estimate_existence")

    def add_gospa(p):
        p.add_argument("--gospa-c", type=float, default=10.0, dest="gospa_c")
        p.add_argument("--gospa-p", type=float, default=2.0, dest="gospa_p")

    p = sub.add_parser("simulate", help="write ground truth and measurements for one realization")
    add_common(p)
    p.add_argument("--seed", type=int, default=1)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("track", help="run the filter over a measurement file")
    add_common(p)
    p.add_argument("--measurements", required=True)
    p.add_argument("--max-globals", type=int)
    add_params(p)
    p.set_defaults(func=cmd_track)

    p = sub.add_parser("evaluate", help="per-step GOSPA between truth and estimates files")
    add_common(p, scenario=False)
    p.add_argument("--truth", required=True)
    p.add_argument("--estimates", required=True)
    add_gospa(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("benchmark", help="Monte Carlo benchmark, optionally sweeping N_h")
    add_common(p)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--runs", type=int, default=100)
    p.add_argument(
        "--max-globals",
        default="200",
        dest="max_globals_list",
        help="comma-separated list of global-hypothesis caps",
    )
    add_params(p)
    p.add_argument("--workers", type=int, default=1, help="parallel Monte Carlo processes")
    add_gospa(p)
    p.set_defaults(func=cmd_benchmark)

    p = sub.add_parser("assign", help="print the k best assignments of a cost matrix file")
    p.add_argument("--input", required=True, help="text matrix; token 'inf' marks excluded pairs")
    p.add_argument("--k", type=int, default=5)
    p.set_defaults(func=cmd_assign)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
