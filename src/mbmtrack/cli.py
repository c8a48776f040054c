"""Command-line front end: simulate / track / evaluate / benchmark / assign.

File formats are line-oriented text so golden files stay diffable:

* measurement file: one line per step, points separated by ``;``, each
  point is whitespace-separated numbers (``12.5 30.25;40 51``);
* truth/estimates file: same layout with a leading ``t:l`` label token per
  state (``1:2 150 0.1 148 -0.2``);
* cost file: one matrix row per line, ``inf`` marking an excluded pair.

A fault in any of them names ``file:line``.  Every subcommand is
deterministic given its full flag set including the seed.  Exit codes: 0
success, 2 usage/input error, 1 numerical error.
"""
from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from .assignment import FORBIDDEN, k_best
from .errors import InputError, NumericalError, finite_array, read_text
from .gaussian import _as_measurement_block
from .gospa import GospaParams, gospa_run, run_summary
from .sim import (
    generate_run_measurements,
    generate_truth,
    resolve_scenario,
    run_filter,
    run_monte_carlo,
)


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _row(*fields) -> str:
    """One CSV row: an int as ``str`` writes it, any other number by ``_fmt``."""
    return ",".join(str(f) if isinstance(f, int) else _fmt(f) for f in fields)


def _write_lines(path, lines) -> None:
    """Each line ended by a newline: no lines (no steps) write an empty file."""
    Path(path).write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def write_measurement_file(path, scans) -> None:
    lines = (";".join(" ".join(_fmt(v) for v in point) for point in scan) for scan in scans)
    _write_lines(path, lines)


def read_measurement_file(path, meas_dim: int) -> list[np.ndarray]:
    """One (points, meas_dim) scan per line: points split by ';', coordinates by spaces."""
    scans = []
    for line_no, line in enumerate(read_text(path).splitlines(), 1):
        points = []
        for token in filter(None, (part.strip() for part in line.split(";"))):
            try:
                points.append([float(v) for v in token.split()])
            except ValueError as exc:
                raise InputError(f"{path}:{line_no}: bad measurement {token!r}") from exc
        scans.append(_as_measurement_block(points, meas_dim, f"{path}:{line_no}: measurements"))
    return scans


def write_labeled_state_file(path, per_step) -> None:
    _write_lines(path, (
        ";".join(f"{t}:{l} " + " ".join(_fmt(v) for v in state) for (t, l), state in entries)
        for entries in per_step
    ))


def read_labeled_state_file(path) -> list[list[tuple[tuple[int, int], np.ndarray]]]:
    per_step = []
    for line_no, line in enumerate(read_text(path).splitlines(), 1):
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


def read_cost_file(path) -> np.ndarray:
    """One matrix row per non-blank line; an inf token, and no other, is FORBIDDEN."""
    rows = []
    for line_no, line in enumerate(read_text(path).splitlines(), 1):
        tokens = line.split()
        if not tokens:
            continue
        try:
            rows.append([float(tok) for tok in tokens])
            if any(v == FORBIDDEN and "inf" not in t.lower() for t, v in zip(tokens, rows[-1])):
                raise ValueError("a finite entry overflows a float; only inf excludes a pair")
            if not all(-FORBIDDEN < v <= FORBIDDEN for v in rows[-1]):
                raise ValueError("NaN, -inf and an entry that overflows to -inf are not costs")
        except ValueError as exc:
            raise InputError(f"{path}:{line_no}: bad cost entry: {exc}") from exc
        if len(rows[-1]) != len(rows[0]):
            raise InputError(f"{path}:{line_no}: cost matrix rows have inconsistent lengths")
    return np.array(rows, dtype=float) if rows else np.zeros((0, 0))


def _out_dir(args) -> Path:
    path = Path(args.out)
    path.mkdir(parents=True, exist_ok=True)
    return path


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
    defaults = scenario.filter_defaults
    cap = defaults.max_globals if args.max_globals is None else args.max_globals
    params = dataclasses.replace(defaults, max_globals=cap)
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
    gospa_params = GospaParams(cutoff=args.gospa_c, order=args.gospa_p)
    out = _out_dir(args)
    rows = ["step,total,loc_p,missed_p,false_p,n_missed,n_false"]
    if len(truth) != len(estimates):
        raise InputError(f"{args.truth}, {args.estimates}: GOSPA needs one estimate set per "
                         f"truth set, got {len(truth)} and {len(estimates)}")
    sizes = np.array([[len(t), len(e)] for t, e in zip(truth, estimates)], np.intp).reshape(-1, 2)
    results = gospa_run(_positions(args.truth, truth), _positions(args.estimates, estimates),
                        sizes, gospa_params)
    rows += (_row(k, r.total, r.localisation_p, r.missed_p, r.false_p, r.n_missed, r.n_false)
             for k, r in enumerate(results, start=1))
    _write_lines(out / "gospa.csv", rows)
    summary = ["steps,rms_gospa,rms_loc,rms_missed,rms_false",
               _row(len(results), *run_summary(results, gospa_params.order))]
    _write_lines(out / "gospa_summary.csv", summary)
    print(f"wrote {out / 'gospa.csv'} and {out / 'gospa_summary.csv'}")
    return 0


def _positions(path, per_step) -> np.ndarray:
    """Every step's states as one (points, 2) block to score, line k of ``path``
    holding step k: 2D points stay, 4D tracker states project to (px, py)."""
    for line_no, entries in enumerate(per_step, 1):
        for _, state in entries:
            if state.size not in (2, 4):
                raise InputError(f"{path}:{line_no}: expected 2D points or 4D states, "
                                 f"got dimension {state.size}")
    return np.reshape([s[[0, 2]] if s.size == 4 else s for e in per_step for _, s in e], (-1, 2))


def cmd_benchmark(args) -> int:
    scenario = resolve_scenario(args.scenario)
    defaults = scenario.filter_defaults
    caps = str(defaults.max_globals) if args.max_globals_list is None else args.max_globals_list
    try:
        nh_values = [int(v) for v in caps.split(",") if v.strip()]
    except ValueError as exc:
        raise InputError(f"bad --max-globals list {args.max_globals_list!r}") from exc
    if not nh_values:
        raise InputError("--max-globals must list at least one value")
    if len(set(nh_values)) < len(nh_values):
        # A repeated cap would rerun the same runs and overwrite its runs_nh<N>.csv.
        raise InputError(f"--max-globals lists a cap more than once: {args.max_globals_list!r}")
    all_params = [dataclasses.replace(defaults, max_globals=nh) for nh in nh_values]
    gospa_params = GospaParams(args.gospa_c, args.gospa_p)
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
        for r in report.records:
            for k, g in enumerate(r.gospa, start=1):
                run_rows.append(_row(r.seed - args.seed, k, r.measurement_counts[k - 1],
                                     len(r.estimates[k - 1]), g.total, g.localisation_p,
                                     g.missed_p, g.false_p))
        _write_lines(out / f"runs_nh{nh}.csv", run_rows)
        summary_rows.append(_row(nh, args.runs, args.seed, gospa_params.cutoff,
                                 gospa_params.order, *report.mean_summary))
        timing_rows.append(f"{nh},{report.mean_runtime_s:.6f}")
    _write_lines(out / "summary.csv", summary_rows)
    _write_lines(out / "timings.csv", timing_rows)
    print(f"wrote {out / 'summary.csv'} and {out / 'timings.csv'}")
    return 0


def cmd_assign(args) -> int:
    for assignment in k_best(read_cost_file(args.input), args.k):
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
        p.add_argument("--out", default=".", help="output directory")

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
    p.add_argument("--max-globals", type=int, help="global-hypothesis cap (default: scenario's)")
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
        dest="max_globals_list",
        help="comma-separated list of global-hypothesis caps (default: the scenario's)",
    )
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
