"""Run one workload of the mbmtrack benchmark and print its metrics.

    python3 perfbench/run.py --workload s1-nh1 --seed 0 --seconds 45 --trace 0

With ``--trace 0`` it prints the end-to-end metrics, measured with tracing
off; with ``--trace 1`` it prints the per-layer metrics of a traced run.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records the
provenance of the result.  The package is imported from ``src/`` of the
checkout this script sits in, and every output goes under
``.perfbench-out/`` there.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
PROBE = Path(__file__).with_name("setup_probe.py")
# Set-up is measured this many times per run, half before the workload and
# half after it, so the median spans the run's whole window of host speed.
SETUP_REPEATS = 8


def parse_args(argv, workload_names):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workload_names)
    parser.add_argument("--seed", type=int, default=0, help="workload seed (default 0)")
    parser.add_argument("--seconds", type=float, default=45.0, help="intended run length")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_package():
    """Import mbmtrack from this checkout's ``src/``, never from elsewhere."""
    if not (SRC / "mbmtrack" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'mbmtrack'} not found; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import mbmtrack

    if Path(mbmtrack.__file__).resolve().parent != SRC / "mbmtrack":
        sys.exit(f"error: imported mbmtrack from {mbmtrack.__file__}, not {SRC}")


def setup_seconds(scenario: str, run_seed: int, repeats: int) -> list[float]:
    """Interpreter start to the first run's scans being ready, per fresh process."""
    times = []
    for _ in range(repeats):
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        done = subprocess.run(
            [sys.executable, str(PROBE), str(SRC), scenario, str(run_seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(done.stdout.split()[-1]) - start)
    return times


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def source_digest() -> str:
    """sha256 over the package sources, identifying checkouts that are not git repos."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "mbmtrack").rglob("*")):
        if path.suffix in (".py", ".yaml"):
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(extra: dict) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        **extra,
    }


def end_to_end(result: dict, setup: list[float]) -> dict:
    """(value, unit, samples) per end-to-end metric over the runs that passed their check."""
    ok = [s for s in result["plain"] if "error" not in s]
    steps = [t * 1000.0 for s in ok for t in s["step_s"]]
    step_ms = statistics.quantiles(steps, n=100, method="inclusive")
    runs = len(result["plain"])
    return {
        "setup_s": (statistics.median(setup), "s", f"{len(setup)} set-ups"),
        # The mean, not the median: the host's speed swings in phases of
        # seconds, and the mean over a whole run averages them most evenly.
        "run_s": (statistics.fmean(s["wall_s"] for s in ok), "s", f"{len(ok)} runs"),
        "runs_per_s": (len(ok) / result["wall_s"], "1/s", f"{len(ok)} runs"),
        "step_ms_p50": (step_ms[49], "ms", f"{len(steps)} steps"),
        "step_ms_p95": (step_ms[94], "ms", f"{len(steps)} steps"),
        "rms_gospa": (statistics.fmean(s["rms"] for s in ok), "m", f"{len(ok)} runs"),
        "peak_rss_mb": (result["rss_mb"], "MB", f"{result['workers']} process(es)"),
        "fail_frac": ((runs - len(ok)) / runs, "ratio", f"{runs} runs attempted"),
    }


def per_layer(result: dict) -> dict:
    """(value, unit, samples) per per-layer metric of the traced runs."""
    from tracing import layer_metrics

    plain = [s for s in result["plain"] if "error" not in s]
    traced = [s for s in result["traced"] if "error" not in s]
    # The spans cover every traced run, including any that failed.
    metrics = layer_metrics(result["layers"], len(result["traced"]))
    busy = sum(s["filter_s"] for s in plain) / (result["workers"] * result["wall_s"])
    metrics["sim.worker_busy_frac"] = (busy, "ratio", f"{len(plain)} untraced runs")
    overhead = statistics.fmean(s["wall_s"] for s in traced) / statistics.fmean(
        s["wall_s"] for s in plain
    ) - 1.0
    metrics["trace.overhead_frac"] = (overhead, "ratio", f"{len(traced)} traced vs {len(plain)} runs")
    return metrics


def main(argv=None) -> int:
    import_package()
    import workloads

    args = parse_args(argv, sorted(workloads.WORKLOADS))
    workload = workloads.WORKLOADS[args.workload]
    out_root = OUT / workload.name
    if out_root.exists():
        shutil.rmtree(out_root)
    out_root.mkdir(parents=True)

    count = workloads.n_runs(workload, args.seconds, bool(args.trace))
    setup_repeats = 0 if args.trace else SETUP_REPEATS // 2
    setup = setup_seconds(workload.scenario, workloads.FIRST_RUN_SEED, setup_repeats)
    if workload.workers > 1:
        result = workloads.run_cli(workload, count, bool(args.trace), out_root)
    else:
        result = workloads.run_single(workload, args.seed, count, bool(args.trace))
    setup += setup_seconds(workload.scenario, workloads.FIRST_RUN_SEED, setup_repeats)

    reference = workloads.load_reference()
    samples = result["plain"] + result["traced"]
    problems = []
    for sample in samples:
        problem = workloads.check(workload, sample, reference)
        if problem:
            # A run that raised or gave wrong outputs is left out of every metric.
            sample["error"] = problem
            problems.append(problem)
            print(f"check failed: {problem}", file=sys.stderr)
    if all("error" in s for s in result["plain"]) or (
        args.trace and all("error" in s for s in result["traced"])
    ):
        print("error: no run completed and passed its check", file=sys.stderr)
        return 1

    metrics = per_layer(result) if args.trace else end_to_end(result, setup)
    print(f"workload {workload.name}: {workload.why}")
    print(
        f"seed {args.seed}: {len(samples)} runs, truth seed {workloads.TRUTH_SEED}, "
        f"run seeds {[s['seed'] for s in samples]}"
    )
    for name, (value, unit, basis) in metrics.items():
        print(f"  {name:32s} {value:14.6g} {unit:6s} {basis}")
    info = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "samples": {name: basis for name, (_, _, basis) in metrics.items()},
    }
    print("provenance " + json.dumps(provenance(info), sort_keys=True))
    reported = {k: v for k, v in metrics.items() if k != "fail_frac"}
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": len(samples),
                "failed": len(problems),
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in reported.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
