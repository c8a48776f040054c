"""In-process A/B timing of two revisions of ``src/mbmtrack`` on scenario1.

    python tests/ab.py REV_A REV_B --label L [--pairs 1:300 200:30] [--out .]

A revision is a git revision of this checkout, whose ``src/mbmtrack`` is
taken with ``git archive``, or ``WORKTREE``, the package as this tree holds
it.  Each side is copied into a temporary directory under its own package
name (``ab_a``, ``ab_b``, and ``ab_a2``, a second copy of A) and imported
into this one process: the package's relative imports and
``importlib.resources.files(__package__)`` make each copy load its own
modules and scenarios.

``--pairs`` gives, for each N_h, the number of pairs.  Pair i runs
scenario1 (truth seed 2026) on run seed 2026 + i, as run i of
``run_monte_carlo`` (``sim._single_run``, timed whole): once on A and once
on B, in the order A B on odd i and B A on even i, and then once more on A
and once on A2, alternating the same way, for the A/A floor.  Each side
first makes one untimed run.  If a run's ``RunRecord.summary`` or per-step
estimate counts differ from A's on the same seed, the script stops with a
non-zero exit that names the seed.

Per N_h it prints and records each side's median and quartiles of the run
time, the median paired ratio B/A and the pairs B won (ran faster), and the
floor: the median ratio A2/A, its quartiles and the pairs A2 won.  B/A is
``within_floor`` when its median lies inside those quartiles.  It writes
``BENCH_<label>.json`` into ``--out`` with both revisions (the commit, where
git knows it, which for ``WORKTREE`` is the HEAD its edits sit on, and the
sha256 of the copied package, which tells what ran), provenance (nproc, CPU
model, Python, numpy, scipy), seeds, pair counts and results.  Like
``golden.py``, this file is not collected by pytest.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib
import io
import json
import os
import platform
import shutil
import subprocess
import sys
import tarfile
import tempfile
import time
from dataclasses import replace
from importlib.metadata import version
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = "src/mbmtrack"
TRUTH_SEED = 2026
WORKTREE = "WORKTREE"


def git(*args: str) -> str | None:
    """The stripped output of ``git args`` in this checkout, or None where git fails."""
    try:
        done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return done.stdout.decode().strip()


def materialize(revision: str, target: Path) -> dict:
    """Copy ``revision``'s package to ``target``; its commit and the package's sha256."""
    if revision == WORKTREE:
        shutil.copytree(ROOT / PACKAGE, target, ignore=shutil.ignore_patterns("__pycache__"))
        commit = git("rev-parse", "HEAD")
    else:
        commit = git("rev-parse", "--verify", f"{revision}^{{commit}}")
        archive = commit and subprocess.run(["git", "archive", commit, PACKAGE], cwd=ROOT,
                                            capture_output=True).stdout
        if not archive:
            sys.exit(f"error: git cannot give {PACKAGE} at revision {revision!r}")
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            for member in filter(tarfile.TarInfo.isfile, tar.getmembers()):
                path = target / Path(member.name).relative_to(PACKAGE)
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_bytes(tar.extractfile(member).read())
    digest = hashlib.sha256()
    for path in sorted(p for p in target.rglob("*") if p.is_file()):
        digest.update(path.relative_to(target).as_posix().encode() + b"\0" + path.read_bytes())
    return {"revision": revision, "commit": commit, "package_sha256": digest.hexdigest()}


def runner(name: str, max_globals: int):
    """A function of a run seed that times one scenario1 run of package ``name``."""
    sim = importlib.import_module(f"{name}.sim")
    scenario = sim.generate_truth(sim.builtin_scenario("scenario1"), TRUTH_SEED)
    params = replace(scenario.filter_defaults, max_globals=max_globals)
    gospa_params = sim.GospaParams()

    def run(seed: int):
        start = time.perf_counter()
        record = sim._single_run(scenario, params, seed, gospa_params)
        return time.perf_counter() - start, record

    return run


def compare(seed: int, max_globals: int, side: str, record, reference) -> None:
    """Stop the script unless ``record`` scores and counts as A's ``reference`` does."""
    def counts(r):
        return [len(step) for step in r.estimates]

    if record.summary != reference.summary or counts(record) != counts(reference):
        sys.exit(f"error: at N_h = {max_globals}, run seed {seed}, {side} differs from A: "
                 f"summary {record.summary} against {reference.summary}")


def quartiles(values) -> list[float]:
    return np.percentile(values, [25, 50, 75]).tolist()


def measure(max_globals: int, pairs: int) -> dict:
    """Time ``pairs`` A/B and A/A pairs at N_h = ``max_globals``, as the module says."""
    runs = {side: runner(f"ab_{side}", max_globals) for side in ("a", "b", "a2")}
    for run in runs.values():
        run(TRUTH_SEED + 1)
    times = {other: ([], []) for other in ("b", "a2")}  # A's, and the other side's
    for i in range(1, pairs + 1):
        seed = TRUTH_SEED + i
        for other, (a_times, other_times) in times.items():
            order = ("a", other) if i % 2 else (other, "a")
            timed = {side: runs[side](seed) for side in order}
            compare(seed, max_globals, other.upper(), timed[other][1], timed["a"][1])
            a_times.append(timed["a"][0])
            other_times.append(timed[other][0])
    ratio, floor = (np.divide(other_times, a_times) for a_times, other_times in times.values())
    median, aa = float(np.median(ratio)), quartiles(floor)
    return {
        "pairs": pairs,
        "run_seeds": [TRUTH_SEED + 1, TRUTH_SEED + pairs],
        "a_run_s_quartiles": quartiles(times["b"][0]),
        "b_run_s_quartiles": quartiles(times["b"][1]),
        "ratio_median": median,
        "wins": int(np.count_nonzero(ratio < 1.0)),
        "aa_ratio_median": aa[1],
        "aa_ratio_quartiles": [aa[0], aa[2]],
        "aa_wins": int(np.count_nonzero(floor < 1.0)),
        "within_floor": aa[0] <= median <= aa[2],
    }


def provenance() -> dict:
    cpuinfo = Path("/proc/cpuinfo")
    models = [line.split(":", 1)[1].strip() for line in
              (cpuinfo.read_text().splitlines() if cpuinfo.exists() else [])
              if line.startswith("model name")]
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {"nproc": nproc, "cpu_model": models[0] if models else platform.processor(),
            "python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy")}


def pair_count(text: str) -> tuple[int, int]:
    max_globals, _, count = text.partition(":")
    if not (max_globals.isdigit() and count.isdigit() and int(max_globals) >= 1):
        raise argparse.ArgumentTypeError(f"expected N_H:COUNT with N_H >= 1, got {text!r}")
    return int(max_globals), int(count)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev_a", help=f"a git revision, or {WORKTREE}")
    parser.add_argument("rev_b", help=f"a git revision, or {WORKTREE}")
    parser.add_argument("--label", required=True, help="names the output, BENCH_<label>.json")
    parser.add_argument("--pairs", nargs="+", type=pair_count, default=[(1, 300), (200, 30)],
                        metavar="N_H:COUNT", help="pairs per N_h (default: 1:300 200:30)")
    parser.add_argument("--out", type=Path, default=Path("."), help="directory for the JSON")
    args = parser.parse_args(argv)
    pairs = dict(args.pairs)
    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        sides = {name: materialize(rev, Path(tmp, name)) for name, rev in
                 (("ab_a", args.rev_a), ("ab_b", args.rev_b), ("ab_a2", args.rev_a))}
        sys.path.insert(0, tmp)
        try:
            results = {str(n): measure(n, count) for n, count in pairs.items() if count}
        finally:
            sys.path.remove(tmp)
    for n, result in results.items():
        a, b = result["a_run_s_quartiles"][1], result["b_run_s_quartiles"][1]
        print(f"N_h = {n}: {result['pairs']} pairs, median run A {a * 1e3:.2f} ms, "
              f"B {b * 1e3:.2f} ms; B/A {result['ratio_median']:.4f} (B won "
              f"{result['wins']}); A/A {result['aa_ratio_median']:.4f}, quartiles "
              f"{result['aa_ratio_quartiles'][0]:.4f}-{result['aa_ratio_quartiles'][1]:.4f} "
              f"(A2 won {result['aa_wins']}); within floor: {result['within_floor']}")
    record = {
        "label": args.label,
        "a": sides["ab_a"],
        "b": sides["ab_b"],
        "provenance": provenance(),
        "scenario": "scenario1",
        "truth_seed": TRUTH_SEED,
        "pairs": {str(n): count for n, count in pairs.items()},
        "results": results,
    }
    out = args.out / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
