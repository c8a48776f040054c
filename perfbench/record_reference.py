"""Record the reference outputs that every benchmark run is checked against.

    python3 perfbench/record_reference.py

Runs every run seed of every single-process workload's pool and one call of
the CLI workload once, untraced, and writes each run's RMS-GOSPA and
per-step estimate counts, plus the CLI call's summary.csv digest, to
``reference.json``.  Rerun it only when the filter's outputs are
meant to change.
"""
from __future__ import annotations

import json
import sys

import run

run.import_package()

import workloads  # noqa: E402


def main() -> int:
    runs: dict[str, dict] = {}
    summary_sha256 = None

    def keep(workload, sample):
        if "error" in sample:
            sys.exit(f"{workload.name}: {sample['error']}")
        entry = {"rms": sample["rms"], "counts": sample["counts"]}
        key = workloads.reference_key(workload)
        previous = runs.setdefault(key, {}).setdefault(str(sample["seed"]), entry)
        if previous != entry:
            sys.exit(f"{key} run seed {sample['seed']}: two recordings differ")

    for workload in workloads.WORKLOADS.values():
        if workload.workers > 1:
            result = workloads.cli_call(workload, run.OUT / "reference")
            for sample in result["samples"]:
                keep(workload, sample)
            summary_sha256 = result["samples"][0]["summary_sha256"]
        else:
            runner = workloads.SingleProcessRunner(workload.scenario, workload.max_globals)
            runner.prepare()
            for run_seed in workloads.run_seeds(workload, 0, workload.pool):
                keep(workload, runner.run(run_seed))
        print(f"recorded {workload.name}", flush=True)

    reference = {
        "source_sha256": run.source_digest(),
        "truth_seed": workloads.TRUTH_SEED,
        "runs": runs,
        "cli_summary_sha256": summary_sha256,
    }
    text = json.dumps(reference, indent=1, sort_keys=True) + "\n"
    workloads.REFERENCE_FILE.write_text(text, encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
