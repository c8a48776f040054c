"""Smoke test of ``tests/layer_times.py``: its bindings exist and its N_h = 1 counts hold.

The script rebinds library functions to timed wrappers, so it runs in a
subprocess here and its wrappers never reach another test.
"""
import os
import subprocess
import sys
from pathlib import Path

import layer_times

TESTS = Path(__file__).resolve().parent


def test_every_rebound_name_exists_on_its_module():
    for module, name in layer_times.BINDINGS:
        assert callable(getattr(module, name, None)), f"{module.__name__}.{name}"


def test_n_h_1_run_prints_the_exact_filter_counts():
    env = {**os.environ, "PYTHONPATH": str(TESTS.parent / "src")}
    done = subprocess.run(
        [sys.executable, str(TESTS / "layer_times.py"), "--max-globals", "1", "--repeats", "5"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    lines = dict(line.rsplit(None, 1) for line in done.stdout.splitlines()[1:])
    assert (lines["murty_count"], lines["lsap_count"], lines["solutions_count"]) == (
        "0", "81", "81")
    # One fold per prune, plus the one of the state init_empty builds.
    assert lines["merge_count"] == "82"
    assert float(lines["scoring_s"]) > 0.0 and int(lines["scoring murty_count"]) > 0
