"""The filter's per-step states and estimates against ``golden.json``.

Regenerate the file with ``PYTHONPATH=src python tests/golden.py --regen``.
"""
import json
import warnings

import golden
import numpy as np
import pytest

GOLDEN = json.loads(golden.PATH.read_text())
DIGESTS = ("predict", "update", "estimates", "prune")
COUNTS = ("predict_counts", "update_counts", "prune_counts")


@pytest.mark.parametrize("run", golden.RUNS, ids=golden.run_id)
def test_replay_matches_golden(run):
    expected = GOLDEN["runs"][golden.run_id(run)]
    got = golden.replay(run)
    assert len(got) == len(expected)
    for k, (step, gold) in enumerate(zip(got, expected), start=1):
        assert [step[name] for name in COUNTS] == [gold[name] for name in COUNTS], f"step {k}"
        values, gold_values = step["estimate_values"], gold["estimate_values"]
        assert [row[:2] for row in values] == [row[:2] for row in gold_values], f"step {k}"
        np.testing.assert_allclose(
            np.array([row[2:] for row in values]), np.array([row[2:] for row in gold_values]),
            rtol=1e-9, atol=1e-9, err_msg=f"step {k}",
        )
    if GOLDEN["versions"] != golden.versions():
        warnings.warn(
            f"golden digests were recorded under {GOLDEN['versions']}, not "
            f"{golden.versions()}: compared state sizes and estimate labels exactly and "
            "estimates to 1e-9, not the bitwise digests",
            stacklevel=1,
        )
        return
    for k, (step, gold) in enumerate(zip(got, expected), start=1):
        assert [step[name] for name in DIGESTS] == [gold[name] for name in DIGESTS], f"step {k}"
