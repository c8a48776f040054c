"""``tests/ab.py``, the in-process A/B timing script: the working tree against
itself, from a copy that has no ``.git``, and its stop on a differing run."""
import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import ab
import pytest

ROOT = Path(__file__).resolve().parents[1]
RESULT_KEYS = {
    "pairs", "run_seeds", "a_run_s_quartiles", "b_run_s_quartiles", "ratio_median", "wins",
    "aa_ratio_median", "aa_ratio_quartiles", "aa_wins", "within_floor",
}


def test_worktree_against_itself_without_git(tmp_path):
    tree = tmp_path / "tree"
    shutil.copytree(ROOT / "src" / "mbmtrack", tree / "src" / "mbmtrack",
                    ignore=shutil.ignore_patterns("__pycache__"))
    (tree / "tests").mkdir()
    shutil.copy(ROOT / "tests" / "ab.py", tree / "tests" / "ab.py")
    args = ["WORKTREE", "WORKTREE", "--label", "smoke", "--pairs", "1:3", "200:0",
            "--out", str(tmp_path)]
    done = subprocess.run([sys.executable, str(tree / "tests" / "ab.py"), *args],
                          capture_output=True, text=True, cwd=tmp_path, timeout=60)
    assert done.returncode == 0, done.stderr
    record = json.loads((tmp_path / "BENCH_smoke.json").read_text(encoding="utf-8"))
    assert set(record) == {"label", "a", "b", "provenance", "scenario", "truth_seed", "pairs",
                           "results"}
    assert record["a"] == record["b"]
    assert record["a"]["revision"] == "WORKTREE" and record["a"]["commit"] is None
    assert set(record["provenance"]) == {"nproc", "cpu_model", "python", "numpy", "scipy"}
    assert record["pairs"] == {"1": 3, "200": 0}
    assert list(record["results"]) == ["1"]
    result = record["results"]["1"]
    assert set(result) == RESULT_KEYS
    assert result["pairs"] == 3 and result["run_seeds"] == [2027, 2029]
    assert 0 <= result["wins"] <= 3 and 0 <= result["aa_wins"] <= 3


def test_a_differing_run_stops_naming_its_seed():
    a = SimpleNamespace(summary=(1.0, 0.5, 0.5, 0.0), estimates=[[], ["x"]])
    ab.compare(2030, 1, "B", a, a)
    for b in (SimpleNamespace(summary=a.summary, estimates=[["x"], []]),
              SimpleNamespace(summary=(1.0, 0.5, 0.25, 0.25), estimates=a.estimates)):
        with pytest.raises(SystemExit, match="N_h = 1, run seed 2030, B differs from A"):
            ab.compare(2030, 1, "B", b, a)
