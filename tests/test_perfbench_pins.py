"""The library names that ``perfbench/`` imports and rebinds still exist.

``perfbench/anchors.py`` imports the benchmark's modules and the dataclass
state form, and a traced run enters every layer and timing binding, so a
refactor that drops one of those names fails here.  The tracer rebinds
library functions, so the run happens in a subprocess and its wrappers never
reach another test.
"""
import json
import subprocess
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SCRIPT = """
import json, sys
sys.path.insert(0, sys.argv[1])
import anchors  # noqa: F401
import workloads
sample, metrics = workloads.traced_run("scenario1", 1, 2027)
print(json.dumps([sample.get("error"), metrics["mbm.invariant_violations"][0]]))
"""


def test_traced_run_finds_every_name_it_binds():
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(PERFBENCH)],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    error, violations = json.loads(done.stdout.splitlines()[-1])
    assert error is None
    assert violations == 0
