"""The README's Python example runs as written, so the public idiom it shows
cannot go stale."""
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_example_runs():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    # It filtered every step of the scenario and ended with estimates.
    assert namespace["k"] == namespace["scenario"].duration == len(namespace["scans"])
    assert namespace["estimates"]
