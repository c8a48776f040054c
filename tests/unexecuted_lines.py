"""Lines of ``src/mbmtrack`` that no tier-1 test executes.

    PYTHONPATH=src python tests/unexecuted_lines.py [pytest arguments ...]

Runs the tier-1 suite (``tests/``, or what the extra arguments select) in
this process under ``sys.settrace``, tracing only frames whose code lives in
``src/mbmtrack``, and prints each executable line (a line some compiled code
object of the package maps bytecode to) that no test ran, as
``path:line: source``.  Work that tests hand to subprocesses or worker
processes is not traced, and ``mbmtrack`` must not be imported before the
trace starts, or its module-level lines would read as unexecuted.  The suite
runs several times slower under the trace.  Like ``golden.py``, this file is
not collected by pytest.
"""
from __future__ import annotations

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "mbmtrack"


def executable_lines(path: Path) -> set[int]:
    """Every line that some code object compiled from ``path`` maps bytecode to."""
    lines, codes = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while codes:
        code = codes.pop()
        # A function's first instruction sits on its ``def`` line, which the
        # enclosing code executes; it raises no line event of its own.  Nor
        # does the line 0 that some compiler-made instructions map to.
        first = code.co_firstlineno if code.co_name != "<module>" else None
        lines.update(line for _, _, line in code.co_lines() if line and line != first)
        codes.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def main(argv: list[str]) -> int:
    if "mbmtrack" in sys.modules:
        raise RuntimeError("mbmtrack was imported before the trace started")
    prefix = str(PACKAGE) + "/"
    ran: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        ran.setdefault(filename, set())
        return local

    sys.settrace(tracer)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", *(argv or [str(ROOT / "tests")])])
    finally:
        sys.settrace(None)
    if not ran:
        raise RuntimeError(f"no test ran code under {PACKAGE}")
    missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8").splitlines()
        for line in sorted(executable_lines(path) - ran.get(str(path), set())):
            print(f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
            missed += 1
    print(f"{missed} executable lines of {PACKAGE.relative_to(ROOT)} unexecuted")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
