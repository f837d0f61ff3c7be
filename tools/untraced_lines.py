"""List the executable lines of a package that a pytest run never reaches.

    python3 tools/untraced_lines.py [--package DIR] [PYTEST_ARGS ...]

Runs pytest in this process under ``sys.settrace`` and
``threading.settrace``, recording the lines of frames whose code lives
under ``--package`` (default ``src/primpair``); the other frames run
untraced.  A module's executable lines are the ``co_lines`` of its compiled
source, nested code objects included.  Prints every executable line that
never ran as ``path:line: source``, then a total, and exits with pytest's
exit code.

Only this process is traced, so lines reached only in child processes are
listed too: those that only the CLI subprocess tests or the demos run, for
example.
"""

from __future__ import annotations

import argparse
import os
import sys
import threading
from pathlib import Path

import pytest

DEFAULT_PACKAGE = Path(__file__).resolve().parent.parent / "src" / "primpair"


def executable_lines(path: Path) -> set[int]:
    """The line numbers that some instruction of the module at ``path``
    carries, over its code and every code object nested in it."""
    todo = [compile(path.read_bytes(), str(path), "exec")]
    lines = set()
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def trace_pytest(package: Path, pytest_args) -> tuple[dict[str, set[int]], int]:
    """({file of the package: lines that ran}, pytest's exit code)."""
    prefix = str(package) + os.sep
    reached: dict[str, set[int]] = {}
    inside: dict[object, set[int] | None] = {}    # per code object

    def local(frame, event, arg):
        if event == "line":
            inside[frame.f_code].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        code = frame.f_code
        if code not in inside:
            path = os.path.realpath(code.co_filename)
            inside[code] = (reached.setdefault(path, set())
                            if path.startswith(prefix) else None)
        lines = inside[code]
        if lines is None:
            return None
        lines.add(frame.f_lineno)
        return local

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(list(pytest_args))
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return reached, int(code)


def main(argv) -> int:
    parser = argparse.ArgumentParser(
        description="executable lines of a package that pytest never runs")
    parser.add_argument("--package", type=Path, default=DEFAULT_PACKAGE,
                        help="package directory (default: src/primpair)")
    args, pytest_args = parser.parse_known_args(argv)
    package = Path(os.path.realpath(args.package))
    reached, code = trace_pytest(package, pytest_args)
    total = missed = 0
    for path in sorted(package.rglob("*.py")):
        lines = executable_lines(path)
        source = path.read_text().splitlines()
        never = sorted(lines - reached.get(str(path), set()))
        total += len(lines)
        missed += len(never)
        name = os.path.relpath(path)
        for line in never:
            print(f"{name}:{line}: {source[line - 1].strip()}")
    print(f"{missed} of {total} executable lines never ran in this process; "
          "lines reached only in child processes, such as CLI subprocess "
          "tests and demos, are listed too")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
