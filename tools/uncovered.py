"""List the lines of src/sqzstat that no tier-1 test runs.

    python tools/uncovered.py

Runs the tier-1 suite (``tests/``) in this process under a line tracer that follows frames of
``src/sqzstat`` only, then prints ``path:line: source`` for every
executable line that no test reached, and a count.  A line is executable
if its module's compiled code maps an instruction to it.  Exits 1 if any
unreached line starts a ``raise`` statement, with pytest's status if the
suite fails, else 0: every error path of the library should be pinned by
a test.  Code that runs only in a subprocess a test starts (``__main__.py``,
for one) shows as unreached.
Takes about twice as long as the suite itself; needs the standard library
and pytest.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "sqzstat"


def _code_lines(code) -> set[int]:
    """Lines that the instructions of a code object and of the code nested in it map to."""
    lines = {line for _, _, line in code.co_lines() if line}  # None or 0: no source line
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def _raise_lines(source: str) -> set[int]:
    return {node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Raise)}


def _run_traced() -> tuple[int, dict[str, set[int]]]:
    import pytest

    prefix = str(PACKAGE) + os.sep
    hit: dict[str, set[int]] = {}
    files: dict[str, set[int] | None] = {}  # co_filename -> its line set in ``hit``, None if not ours

    def local(frame, event, arg):
        if event == "line":
            files[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in files:
            real = os.path.realpath(name)
            files[name] = hit.setdefault(real, set()) if real.startswith(prefix) else None
        return None if files[name] is None else local

    os.chdir(ROOT)
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors"])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(status), hit


def main() -> int:
    status, hit = _run_traced()
    unreached = raises = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        missed = sorted(_code_lines(compile(source, str(path), "exec")) - hit.get(str(path), set()))
        raise_lines, text = _raise_lines(source), source.splitlines()
        for line in missed:
            flag = "  [raise]" if line in raise_lines else ""
            print(f"{path.relative_to(ROOT)}:{line}: {text[line - 1].strip()}{flag}")
        unreached += len(missed)
        raises += len(raise_lines.intersection(missed))
    print(f"{unreached} unreached lines, {raises} of them raise; pytest exit status {status}")
    return status or (1 if raises else 0)


if __name__ == "__main__":
    sys.exit(main())
