"""List the statements of src/pcalc that a test run never executes.

    python3 tools/untested_lines.py [PYTEST_ARGS...]

Runs pytest (tests/ by default) in this process under a sys.settrace hook
that records the lines run in frames of src/pcalc, then prints every
statement none of whose lines ran, as ``file:line  text``, and their
count.  A compound statement counts by its header lines; docstrings and
bare annotations compile to no code and are left out.  Tracing makes
tier-1 about five times slower (two minutes on a 2-CPU host).
"""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "pcalc"
hit: dict[str, set[int]] = {}


def _lines(frame, event, arg):
    if event == "line":
        hit.setdefault(frame.f_code.co_filename, set()).add(frame.f_lineno)
    return _lines


def _span(node: ast.stmt) -> range:
    body = getattr(node, "body", None)
    if isinstance(body, list) and body:  # compound: decorators and header
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        return range(first, max(body[0].lineno, first + 1))
    return range(node.lineno, node.end_lineno + 1)


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    sys.settrace(lambda frame, event, arg:
                 _lines if frame.f_code.co_filename.startswith(str(SRC)) else None)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider",
                            *(sys.argv[1:] or [str(ROOT / "tests")])])
    finally:
        sys.settrace(None)
    missed = []
    for path in sorted(SRC.glob("*.py")):
        text, ran = path.read_text(encoding="utf-8"), hit.get(str(path), set())
        for node in ast.walk(ast.parse(text)):
            silent = (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                      or isinstance(node, ast.AnnAssign) and node.value is None)
            if isinstance(node, ast.stmt) and not silent and ran.isdisjoint(_span(node)):
                line = text.splitlines()[node.lineno - 1].strip()
                missed.append((str(path.relative_to(ROOT)), node.lineno, line))
    for path, lineno, line in sorted(missed):
        print(f"{path}:{lineno}  {line}")
    print(f"{len(missed)} statements never executed (pytest exit code {code})")
    return int(code)


if __name__ == "__main__":
    sys.exit(main())
