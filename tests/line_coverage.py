"""List the lines of ``src/distopt`` that no test executes.

    python3 tests/line_coverage.py [PYTEST ARGS ...]

Runs ``pytest.main`` on ``tests/`` (or on the given arguments) in this
process, under ``sys.settrace`` and ``threading.settrace`` and with
Hypothesis seeded, so that two runs see the same lines, and prints
each line of ``src/distopt`` that starts a statement
(``dis.findlinestarts`` over the module's code objects) and that no test
ran, as ``path:line: source``.  Lines under ``if TYPE_CHECKING:`` never
run by design and are left out.  Besides pytest it needs only the
standard library, and it exits with pytest's exit code, so a failing run
does not pass for a list.

Limits:

- It sees only what runs in this process.  A test that starts the CLI in
  a subprocess (``python3 -m distopt.cli``) counts for nothing, so the
  lines only such a test reaches are listed.
- Tracing every line is slow: on a shared 2-core host the suite took
  about 2 minutes 10 s under it, against about 45 s plainly.

It is not a pytest module; pytest does not collect it.
"""
from __future__ import annotations

import ast
import dis
import os
import sys
import threading
from pathlib import Path
from types import CodeType

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "distopt"


def line_starts(code: CodeType) -> set[int]:
    """The lines that start an instruction run in ``code`` or in the code
    objects nested in it."""
    found = {line for _, line in dis.findlinestarts(code) if line is not None}
    for const in code.co_consts:
        if isinstance(const, CodeType):
            found |= line_starts(const)
    return found


def typing_only(tree: ast.Module) -> set[int]:
    """The lines of the bodies of ``if TYPE_CHECKING:`` blocks."""
    return {
        line
        for node in ast.walk(tree)
        if isinstance(node, ast.If)
        and isinstance(node.test, ast.Name)
        and node.test.id == "TYPE_CHECKING"
        for stmt in node.body
        for line in range(stmt.lineno, stmt.end_lineno + 1)
    }


def main(args: list[str]) -> int:
    src = str(ROOT / "src")
    # the tests' own subprocesses import this tree's package too
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])
    )
    sys.path.insert(0, src)
    import pytest  # imported before tracing starts; it imports no ``distopt``

    prefix = str(PACKAGE) + "/"
    ran: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def trace(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        ran.setdefault(filename, set()).add(frame.f_lineno)
        return local

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        code = pytest.main(["--hypothesis-seed=0", *(args or [str(ROOT / "tests")])])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        unrun = line_starts(compile(source, str(path), "exec"))
        unrun -= ran.get(str(path), set()) | typing_only(ast.parse(source))
        for line in sorted(unrun):
            print(f"{path.relative_to(ROOT)}:{line}: {lines[line - 1].strip()}")
        missed += len(unrun)
    print(f"{missed} line starts in src/distopt ran in no test", file=sys.stderr)
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
