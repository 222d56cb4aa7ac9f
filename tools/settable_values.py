"""Count the settable values and source lines of the sscosamp package.

A settable value is a function parameter with a default (positional or
keyword-only) or an annotated dataclass field with a default or a
``default_factory``.  Fields declared with ``field(init=False)`` are not
settable and do not count.

    python3 tools/settable_values.py                  # counts this checkout's src/
    python3 tools/settable_values.py --src OTHER/src  # counts another tree

Prints one ``module:line  owner.name`` line per value, then the total, then
the package's line count (what ``wc -l src/sscosamp/*.py`` totals) followed
by each module's.
"""

import argparse
import ast
from pathlib import Path


def _is_dataclass(cls):
    for deco in cls.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
        if name == "dataclass":
            return True
    return False


def _field_is_settable(value):
    """Whether a dataclass field's right-hand side gives it a settable default."""
    if not (isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field"):
        return True
    kwargs = {kw.arg: kw.value for kw in value.keywords}
    init = kwargs.get("init")
    if isinstance(init, ast.Constant) and init.value is False:
        return False
    return "default" in kwargs or "default_factory" in kwargs


def settable_values(path):
    """``(line, name)`` pairs for every settable value in one source file."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                name = getattr(child, "name", "<lambda>")
                qual = f"{owner}.{name}" if owner else name
                args = child.args
                positional = args.posonlyargs + args.args
                for arg in positional[len(positional) - len(args.defaults):]:
                    found.append((arg.lineno, f"{qual}({arg.arg})"))
                for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None:
                        found.append((arg.lineno, f"{qual}({arg.arg})"))
                visit(child, qual)
            elif isinstance(child, ast.ClassDef):
                qual = f"{owner}.{child.name}" if owner else child.name
                if _is_dataclass(child):
                    for stmt in child.body:
                        if (isinstance(stmt, ast.AnnAssign) and stmt.value is not None
                                and isinstance(stmt.target, ast.Name)
                                and _field_is_settable(stmt.value)):
                            found.append((stmt.lineno, f"{qual}.{stmt.target.id}"))
                visit(child, qual)
            else:
                visit(child, owner)

    visit(tree, "")
    return sorted(found)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parents[1] / "src"),
                        help="source root holding the sscosamp package (default: ./src)")
    args = parser.parse_args()
    package = Path(args.src) / "sscosamp"
    total = 0
    lines = {}
    for path in sorted(package.glob("*.py")):
        for line, name in settable_values(path):
            print(f"{path.name}:{line}  {name}")
            total += 1
        lines[path.name] = path.read_bytes().count(b"\n")
    print(f"settable values: {total}")
    per_module = ", ".join(f"{name} {count}" for name, count in lines.items())
    print(f"src lines: {sum(lines.values())} ({per_module})")


if __name__ == "__main__":
    main()
