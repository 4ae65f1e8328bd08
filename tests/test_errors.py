"""Every exception class the package defines is raised somewhere in it.

A guard deleted with its `raise` must take its class along; this stdlib-`ast`
check fails on a class in `errors.py` that no `raise` in `src/storyshots`
names.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "storyshots"


def defined_classes(source: str) -> list:
    return [node.name for node in ast.parse(source).body if isinstance(node, ast.ClassDef)]


def raised_names(source: str) -> set:
    """Names of the classes raised by `raise X`, `raise X(...)` and
    `raise mod.X(...)`, with or without `from`."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                names.add(exc.id)
            elif isinstance(exc, ast.Attribute):
                names.add(exc.attr)
    return names


def test_checker_reads_every_raise_form():
    source = (
        "def f(e):\n"
        "    raise A\n"
        "    raise B('x') from None\n"
        "    raise errors.C('y')\n"
        "    raise\n"
        "    raise e\n"
        "class D(Exception):\n    pass\n"
    )
    assert raised_names(source) == {"A", "B", "C", "e"}
    assert defined_classes(source) == ["D"]


def test_every_error_class_is_raised():
    raised = set().union(*(raised_names(p.read_text(encoding="utf-8")) for p in SRC.glob("*.py")))
    defined = defined_classes((SRC / "errors.py").read_text(encoding="utf-8"))
    assert defined and [name for name in defined if name not in raised] == []
