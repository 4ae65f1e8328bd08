"""No module of the package or the suite imports a name it never uses.

No linter runs in CI, so this stdlib-`ast` check stands in for one: every
name an import binds must be read somewhere in the module, or be listed in
its `__all__` (a re-export).
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted((ROOT / "src" / "storyshots").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str) -> list:
    """(line, name) of every import binding the module never reads."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # `import a.b` binds `a`
            bound += [(node.lineno, a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.lineno, a.asname or a.name) for a in node.names if a.name != "*"]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else []
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            used |= set(ast.literal_eval(node.value))
    return [(line, name) for line, name in bound if name not in used]


def test_checker_flags_only_unread_names():
    source = (
        "from __future__ import annotations\n"
        "import math\nimport os.path\nimport json as j\nfrom re import sub, match\n"
        "from csv import reader\n__all__ = ['reader']\n"
        "def f(x: 'unused'):\n    return os.path.join(j.dumps(x), match)\n"
    )
    assert unused_imports(source) == [(2, "math"), (5, "sub")]


@pytest.mark.parametrize("path", FILES, ids=[str(p.relative_to(ROOT)) for p in FILES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
