"""No module of the package or the suite imports a name it never uses, and
no module of the package reads the environment.

No linter runs in CI, so this stdlib-`ast` check stands in for one: every
name an import binds must be read somewhere in the module, or be listed in
its `__all__` (a re-export). An environment variable would be an option that
neither the config nor the manifest records.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "storyshots").glob("*.py"))
FILES = SRC + sorted((ROOT / "tests").glob("*.py"))
ENVIRONMENT = {"environ", "environb", "getenv", "getenvb"}


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


def environment_reads(source: str) -> list:
    """Lines that read os.environ or call os.getenv, or import either from os."""
    reads = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT:
            reads.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            reads += [node.lineno for a in node.names if a.name in ENVIRONMENT]
    return sorted(reads)


def test_environment_checker_flags_every_read():
    source = (
        "import os\nfrom os import getenv, path\nfrom os import environ as env\n"
        "a = os.environ.get('A', path.sep)\nb = os.getenv('B')\nc = os.environ['C']\n"
        "d = os.path.join('e', 'nv')\n"
    )
    assert environment_reads(source) == [2, 3, 4, 5, 6]


@pytest.mark.parametrize("path", SRC, ids=[str(p.relative_to(ROOT)) for p in SRC])
def test_package_reads_no_environment(path):
    assert environment_reads(path.read_text(encoding="utf-8")) == []
