import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example() -> str:
    """The python block under the README's `## Library` heading."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_runs_as_written():
    namespace = {}
    exec(compile(library_example(), f"{README}:Library", "exec"), namespace)
    refined, masks = namespace["refined"], namespace["masks"]
    assert refined.outputs.shape == (2, 8, 64, 16)
    assert masks.masks.shape == refined.outputs.shape[:3]
