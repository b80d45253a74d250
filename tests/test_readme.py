"""The README's library example against the package root's exports."""

import ast
import re
from pathlib import Path

import tailens

README = Path(__file__).parents[1] / "README.md"


def library_example() -> ast.Module:
    text = README.read_text()
    section = text[text.index("## Library") :]
    return ast.parse(re.search(r"```python\n(.*?)```", section, re.S).group(1))


def test_library_example_imports_exactly_the_exports():
    # compiled, not run: the example trains for 600 epochs
    tree = library_example()
    compile(tree, "README.md", "exec")
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "tailens"
        for alias in node.names
    }
    assert imported == set(tailens.__all__)
    assert all(hasattr(tailens, name) for name in tailens.__all__)
