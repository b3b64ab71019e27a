"""The package's public surface: `__all__` is exactly what `__init__` imports."""

import ast
from pathlib import Path

import pseudofermion


def test_star_import_gives_the_names_init_imports():
    tree = ast.parse(Path(pseudofermion.__file__).read_text())
    imported = {
        alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    names = pseudofermion.__all__
    assert len(names) == len(set(names))
    assert set(names) == imported | {"__version__"}
    scope = {}
    exec("from pseudofermion import *", scope)
    assert set(scope) - {"__builtins__"} == set(names)
