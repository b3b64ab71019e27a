"""The package's public surface: `__all__` is exactly what `__init__` imports,
and what importing the package loads."""

import ast
import json
import os
import subprocess
import sys
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


def fresh_modules(code):
    """Run ``code`` in a fresh interpreter; return the names in its sys.modules."""
    src = str(Path(pseudofermion.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    script = f"import json, sys\n{code}\nprint(json.dumps(sorted(sys.modules)))"
    run = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    return set(json.loads(run.stdout.splitlines()[-1]))


def test_import_loads_neither_legendre_routines_nor_argparse():
    loaded = fresh_modules("import pseudofermion, pseudofermion.cli")
    assert "numpy.polynomial" not in loaded
    assert "argparse" not in loaded

    loaded = fresh_modules(
        "import contextlib, io\n"
        "from pseudofermion import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    cli.main(['gram', '--gamma', '0.5', '--level', '2'])"
    )
    assert "argparse" in loaded
    assert "numpy.polynomial" not in loaded

    loaded = fresh_modules("from pseudofermion import build_family\nbuild_family(3)")
    assert "numpy.polynomial" in loaded


def test_cli_import_loads_every_package_module():
    # perfbench/tracer.py wraps only modules already imported when
    # `Tracer.install` runs, and perfbench/smoke.py requires traced calls
    # from each of these modules.  A module that `cli` imported lazily would
    # escape the tracer; this test fails at once, not only in the smoke run.
    loaded = fresh_modules("import pseudofermion.cli")
    for name in ("overlaps", "blocks", "assembly", "fock", "bicoherent", "fixtures", "cli"):
        assert f"pseudofermion.{name}" in loaded
