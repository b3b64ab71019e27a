"""The package's public surface: `__all__` is exactly what `__init__` imports,
and what importing the package loads."""

import ast
import dataclasses
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pseudofermion
from pseudofermion import cli


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


def test_no_code_generation_at_import():
    # The record classes are plain classes: importing the package generates
    # and execs no dataclass code, in `pfl` or in a benchmark worker.
    baseline = fresh_modules("import numpy")
    assert "dataclasses" not in fresh_modules("import pseudofermion.cli") - baseline
    public = [getattr(pseudofermion, name) for name in pseudofermion.__all__]
    classes = [obj for obj in [*public, cli.Check, cli.ReportDocument] if inspect.isclass(obj)]
    assert len(classes) == 11
    assert not any(dataclasses.is_dataclass(cls) for cls in classes)


def test_records_are_immutable_values():
    check = cli.Check("c", 1, 2)
    assert check == cli.Check("c", 1.0, 2.0) != cli.Check("d", 1.0, 2.0)
    assert hash(check) == hash(cli.Check("c", 1.0, 2.0))
    assert repr(check) == "Check(name='c', residual=1.0, tolerance=2.0)"
    for record, field in ((check, "residual"), (pseudofermion.gram_block(2, 0.5), "level")):
        with pytest.raises(AttributeError):
            setattr(record, field, 0)
        with pytest.raises(AttributeError):
            delattr(record, field)
    assert repr(pseudofermion.gram_block(2, 0.5)).startswith("GramBlock(level=2, gamma=(0.5+0j), ")
    # A report is built up and may be changed, like the mutable record it was.
    report = cli.ReportDocument("gram", {}, {}, [check])
    report.checks = []
    assert report == cli.ReportDocument("gram", {}, {}, [])
