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

import numpy as np
import pytest

import pseudofermion
from pseudofermion import cli
from pseudofermion.overlaps import _Record


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


# One builder of every record class, each called twice for a rebuilt twin.
RECORDS = {
    "NCBosonParams": lambda: pseudofermion.NCBosonParams.from_gamma(0.3 + 0.2j),
    "GramBlock": lambda: pseudofermion.gram_block(3, 0.3 + 0.2j),
    "BlockBasis": lambda: pseudofermion.fixture_basis(2, 0.4),
    "BlockSystem": lambda: pseudofermion.build_block_system(
        pseudofermion.realize_basis_cholesky(pseudofermion.gram_block(3, 0.3 + 0.2j))),
    "DeformedLevelOperators": lambda: pseudofermion.deformed_number_operators(
        pseudofermion.NCBosonParams.from_gamma(0.4), 3),
    "GlobalOperators": lambda: pseudofermion.assemble(0.3 + 0.2j, 2),
    "NoGoReport": lambda: pseudofermion.nogo_joint_kernel(0.5, [4, 8]),
    "BicoherentFamily": lambda: pseudofermion.build_family(3),
    "Check": lambda: cli.Check("c", 1.0, 2.0),
    "ReportDocument": lambda: cli.run_gram(0.5, 3),
}


def changed_entry(value):
    """``value`` with one entry of its first array, depth first, changed; None if it holds none."""
    if isinstance(value, np.ndarray):
        changed = value.copy()
        changed.flat[-1] += 1
        return changed
    if isinstance(value, _Record):
        fields = changed_entry(vars(value))
        twin = object.__new__(type(value))
        vars(twin).update(fields or {})
        return None if fields is None else twin
    if isinstance(value, (dict, list, tuple)):
        entries = dict(value) if isinstance(value, dict) else dict(enumerate(value))
        for key, entry in entries.items():
            changed = changed_entry(entry)
            if changed is not None:
                entries[key] = changed
                return entries if isinstance(value, dict) else type(value)(entries.values())
    return None


def test_every_record_class_has_a_builder():
    public = [getattr(pseudofermion, name) for name in pseudofermion.__all__]
    classes = {cls.__name__ for cls in [*public, cli.Check, cli.ReportDocument]
               if inspect.isclass(cls) and issubclass(cls, _Record)}
    assert classes == set(RECORDS)


@pytest.mark.parametrize("name", RECORDS)
def test_records_compare_by_value(name):
    record, twin = RECORDS[name](), RECORDS[name]()
    assert type(record).__name__ == name
    assert record == twin and not record != twin
    changed = changed_entry(record)
    if changed is None:
        # No array: hashed by its fields, equal hash for equal records.
        assert hash(record) == hash(twin)
        return
    assert changed != record and record != changed
    assert record == twin  # the entry was changed in a copy
    # A record that holds an array is unhashable.
    with pytest.raises(TypeError):
        hash(record)
