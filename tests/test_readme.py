"""The README's `pfl` command lines and Library example run as written."""

import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from oracles import direct_sum
from pseudofermion.assembly import assemble
from pseudofermion.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def fenced(language, text=README):
    """Bodies of the code blocks fenced as ``language``, in order."""
    return re.findall(rf"^```{language}\n(.*?)^```", text, re.MULTILINE | re.DOTALL)


PFL_LINES = [
    line
    for block in fenced("sh")
    for line in block.splitlines()
    if line.startswith("pfl ")
]
LIBRARY = fenced("python", README.split("\n## Library\n", 1)[1])[0]
# The Command line section's snippet that rebuilds the dense ``A`` from a report.
REBUILD = fenced("python", README.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0])[0]


def test_examples_found():
    assert len(PFL_LINES) == 9
    assert "build_block_system" in LIBRARY


@pytest.mark.parametrize("line", PFL_LINES, ids=PFL_LINES)
def test_command_line_exits_zero(line, tmp_path):
    argv = shlex.split(line, comments=True)[1:]
    if "--out" in argv:
        at = argv.index("--out")
        del argv[at : at + 2]
    target = tmp_path / "report.json"
    assert main([*argv, "--out", str(target)]) == 0
    assert target.exists()


def test_library_example_runs(capsys):
    exec(compile(LIBRARY, "README.md", "exec"), {})
    # The printed lines whose comments state an exact value.
    assert capsys.readouterr().out.splitlines()[:3] == ["0.5", "0.0", "[1. 3. 5. 3.]"]


def test_rebuild_snippet_reads_written_report(tmp_path, monkeypatch):
    # The snippet reads the report.json written by the README's --out line.
    (line,) = [line for line in PFL_LINES if "--out report.json" in line]
    monkeypatch.chdir(tmp_path)
    assert main(shlex.split(line, comments=True)[1:]) == 0
    scope = {}
    exec(compile(REBUILD, "README.md", "exec"), scope)
    np.testing.assert_array_equal(scope["A"], direct_sum(assemble(0.5, 4), "a"))
