"""Digests of the `pfl` reports over a fixed grid of invocations.

Runs each invocation through `pseudofermion.cli.main` in-process and prints
one line per invocation: the argv, the exit code, and the sha256 of stdout,
of stderr and of the ``--out`` file (``-`` when none is written).  A warning
counts toward stderr as its category and message, without the source line
that would differ between two checkouts.  Two trees' reports agree byte for
byte when their digests do:

    PYTHONPATH=/path/to/parent/src python3 tests/report_digests.py > parent.txt
    PYTHONPATH=src python3 tests/report_digests.py > change.txt
    diff parent.txt change.txt

The grid: the README's `pfl` lines; single invocations of every subcommand
with refused, failing and passing parameters, `block` and `assemble` where a
computed eigenvalue of ``S_e`` once refused them, and `block` where ``c`` was
once certified with its largest error; `assemble` across γ and level
cutoffs, one modulus rotated by three phases among them; `gram` at three
points of the envelope's edge, each at phase 0 and rotated by π/2, π, −π/2
and 0.7, and `gram` and `block` at a negative real γ; `bicoherent` and
`nogo` across their parameters, refused ones and odd quadrature orders (a
node at 0) included, and every family, dressing and symbol of the
benchmark's `cli` workload; the largest reports written by ``--out``; and θ
from a subnormal 1e-309 up to 1e6, where a sweep factors the sectors that
the Williamson bound leaves in.  A diff of two trees then shows any report at
a rotated γ that moves.
"""

import cmath
import contextlib
import hashlib
import io
import itertools
import os
import re
import shlex
import tempfile
import warnings
from pathlib import Path

from pseudofermion.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"

SINGLES = [
    "verify-fixtures --gamma 0.01",
    "verify-fixtures --gamma 0.08",
    "verify-fixtures --gamma 0.77",
    "block --gamma 0.3+0.2i --level 4",
    "block --gamma 0.5 --level 26",
    "block --gamma 0.7 --level 20",
    "assemble --gamma 0.5 --max-level 20",
    "assemble --gamma 0.3+0.2i --max-level 12",
    "assemble --gamma 0.8 --max-level 4",
    "nogo --theta 0.5",
    "gram --gamma 0.5 --level 8",
    "bicoherent --n 25 --alpha 0.3*x --symbol x",
    *(
        f"verify-fixtures --gamma {gamma}"
        for gamma in (
            "0.002", "0.05", "0.11", "0.3", "1", "5", "100",
            "1e-70", "1e-30", "1e-10", "1e-5", "1e-3", "1e10",
        )
    ),
    "block --gamma -0.5 --level 6",
    "assemble --gamma 0.6-0.3i --max-level 8",
    "gram --gamma 0.3+0.4i --level 5",
    *(f"{cmd} --gamma 0.5 --level {level}" for cmd in ("gram", "block") for level in (-1, 31)),
    # Once refused on a computed eigenvalue of S_e, and the worst certified c.
    "block --gamma 0.7 --level 22",
    "block --gamma 0.6 --level 30",
    "block --gamma 0.8 --level 13",
    "assemble --gamma 0.6 --max-level 30",
]

ASSEMBLE = [
    f"assemble --gamma={gamma} --max-level {level}"
    for gamma in ("0.5", "-0.5", "0.05", "0.7", "0.3+0.2i", "-0.1-0.6i")
    for level in (0, 1, 4, 7, 12, 13, 20, 30, 31)
]
# One exact modulus at three phases, so that a diff of two trees shows a
# change that moves a residual or a verdict with the phase of gamma.
ASSEMBLE += [
    f"assemble --gamma={gamma} --max-level {level}"
    for gamma in ("0.7", "0.7i", "-0.7i")
    for level in (10, 18)
]

# `gram` where its verdict once moved with the phase of gamma, at phase 0 and
# rotated by pi/2, pi, -pi/2 and 0.7; `gram` and `block` at a negative gamma.
GRAM = [
    f"gram --gamma={gamma} --level {level}"
    for r, level in ((0.6, 29), (0.8, 17), (0.9, 12))
    for gamma in (r, f"{r}i", -r, f"-{r}i", "{0.real!r}+{0.imag!r}i".format(cmath.rect(r, 0.7)))
] + [f"{cmd} --gamma=-0.5 --level 20" for cmd in ("gram", "block")]

BICOHERENT = [
    f"bicoherent --n {n} --quad {quad} --alpha={alpha}"
    + ("" if symbol is None else f" --symbol={symbol}")
    for (n, quad), alpha, symbol in itertools.product(
        [
            (1, 1), (1, 2), (2, 3), (3, 3), (4, 5), (5, 5), (5, 4),
            (6, 64), (8, 7), (10, 21), (25, 64), (40, 81), (0, 8), (3, 0),
        ],
        ["0", "0.3*x", "-0.7*x^3", "1/x", "800*x"],
        [None, "x", "-x", "x^2-0.25*x", "2.5"],
    )
] + [
    "bicoherent --n 5 --alpha 0.3*x --symbol x",
    "bicoherent --n 90 --quad 256 --alpha 0.1*x^2 --symbol x^3",
] + [
    # The families, dressings and symbols of the benchmark's `cli` workload.
    f"bicoherent --n {n} --quad {quad} --alpha {alpha} --symbol {symbol}"
    for (n, quad), alpha, symbol in itertools.product(
        [(90, 256), (25, 64)], ["0", "0.3*x", "0.5*x^2"], ["x", "x^2", "1", "0.5*x+0.25"]
    )
]

# The largest reports once more, written to a file by --out.
WRITTEN = [
    f"{line} --out report.json"
    for line in (
        "bicoherent --n 90 --quad 256 --alpha 0.1*x^2 --symbol x^3",
        "block --gamma 0.3+0.2i --level 26",
        "assemble --gamma=-0.1-0.6i --max-level 20",
    )
]

NOGO = [
    f"nogo --theta={theta}" + ("" if cutoffs is None else f" --cutoffs {cutoffs}")
    for theta in (
        "0", "0.5", "-0.5", "1.7", "1.9", "2", "-2", "2.5", "-4", "10", "1e-9", "-1e-9",
        "inf", "nan", "1e-309", "1e-305", "1e-300", "1e-290",
        # The creation regime, where a sweep's second pass factors the
        # sectors that the Williamson bound leaves in, with wide margins.
        "4.5", "30", "-100", "1e4", "1e6",
    )
    for cutoffs in (
        None, "2", "3 4", "4 8", "3 5 9", "3 5 7 9", "5 9 13 17", "8 4", "16 24 32",
        "2 3 5 8 13 21 32",
    )
]


def readme_lines() -> list[str]:
    """The README's `pfl` lines, found as `test_readme.py` finds them."""
    blocks = re.findall(r"^```sh\n(.*?)^```", README.read_text(), re.MULTILINE | re.DOTALL)
    return [line for block in blocks for line in block.splitlines() if line.startswith("pfl ")]


def invocations() -> list[list[str]]:
    """Every argv of the grid, in order, each once."""
    argvs = [shlex.split(line, comments=True)[1:] for line in readme_lines()]
    lines = SINGLES + ASSEMBLE + GRAM + BICOHERENT + WRITTEN + NOGO
    argvs += [shlex.split(line) for line in lines]
    unique = {tuple(argv): None for argv in argvs}
    return [list(argv) for argv in unique]


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest(argv: list[str]) -> str:
    """The tab-separated digest line of one invocation, run in the working directory."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    for item in caught:
        err.write(f"{item.category.__name__}: {item.message}\n")
    written = "-"
    if "--out" in argv:
        path = argv[argv.index("--out") + 1]
        if os.path.exists(path):
            with open(path, "rb") as handle:
                written = sha(handle.read())
            os.remove(path)
    streams = [sha(stream.getvalue().encode()) for stream in (out, err)]
    return "\t".join([shlex.join(argv), str(code), *streams, written])


def run() -> None:
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        for argv in invocations():
            print(digest(argv), flush=True)


if __name__ == "__main__":
    run()
