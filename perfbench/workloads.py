"""Seeded workloads that drive pseudofermion, with independent checks of its outputs.

A workload draws a *round* of ops from a random generator seeded with the
run's seed and the round's number.  A run makes a number of rounds set by
its length, so every run with one seed attempts the same ops and gets the
same outcomes, whatever its speed.  Each op's outcome is one of

* ``ok``: the program certified the result and the benchmark's own
  reference agrees;
* ``refused``: the program declined to certify it, by raising its
  ``ValueError`` family or by reporting a failing check (``pfl`` exit 1
  with a consistent report, or exit 2 with an ``error:`` message);
* ``wrong``: an output disagrees with the benchmark's reference, a report
  contradicts its exit code, or the program crashed with anything else.

Both ``refused`` and ``wrong`` count as failed ops for the fail ratio; only
``wrong`` makes a run incorrect.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from pseudofermion import blocks, cli, fock, overlaps

# The envelope the package advertises (`overlaps.LEVEL_CAP` today).  Fixed
# here so a later change to the cap does not change the workload.
LEVEL_CAP = 30

# Tolerance of every certified identity in the README's numerical contract.
CONTRACT_TOL = 1e-10

EPS = float(np.finfo(float).eps)

# Kill a `pfl` subprocess that takes longer than this.
OP_TIMEOUT_S = 120


class Outcome:
    OK = "ok"
    REFUSED = "refused"
    WRONG = "wrong"


def overlap_cache_entries() -> int:
    cache = getattr(overlaps, "_raw_overlap", None)
    return cache.cache_info().currsize if hasattr(cache, "cache_info") else 0


def gram_spectrum_defect(gram: np.ndarray, gamma: complex, level: int) -> float:
    """Eigenvalue error of a level Gram matrix over its allowed size.

    The closed form is ``lambda_k = (1+|g|)^(M-k) (1-|g|)^k``.  A backward
    stable eigensolver and entrywise-accurate Gram entries put every
    eigenvalue within a few ``(M+1) eps lambda_max`` of it (Weyl), so a
    value above 1 means the matrix or its spectrum is wrong.
    """
    r = abs(gamma)
    k = np.arange(level + 1)
    expected = np.sort((1.0 + r) ** (level - k) * (1.0 - r) ** k)
    got = np.linalg.eigvalsh(np.asarray(gram))
    allowed = 16.0 * (level + 1) * EPS * expected[-1]
    return float(np.max(np.abs(got - expected))) / allowed


def _gamma(rng, r: float, complex_share: float = 1.0) -> complex:
    """Modulus ``r`` with a uniform phase, or a real positive value."""
    phase = rng.uniform(0.0, 2.0 * math.pi) if rng.random() < complex_share else 0.0
    return complex(r * math.cos(phase), r * math.sin(phase))


def _strata(rng, lo: float, hi: float, count: int) -> list[float]:
    """One uniform draw from each of ``count`` equal slices of ``[lo, hi]``."""
    width = (hi - lo) / count
    return [lo + width * (i + rng.random()) for i in range(count)]


def _option(argv: list[str], name: str) -> str:
    """Value of ``--name value`` or ``--name=value`` in an argument list."""
    for i, arg in enumerate(argv):
        if arg == name:
            return argv[i + 1]
        if arg.startswith(name + "="):
            return arg[len(name) + 1:]
    raise KeyError(name)


class Workload:
    """Defaults shared by the workloads below."""

    name = ""
    # Seconds one round takes on the two-core machine the benchmark was
    # tuned on; sets how many rounds fill a run's time.
    round_seconds = 1.0
    warm_up_op: dict = {}
    anchors: tuple = ()
    # Exceptions by which the program declines an op; any other is a crash.
    refusals: tuple = (ValueError,)
    # End-to-end runs call this instead of `call` when a workload defines it.
    call_subprocess = None

    def __init__(self, work: Path) -> None:
        self.work = work

    def round(self, rng) -> list[dict]:
        raise NotImplementedError

    def call(self, op: dict):
        raise NotImplementedError

    def check(self, op: dict, output) -> tuple[str, str | None, int]:
        """``(outcome, cause, report bytes)`` of one op's output."""
        raise NotImplementedError

    def cleanup(self) -> None:
        pass


class Levels(Workload):
    """In-process certification of one level per op, with a fresh gamma each.

    A round is a stratified sample: every level 1..LEVEL_CAP once in each of
    ten equal slices of ``|gamma|`` in [0.05, 0.9], with a uniform phase,
    plus the known ``PositivityError`` at gamma = 0.7, M = 25.  Ops run in
    ascending level.  The overlap cache, empty at the start of each round's
    worker, then grows by the same amounts in the same order for every seed,
    so the ops that pay for its dictionary resizes and for garbage
    collection are alike from seed to seed.
    """

    name = "levels"
    round_seconds = 1.75
    warm_up_op = {"gamma": [0.5, 0.0], "level": 8}
    anchors = ({"gamma": [0.7, 0.0], "level": 25},)

    def round(self, rng) -> list[dict]:
        ops = list(self.anchors)
        for level in range(1, LEVEL_CAP + 1):
            for r in _strata(rng, 0.05, 0.9, 10):
                gamma = _gamma(rng, r)
                ops.append({"gamma": [gamma.real, gamma.imag], "level": level})
        ops.sort(key=lambda op: op["level"])
        return ops

    def call(self, op: dict):
        gamma = complex(*op["gamma"])
        gram = overlaps.gram_block(op["level"], gamma)
        basis = blocks.realize_basis_cholesky(gram)
        system = blocks.build_block_system(basis)
        return gram.matrix, blocks.verify_block_system(system)

    def check(self, op: dict, output) -> tuple[str, str | None, int]:
        gram, residuals = output
        if gram_spectrum_defect(gram, complex(*op["gamma"]), op["level"]) > 1.0:
            return Outcome.WRONG, "gram_spectrum", 0
        failing = [name for name, value in residuals.items() if not value <= CONTRACT_TOL]
        if failing:
            return Outcome.REFUSED, f"check:{failing[0]}", 0
        return Outcome.OK, None, 0


class Cli(Workload):
    """One `pfl` invocation per op, over a seeded mix of all six subcommands.

    A round holds, in a fixed order, two `gram`, two `block`, six
    `assemble`, two `bicoherent`, two `nogo` (one at theta = 0) and two
    `verify-fixtures` ops, plus the known exit 1 of ``pfl assemble --gamma
    0.5 --max-level 20``.  Sizes and ``|gamma|`` come from fixed ladders
    that span the documented ranges and include inputs that fail today;
    with only 17 ops a round, drawing them would make the cost and the
    outcomes of a round differ from seed to seed.  The seed draws the phase
    of gamma, theta, one fixtures gamma, and the dressing and symbol.
    End-to-end runs start a subprocess per op; traced runs and their
    untraced replays call `cli.main` in-process.
    """

    name = "cli"
    round_seconds = 7.5
    warm_up_op = {"argv": ["gram", "--gamma", "0.5", "--level", "8"]}
    anchors = ({"argv": ["assemble", "--gamma", "0.5", "--max-level", "20"]},)
    # `cli.main` turns every ValueError into exit 2; anything raised is a crash.
    refusals = ()

    # (subcommand, size option, size, |gamma|).  `block` at M = 26 and
    # `assemble` at (12, 0.7) and (16, 0.6) fail their checks today,
    # whatever the phase.  The tail, the 11th slowest op of a run, is then
    # one of the two L = 16 ops in runs of 3 or 4 rounds (25 s makes 3).
    LADDER = (
        ("gram", "--level", 8, 0.5),
        ("gram", "--level", 20, 0.6),
        ("block", "--level", 5, 0.3),
        ("block", "--level", 26, 0.5),
        ("assemble", "--max-level", 4, 0.8),
        ("assemble", "--max-level", 8, 0.6),
        ("assemble", "--max-level", 12, 0.7),
        ("assemble", "--max-level", 16, 0.3),
        ("assemble", "--max-level", 16, 0.6),
        ("assemble", "--max-level", 20, 0.2),
    )
    # `verify-fixtures` fails its absolute 1e-12 comparison for gamma <= 0.11
    # today; one op sits there, the other is drawn where it passes.
    FIXTURE_GAMMA = 0.08
    # (n, quadrature order) of the `bicoherent` ops.
    FAMILIES = ((25, 64), (90, 256))
    SYMBOLS = ("x", "x^2", "1", "0.5*x+0.25")
    DRESSINGS = ("0", "0.3*x", "0.5*x^2")

    def __init__(self, work: Path) -> None:
        super().__init__(work)
        self.report = work / f"report-{os.getpid()}.json"
        self.env = dict(os.environ)
        src = str(Path(cli.__file__).resolve().parent.parent)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p
        )

    def round(self, rng) -> list[dict]:
        ops = list(self.anchors)
        for command, option, size, r in self.LADDER:
            gamma = _gamma(rng, r, complex_share=0.5)
            # Joined with "=" so that argparse does not read "-0.1" as an option.
            value = f"{gamma.real:.6f}" + (f"{gamma.imag:+.6f}i" if gamma.imag else "")
            ops.append({"argv": [command, f"--gamma={value}", option, str(size)]})
        for n, quad in self.FAMILIES:
            ops.append({"argv": ["bicoherent", "--n", str(n), "--quad", str(quad),
                                 "--alpha", rng.choice(self.DRESSINGS),
                                 "--symbol", rng.choice(self.SYMBOLS)]})
        theta = rng.choice((-1.0, 1.0)) * rng.uniform(0.1, 2.0)
        ops.append({"argv": ["nogo", "--theta", "0"]})
        ops.append({"argv": ["nogo", f"--theta={theta:.6f}"]})
        for gamma in (self.FIXTURE_GAMMA, rng.uniform(0.2, 0.9)):
            ops.append({"argv": ["verify-fixtures", "--gamma", f"{gamma:.6f}"]})
        return ops

    def _argv(self, op: dict) -> list[str]:
        self.report.unlink(missing_ok=True)
        return [*op["argv"], "--out", str(self.report)]

    def call(self, op: dict):
        argv = self._argv(op)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        return code, err.getvalue()

    def call_subprocess(self, op: dict):
        proc = subprocess.run(
            [sys.executable, "-m", "pseudofermion.cli", *self._argv(op)],
            env=self.env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            timeout=OP_TIMEOUT_S,
        )
        return proc.returncode, proc.stderr

    def check(self, op: dict, output) -> tuple[str, str | None, int]:
        code, stderr = output
        if not self.report.exists():
            if code == 2 and stderr.startswith("error:"):
                return Outcome.REFUSED, "exit 2: " + stderr.strip().splitlines()[0][7:80], 0
            return Outcome.WRONG, f"exit {code} without a report", 0
        text = self.report.read_text()
        size = len(text.encode())
        self.report.unlink()
        if code not in (0, 1):
            return Outcome.WRONG, f"exit {code} with a report", size
        try:
            report = cli.ReportDocument.from_json(text)
        except (ValueError, KeyError) as exc:
            return Outcome.WRONG, f"report_parse: {type(exc).__name__}", size
        if report.command != op["argv"][0]:
            return Outcome.WRONG, "report_command", size
        if report.all_pass() != (code == 0):
            return Outcome.WRONG, f"exit {code} contradicts the checks", size
        if report.command == "gram":
            gamma = complex(_option(op["argv"], "--gamma").replace("i", "j"))
            level = int(_option(op["argv"], "--level"))
            if gram_spectrum_defect(report.matrices["gram"], gamma, level) > 1.0:
                return Outcome.WRONG, "gram_spectrum", size
        if code == 1:
            failing = next(c.name for c in report.checks if not c.passed)
            return Outcome.REFUSED, f"exit 1: check {failing}", size
        return Outcome.OK, None, size

    def cleanup(self) -> None:
        self.report.unlink(missing_ok=True)


class Scan(Workload):
    """In-process joint-kernel sweeps and deformed number operators.

    A round holds five `nogo_joint_kernel` sweeps, one of them at theta = 0,
    and six `deformed_number_operators` calls with a seeded gamma.  Costs
    grow like the sixth power of the largest cutoff or of L, so those sizes
    are fixed ladders and the lower cutoffs of a sweep stay below half the
    largest: every seed then gives a round of about the same cost.
    """

    name = "scan"
    round_seconds = 4.2
    warm_up_op = {"theta": 0.5, "cutoffs": [8]}
    # Two sweeps end at 32, so that the tail, the 11th slowest op of a run,
    # is one of them in runs of 6 to 11 rounds (25 s makes 6).
    TOP_CUTOFFS = (20, 24, 28, 32, 32)
    LEVELS = (10, 12, 14, 16, 18, 20)

    def round(self, rng) -> list[dict]:
        ops = []
        zero_at = rng.randrange(len(self.TOP_CUTOFFS))
        for i, top in enumerate(self.TOP_CUTOFFS):
            cutoffs = sorted(rng.sample(range(2, top // 2 + 1), 3)) + [top]
            theta = 0.0 if i == zero_at else rng.choice((-1.0, 1.0)) * rng.uniform(0.1, 2.0)
            ops.append({"theta": theta, "cutoffs": cutoffs})
        for level in self.LEVELS:
            gamma = _gamma(rng, rng.uniform(0.05, 0.8))
            ops.append({"gamma": [gamma.real, gamma.imag], "level": level})
        return ops

    def call(self, op: dict):
        if "theta" in op:
            return fock.nogo_joint_kernel(op["theta"], op["cutoffs"])
        params = overlaps.NCBosonParams.from_gamma(complex(*op["gamma"]))
        return blocks.deformed_number_operators(params, op["level"])

    def check(self, op: dict, output) -> tuple[str, str | None, int]:
        if "theta" in op:
            sigma = np.asarray(output.min_singular_values)
            if op["theta"] == 0.0:
                # The joint vacuum survives: machine zero at every cutoff.
                if not np.all(sigma <= 1e-12) or output.kernel_dimension_estimate < 1:
                    return Outcome.WRONG, "sigma_min_not_zero", 0
            elif not np.all(sigma >= 0.4 * abs(op["theta"])) or output.kernel_dimension_estimate:
                # The floor sits near |theta|/2 for |theta| <= 2.
                return Outcome.WRONG, "sigma_min_not_bounded", 0
            return Outcome.OK, None, 0
        level = op["level"]
        h_total = np.asarray(output.h_total)
        if h_total.shape != (level + 1, level + 1) or (
            np.max(np.abs(h_total - level * np.eye(level + 1))) > CONTRACT_TOL * max(1, level)
        ):
            return Outcome.WRONG, "h_total", 0
        return Outcome.OK, None, 0


WORKLOADS = {w.name: w for w in (Levels, Cli, Scan)}
