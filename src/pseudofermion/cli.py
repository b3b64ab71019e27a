"""Command-line frontend emitting versioned JSON certification reports.

Every subcommand builds one construction (Gram matrix, level block,
joint-kernel sweep, direct-sum assembly, dressed state family, or the
closed-form reference comparison), serializes the resulting matrices, and
attaches a list of named checks, each carrying its residual and tolerance.
Exit status is 0 when every check passes, 1 when any fails, and 2 for
unusable parameters or a report that cannot be written, to its ``--out``
path or to stdout.  Reports are deterministic: identical parameters yield
byte-identical output.  ``pfl`` and ``python -m pseudofermion.cli`` run
`exit_main`: once the report and stderr are flushed, the process exits
without the interpreter's teardown.

Reports are strict compact JSON, with no whitespace between tokens and no
NaN or infinity: a report that would hold one, whether from a parameter or
from a computation, exits 2 with an error that names it.  Complex numbers
serialize as ``[re, im]`` pairs and matrices as row-major nested arrays,
using the shortest decimal representation that round-trips doubles
exactly.  ``assemble`` reports each level's ``a``, ``b`` and ``N`` under
``level{M}:a``, ``level{M}:b`` and ``level{M}:N``, the naming of its
``level{M}:<check>`` checks; the dense direct sums are those blocks placed
on the diagonal at offsets ``M(M+1)/2``.
"""

from __future__ import annotations

import ast
import json
import os
import sys
from pathlib import Path
from typing import Callable, Iterator, Sequence

import numpy as np

from . import fixtures
from .assembly import assemble
from .bicoherent import (
    DEFAULT_QUAD_ORDER,
    build_family,
    resolution_of_identity,
    states_at,
    upper_symbol,
)
from .blocks import (
    EQUALITY_TOL,
    POSITIVITY_TOL,
    BlockSystem,
    build_block_system,
    dual_basis_by_kernel,
    fixture_basis,
    max_abs,
    realize_basis_cholesky,
    relative_residual,
    verify_block_system,
)
from .fock import KERNEL_TOL, closed_form_floor, nogo_joint_kernel
from .overlaps import GramBlock, _Record, gram_block, phase_gauge

SCHEMA_VERSION = "pfl-2"

# Ceiling on the defect against the closed-form reference matrices, relative
# to max(1, largest expected entry); tighter than the invariant tolerance
# because the comparison is direct transcription, not conditioned algebra.
FIXTURE_TOL = 1e-12

# Absolute ceiling for residuals whose scale is one by construction: the
# pairing <e(x), h(x)> - 1 of the normalized bicoherent states, and the
# joint-kernel singular values (floor at theta = 0, relative shortfall below
# the closed-form floor).
UNIT_SCALE_TOL = 1e-12


def _matrix_text(matrix: np.ndarray) -> Iterator[str]:
    """The `json.dumps` text of the matrix's row-major ``[re, im]`` pairs, row by row."""
    pairs = np.ascontiguousarray(np.atleast_2d(matrix), dtype=complex).view(float)
    if not np.isfinite(pairs).all():
        json.dumps(pairs[~np.isfinite(pairs)][0].item(), allow_nan=False)  # raises json's error
    row = "[" + ",".join(["[%r,%r]"] * (pairs.shape[1] // 2)) + "]"
    yield "["
    for i, values in enumerate(pairs):
        yield ("," + row if i else row) % tuple(values.tolist())
    yield "]"


def deserialize_matrix(rows: list) -> np.ndarray:
    """Bit-exact inverse of a report's matrix layout; always a 2-d complex array.

    The ``[re, im]`` pairs are reinterpreted in place as complex entries,
    which keeps signed zeros and infinities that ``re + 1j * im`` would not.
    """
    return np.asarray(rows, dtype=float).view(complex)[..., 0]


class Check(_Record):
    """One named certification: passes iff ``residual <= tolerance``."""

    def __init__(self, name: str, residual: float, tolerance: float):
        vars(self).update(name=name, residual=float(residual), tolerance=float(tolerance))

    @property
    def passed(self) -> bool:
        return self.residual <= self.tolerance

    def as_json(self) -> dict:
        return {
            "name": self.name,
            "residual": float(self.residual),
            "tolerance": float(self.tolerance),
            "pass": self.passed,
        }


class ReportDocument(_Record):
    """Serializable record of one command invocation; its fields may be reassigned."""

    __setattr__, __delattr__ = object.__setattr__, object.__delattr__
    __hash__ = None

    def __init__(self, command: str, parameters: dict, matrices: dict, checks: list,
                 version: str = SCHEMA_VERSION):
        vars(self).update(command=command, parameters=parameters, matrices=matrices,
                          checks=checks, version=version)

    def all_pass(self) -> bool:
        return all(check.passed for check in self.checks)

    def to_json(self) -> str:
        # The text of `json.dumps` of the whole payload, in its order; only
        # the matrices are written by hand, row by row, never as lists.
        encode = json.JSONEncoder(separators=(",", ":"), allow_nan=False).encode
        parts = [encode({"command": self.command, "parameters": self.parameters})[:-1]]
        parts.append(',"matrices":{')
        for i, (name, matrix) in enumerate(self.matrices.items()):
            parts += ("," if i else "", encode(name), ":", *_matrix_text(matrix))
        checks = [check.as_json() for check in self.checks]
        parts += ("},", encode({"checks": checks, "version": self.version})[1:])
        return "".join(parts)

    @classmethod
    def from_json(cls, text: str) -> "ReportDocument":
        payload = json.loads(text)
        checks = []
        for item in payload["checks"]:
            check = Check(item["name"], item["residual"], item["tolerance"])
            if check.passed != item["pass"]:
                raise ValueError(
                    f"check {check.name!r} violates pass == (residual <= tolerance)"
                )
            checks.append(check)
        return cls(
            command=payload["command"],
            parameters=payload["parameters"],
            matrices={
                name: deserialize_matrix(rows)
                for name, rows in payload["matrices"].items()
            },
            checks=checks,
            version=payload["version"],
        )


_BINARY_OPS = {
    ast.Add: np.add,
    ast.Sub: np.subtract,
    ast.Mult: np.multiply,
    ast.Div: np.true_divide,
    ast.Pow: np.power,
}

# Every node type the grammar admits; the walk in `parse_expression` also
# requires constants to be int or float (not bool) and names to be ``x``.
_ALLOWED_NODES = {
    ast.Expression, ast.Constant, ast.Name, ast.Load, ast.BinOp, ast.UnaryOp,
    ast.USub, ast.UAdd, *_BINARY_OPS,
}


def parse_expression(text: str) -> Callable:
    """Compile a tiny arithmetic grammar in ``x`` to a vectorized function.

    Supports numbers, ``x``, ``+ - * /``, parentheses, and powers written
    as either ``**`` or ``^``.  Anything else is rejected.
    """
    try:
        tree = ast.parse(text.replace("^", "**"), mode="eval")
    except SyntaxError as exc:
        raise ValueError(f"cannot parse expression {text!r}: {exc}") from exc

    for node in ast.walk(tree):
        if (
            type(node) not in _ALLOWED_NODES
            or (isinstance(node, ast.Constant) and type(node.value) not in (int, float))
            or (isinstance(node, ast.Name) and node.id != "x")
        ):
            raise ValueError(
                f"unsupported element in expression {text!r}: only numbers, 'x', "
                "+ - * / ^ and parentheses are allowed"
            )

    def evaluate(node, x):
        if isinstance(node, ast.Expression):
            return evaluate(node.body, x)
        if isinstance(node, ast.Constant):
            return float(node.value)
        if isinstance(node, ast.Name):
            return x
        if isinstance(node, ast.BinOp):
            return _BINARY_OPS[type(node.op)](
                evaluate(node.left, x), evaluate(node.right, x)
            )
        value = evaluate(node.operand, x)
        return -value if isinstance(node.op, ast.USub) else value

    def fn(x: np.ndarray) -> np.ndarray:
        # A division by zero or an overflow gives inf or nan, without a
        # warning; the library refuses a value that is not finite.
        with np.errstate(all="ignore"):
            out = np.asarray(evaluate(tree, np.asarray(x, dtype=float)), dtype=float)
        if out.shape != np.shape(x):
            out = np.broadcast_to(out, np.shape(x)).copy()
        return out

    return fn


def _parse_complex(text: str) -> complex:
    try:
        return complex(text.replace("i", "j"))
    except ValueError:
        import argparse
        raise argparse.ArgumentTypeError(f"cannot parse complex number {text!r}")


def _complex_param(value: complex) -> list:
    value = complex(value)
    return [value.real, value.imag]


def _checks(residuals: dict, prefix: str = "") -> list:
    return [Check(prefix + name, residual, EQUALITY_TOL) for name, residual in residuals.items()]


def run_gram(gamma: complex, level: int) -> ReportDocument:
    block = gram_block(level, gamma)
    # Formed once, at |gamma|; the gauge at gamma is unitary and moves no eigenvalue.
    core = GramBlock(level, abs(gamma), block.core_factor).matrix
    gram, min_eig = phase_gauge(core, block.gamma), float(np.linalg.eigvalsh(core)[0])
    checks = [
        Check("gram_hermitian", relative_residual(gram - gram.conj().T, gram), EQUALITY_TOL),
        Check("gram_positive_definite", max(0.0, POSITIVITY_TOL - min_eig), 0.0),
    ]
    return ReportDocument(
        command="gram",
        parameters={"gamma": _complex_param(gamma), "level": level},
        matrices={"gram": gram, "min_eigenvalue": np.array([[min_eig]])},
        checks=checks,
    )


def run_block(gamma: complex, level: int) -> ReportDocument:
    system = build_block_system(realize_basis_cholesky(gram_block(level, gamma)))
    return ReportDocument(
        command="block",
        parameters={"gamma": _complex_param(gamma), "level": level},
        matrices=_level_matrices(system),
        checks=_checks(verify_block_system(system)),
    )


def _level_matrices(system: BlockSystem, n: str = "n_selfadjoint", c: str = "c_matrix") -> dict:
    # Every matrix of a level system, in report order; ``n`` and ``c`` key
    # the symmetrized pair.
    basis = system.basis
    return {
        "h": basis.h_matrix, "e": basis.e_matrix, "a": system.a, "b": system.b,
        "N": system.N, "S_h": system.S_h, "S_e": system.S_e, "sqrt_S_e": system.sqrt_S_e,
        n: system.n_selfadjoint, c: system.c_matrix,
        "anticommutator_diagonal": system.anticommutator_diagonal,
    }


def run_nogo(theta: float, cutoffs: Sequence[int]) -> ReportDocument:
    report = nogo_joint_kernel(theta, cutoffs)
    smallest, kernel = min(report.min_singular_values), report.kernel_dimension_estimate
    floor = closed_form_floor(theta)
    if theta == 0.0:
        checks = [
            Check("vacuum_survives", report.min_singular_values[-1], UNIT_SCALE_TOL),
            Check("kernel_dimension_one", abs(kernel - 1), 0.0),
        ]
    else:
        # Every minimum of the restriction lies at or above the floor, and the
        # untruncated spectrum has one value below KERNEL_TOL exactly when the
        # floor does: its next, sqrt(floor^2 + w-), is at least sqrt(1.464)
        # (`fock` module docstring, Sectors).
        checks = [
            Check("floor_bound", 1.0 - smallest / floor if smallest < floor else 0.0,
                  UNIT_SCALE_TOL),
            Check("kernel_empty", abs(kernel - (floor < KERNEL_TOL)), 0.0),
        ]
    return ReportDocument(
        command="nogo",
        parameters={"theta": float(theta), "cutoffs": list(report.cutoffs),
                    "kernel_tol": KERNEL_TOL},
        matrices={
            "min_singular_values": np.array(report.min_singular_values),
            "floor": np.array([[floor]]),
            "kernel_dimension_estimate": np.array([[float(kernel)]]),
        },
        checks=checks,
    )


def run_assemble(gamma: complex, max_level: int) -> ReportDocument:
    ops = assemble(gamma, max_level)
    checks = [
        Check("ladder_actions", ops.action_residual, EQUALITY_TOL),
        Check("global_resolution", ops.resolution_residual, EQUALITY_TOL),
        Check("global_intertwining_on_basis", ops.intertwining_residual, EQUALITY_TOL),
    ]
    norms = np.asarray(ops.s_h_block_norms)
    if abs(ops.gamma) > 0.0 and max_level >= 1:
        checks.append(
            Check("s_h_norm_growth", max(0.0, float(np.max(-np.diff(norms)))), 0.0)
        )
    matrices = {}
    for system in ops.block_systems:
        for name in ("a", "b", "N"):
            matrices[f"level{system.level}:{name}"] = getattr(system, name)
        checks += _checks(verify_block_system(system), f"level{system.level}:")
    return ReportDocument(
        command="assemble",
        parameters={"gamma": _complex_param(gamma), "max_level": max_level},
        matrices={
            **matrices,
            "s_h_block_norms": norms,
            "s_e_block_norms": np.array(ops.s_e_block_norms),
            "s_h_block_conditions": np.array(ops.s_h_block_conditions),
        },
        checks=checks,
    )


def run_bicoherent(
    n_states: int, alpha_text: str, quad_order: int, symbol_text: str | None
) -> ReportDocument:
    alpha_fn = parse_expression(alpha_text)
    family = build_family(n_states, alpha_fn=alpha_fn, quad_order=quad_order)

    e_states, h_states = states_at(family, family.nodes)
    pairing = max_abs(np.sum(e_states.conj() * h_states, axis=1) - 1.0)
    operator, residual = resolution_of_identity(family)
    checks = [
        Check("pairing_unity", pairing, UNIT_SCALE_TOL),
        Check("resolution_identity", residual, EQUALITY_TOL),
    ]
    matrices = {"resolution_operator": operator}
    parameters = {
        "n": n_states,
        "alpha": alpha_text,
        "quad": quad_order,
        "symbol": symbol_text,
    }
    if symbol_text is not None:
        symbol_fn = parse_expression(symbol_text)
        symbol_op = upper_symbol(family, symbol_fn)
        matrices["upper_symbol"] = symbol_op
        checks.append(
            Check(
                "upper_symbol_hermitian",
                max_abs(symbol_op - symbol_op.conj().T),
                EQUALITY_TOL,
            )
        )
        values = symbol_fn(family.nodes)
        if float(np.ptp(values)) == 0.0:
            expected = float(values[0]) * np.eye(n_states)
            checks.append(
                Check(
                    "upper_symbol_constant",
                    max_abs(symbol_op - expected),
                    EQUALITY_TOL,
                )
            )
    return ReportDocument(
        command="bicoherent", parameters=parameters, matrices=matrices, checks=checks
    )


def run_verify_fixtures(gamma: float) -> ReportDocument:
    checks = []
    matrices = {}
    for level, closed in (
        (1, fixtures.closed_form_m1(gamma)),
        (2, fixtures.closed_form_m2(gamma)),
    ):
        tag = f"m{level}"
        basis = fixture_basis(level, gamma)
        system = build_block_system(basis)
        produced = _level_matrices(system, "n", "c")
        matrices.update({f"{tag}:{key}": matrix for key, matrix in produced.items()})
        for key, expected in closed.items():
            defect = relative_residual(produced[key] - expected, expected)
            checks.append(Check(f"{tag}:{key}_matches", defect, FIXTURE_TOL))
        residuals = verify_block_system(system)
        nilpotency = residuals["nilpotency_a"] + residuals["nilpotency_b"]
        checks.append(Check(f"{tag}:nilpotency_order", nilpotency, FIXTURE_TOL))
        e_kernel = dual_basis_by_kernel(basis.h_matrix, system.a, system.b)
        kernel_dual = relative_residual(e_kernel - basis.e_matrix, basis.e_matrix)
        checks.append(Check(f"{tag}:kernel_dual", kernel_dual, EQUALITY_TOL))
        checks += _checks(residuals, f"{tag}:")
        distance = max_abs(system.core["anticommutator"] - np.eye(level + 1))
        if level == 1:
            checks.append(Check("m1:anticommutator_identity", distance, FIXTURE_TOL))
        else:
            # Identity anticommutator is exclusive to level 1; here the
            # distance must stay bounded away from zero.
            checks.append(
                Check("m2:anticommutator_apart_from_identity", max(0.0, 1.0 - distance), 0.0)
            )
    return ReportDocument(
        command="verify-fixtures",
        parameters={"gamma": float(gamma)},
        matrices=matrices,
        checks=checks,
    )


_INT = dict(type=int, required=True)
_GAMMA = "--gamma", dict(
    type=_parse_complex, required=True, help="deformation, e.g. 0.3+0.2i (i or j)"
)

# Each subcommand once: its help, and the options that its ``run_<name>``
# function ('_' for '-') takes, in order, as (flag, `add_argument` keywords).
_SUBCOMMANDS = {
    "gram": ("overlap Gram matrix of one level", [_GAMMA, ("--level", _INT)]),
    "block": ("full per-level operator system", [_GAMMA, ("--level", _INT)]),
    "nogo": ("joint-kernel singular value sweep", [
        ("--theta", dict(type=float, required=True, help="noncommutativity")),
        ("--cutoffs", dict(type=int, nargs="+", default=[4, 8, 12, 16],
                           help="strictly increasing Fock cutoffs c, the inputs nx + ny <= c")),
    ]),
    "assemble": ("direct-sum assembly up to a level cutoff", [_GAMMA, ("--max-level", _INT)]),
    "bicoherent": ("dressed state family on [-1, 1]", [
        ("--n", _INT),
        ("--alpha", dict(default="0", help="dressing, e.g. '0.3*x'")),
        ("--quad", dict(type=int, default=DEFAULT_QUAD_ORDER)),
        ("--symbol", dict(help="classical function to quantize")),
    ]),
    "verify-fixtures": ("compare levels 1 and 2 against the closed-form reference matrices",
                        [("--gamma", dict(type=float, required=True))]),
}

# Options of one value that is not an int: the value may start with '-'
# without being a plain negative number, such as -0.1-0.6i, -1e-5 or -x.
# argparse would read it as an option; `main` joins it as ``--opt=value``.
_DASHED_VALUE_OPTIONS = {flag for _, options in _SUBCOMMANDS.values() for flag, kw in options
                         if kw.get("type") is not int and "nargs" not in kw}


def build_parser() -> argparse.ArgumentParser:
    # Options are spelled out in full: an abbreviation such as --gam would
    # escape the joining of dashed values in `main`.  argparse is imported
    # here, so that a caller that parses no command line never loads it.
    import argparse
    parser = argparse.ArgumentParser(
        prog="pfl",
        description="Certified constructions of finite pseudo-fermion structures",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, options) in _SUBCOMMANDS.items():
        p = sub.add_parser(command, help=help_text, allow_abbrev=False)
        for flag, kwargs in (*options, ("--out", {"type": Path})):
            p.add_argument(flag, **kwargs)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    for i in reversed(range(1, len(argv))):
        if argv[i - 1] in _DASHED_VALUE_OPTIONS and argv[i][:1] == "-" and argv[i][:2] != "--":
            argv[i - 1 : i + 1] = [f"{argv[i - 1]}={argv[i]}"]
    args = build_parser().parse_args(argv)
    # Looked up when called, so that a wrapper bound over ``run_*`` runs.
    run = globals()["run_" + args.command.replace("-", "_")]
    flags = [flag for flag, _ in _SUBCOMMANDS[args.command][1]]
    try:
        report = run(*(getattr(args, flag[2:].replace("-", "_")) for flag in flags))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        text = report.to_json()
    except ValueError as exc:
        print(f"error: the {args.command} report holds a non-finite value ({exc})", file=sys.stderr)
        return 2

    try:
        if args.out is None:
            print(text)
            sys.stdout.flush()
        else:
            with args.out.open("w") as handle:
                print(text, file=handle)
    except OSError as exc:
        where = args.out or "stdout"
        print(f"error: cannot write the report to {where} ({exc.strerror})", file=sys.stderr)
        return 2
    return 0 if report.all_pass() else 1


def exit_main() -> None:
    """The ``pfl`` entry: `main`'s exit code through `os._exit`, with no teardown.

    `main` has flushed the report; stderr is flushed here.  An exception out
    of `main`, argparse's SystemExit included, exits the usual way.
    """
    code = main()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    exit_main()
