"""Command-line frontend emitting versioned JSON certification reports.

Every subcommand builds one construction (Gram matrix, level block,
joint-kernel sweep, direct-sum assembly, dressed state family, or the
closed-form reference comparison), serializes the resulting matrices, and
attaches a list of named checks, each carrying its residual and tolerance.
Exit status is 0 when every check passes, 1 when any fails, and 2 for
unusable parameters.  Reports are deterministic: identical parameters
yield byte-identical output.

Reports are compact JSON, with no whitespace between tokens.  Complex numbers
serialize as ``[re, im]`` pairs and matrices as row-major nested arrays,
using the shortest decimal representation that round-trips doubles
exactly.  ``assemble`` reports each level's ``a``, ``b`` and ``N`` under
``level{M}:a``, ``level{M}:b`` and ``level{M}:N``, the naming of its
``level{M}:<check>`` checks; the dense direct sums are those blocks placed
on the diagonal at offsets ``M(M+1)/2``.
"""

from __future__ import annotations

import argparse
import ast
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

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
from .fock import KERNEL_TOL, nogo_joint_kernel
from .overlaps import gram_block

SCHEMA_VERSION = "pfl-2"

# Ceiling on the defect against the closed-form reference matrices, relative
# to max(1, largest expected entry); tighter than the invariant tolerance
# because the comparison is direct transcription, not conditioned algebra.
FIXTURE_TOL = 1e-12

# Absolute ceiling for residuals whose scale is one by construction: the
# pairing <e(x), h(x)> - 1 of the normalized bicoherent states, and the
# joint-kernel singular values (floor at theta = 0, drops across cutoffs).
UNIT_SCALE_TOL = 1e-12


def serialize_matrix(matrix: np.ndarray) -> list:
    """Row-major nested lists with each entry as an ``[re, im]`` pair."""
    arr = np.atleast_2d(np.asarray(matrix, dtype=complex))
    return np.stack([arr.real, arr.imag], axis=-1).tolist()


def deserialize_matrix(rows: list) -> np.ndarray:
    """Bit-exact inverse of `serialize_matrix`; always a 2-d complex array.

    The ``[re, im]`` pairs are reinterpreted in place as complex entries,
    which keeps signed zeros and infinities that ``re + 1j * im`` would not.
    """
    return np.asarray(rows, dtype=float).view(complex)[..., 0]


@dataclass(frozen=True)
class Check:
    """One named certification: passes iff ``residual <= tolerance``."""

    name: str
    residual: float
    tolerance: float

    def __post_init__(self):
        object.__setattr__(self, "residual", float(self.residual))
        object.__setattr__(self, "tolerance", float(self.tolerance))

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


@dataclass
class ReportDocument:
    """Serializable record of one command invocation."""

    command: str
    parameters: dict
    matrices: dict
    checks: list
    version: str = SCHEMA_VERSION

    def all_pass(self) -> bool:
        return all(check.passed for check in self.checks)

    def to_json(self) -> str:
        payload = {
            "command": self.command,
            "parameters": self.parameters,
            "matrices": {
                name: serialize_matrix(matrix)
                for name, matrix in self.matrices.items()
            },
            "checks": [check.as_json() for check in self.checks],
            "version": self.version,
        }
        return json.dumps(payload, separators=(",", ":"))

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
        out = np.asarray(evaluate(tree, np.asarray(x, dtype=float)), dtype=float)
        if out.shape != np.shape(x):
            out = np.broadcast_to(out, np.shape(x)).copy()
        return out

    return fn


def _parse_complex(text: str) -> complex:
    try:
        return complex(text.replace("i", "j"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse complex number {text!r}")


def _complex_param(value: complex) -> list:
    value = complex(value)
    return [value.real, value.imag]


def run_gram(gamma: complex, level: int) -> ReportDocument:
    gram = gram_block(level, gamma).matrix
    min_eig = float(np.linalg.eigvalsh(gram)[0])
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
    checks = [
        Check(name, residual, EQUALITY_TOL)
        for name, residual in verify_block_system(system).items()
    ]
    return ReportDocument(
        command="block",
        parameters={"gamma": _complex_param(gamma), "level": level},
        matrices=_level_matrices(system),
        checks=checks,
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
    svals = np.asarray(report.min_singular_values)
    checks = []
    if theta == 0.0:
        checks.append(Check("vacuum_survives", float(svals[-1]), UNIT_SCALE_TOL))
        checks.append(
            Check("kernel_dimension_one", abs(report.kernel_dimension_estimate - 1), 0.0)
        )
    else:
        drop = float(np.max(svals[:-1] - svals[1:])) if svals.size > 1 else 0.0
        checks.append(Check("floor_nondecreasing", max(0.0, drop), UNIT_SCALE_TOL))
        checks.append(
            Check("kernel_empty", float(report.kernel_dimension_estimate), 0.0)
        )
    return ReportDocument(
        command="nogo",
        parameters={
            "theta": float(theta),
            "cutoffs": [int(c) for c in report.cutoffs],
            "kernel_tol": KERNEL_TOL,
        },
        matrices={
            "min_singular_values": np.array(report.min_singular_values),
            "kernel_dimension_estimate": np.array(
                [[float(report.kernel_dimension_estimate)]]
            ),
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
        for name, residual in verify_block_system(system).items():
            checks.append(Check(f"level{system.level}:{name}", residual, EQUALITY_TOL))
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
        for name, residual in residuals.items():
            checks.append(Check(f"{tag}:{name}", residual, EQUALITY_TOL))
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


# argparse reads a value that starts with '-', other than a plain negative
# number, as an option; written as ``--opt=value`` it passes.
_DASHED = "; a value that starts with '-' is written "
_GAMMA_HELP = "deformation, e.g. 0.3+0.2i (i or j)" + _DASHED + "--gamma=-0.1-0.6i"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pfl",
        description="Certified constructions of finite pseudo-fermion structures",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gram", help="overlap Gram matrix of one level")
    p.add_argument("--gamma", type=_parse_complex, required=True, help=_GAMMA_HELP)
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--out", type=Path)

    p = sub.add_parser("block", help="full per-level operator system")
    p.add_argument("--gamma", type=_parse_complex, required=True, help=_GAMMA_HELP)
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--out", type=Path)

    p = sub.add_parser("nogo", help="joint-kernel singular value sweep")
    p.add_argument(
        "--theta", type=float, required=True, help="noncommutativity" + _DASHED + "--theta=-1e-9"
    )
    p.add_argument("--cutoffs", type=int, nargs="+", default=[4, 8, 12, 16])
    p.add_argument("--out", type=Path)

    p = sub.add_parser("assemble", help="direct-sum assembly up to a level cutoff")
    p.add_argument("--gamma", type=_parse_complex, required=True, help=_GAMMA_HELP)
    p.add_argument("--max-level", type=int, required=True)
    p.add_argument("--out", type=Path)

    p = sub.add_parser("bicoherent", help="dressed state family on [-1, 1]")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha", default="0", help="dressing, e.g. '0.3*x'" + _DASHED + "--alpha=-x")
    p.add_argument("--quad", type=int, default=DEFAULT_QUAD_ORDER)
    p.add_argument("--symbol", help="classical function to quantize" + _DASHED + "--symbol=-x")
    p.add_argument("--out", type=Path)

    p = sub.add_parser(
        "verify-fixtures",
        help="compare levels 1 and 2 against the closed-form reference matrices",
    )
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--out", type=Path)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "gram":
            report = run_gram(args.gamma, args.level)
        elif args.command == "block":
            report = run_block(args.gamma, args.level)
        elif args.command == "nogo":
            report = run_nogo(args.theta, args.cutoffs)
        elif args.command == "assemble":
            report = run_assemble(args.gamma, args.max_level)
        elif args.command == "bicoherent":
            report = run_bicoherent(args.n, args.alpha, args.quad, args.symbol)
        else:
            report = run_verify_fixtures(args.gamma)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    text = report.to_json()
    if args.out is not None:
        args.out.write_text(text + "\n")
    else:
        print(text)
    return 0 if report.all_pass() else 1


if __name__ == "__main__":
    sys.exit(main())
