"""Block-diagonal assembly of the level operators up to a cutoff.

Every global operator on the direct sum of the levels ``0 .. L`` is block
diagonal, so an assembly keeps only the per-level systems of module
`blocks` and where each starts, and forms no dense global matrix; the
ladder action, the resolution of identity and the intertwining
``S_e N = N^+ S_e`` are certified block by block.  The frame operators'
per-block norms grow with the level for any nonzero deformation, which is
the finite-size witness that the global frame operators need not stay
bounded.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blocks import (
    BlockSystem,
    build_block_system,
    max_abs,
    realize_basis_cholesky,
    relative_residual,
)
from .fock import lowering_matrix
from .overlaps import gram_block


@dataclass(frozen=True)
class GlobalOperators:
    """Direct-sum ladder system over levels ``0 .. max_level``.

    ``block_systems[M]`` holds the level-``M`` operators; they act on the
    global coordinates ``offsets[M] : offsets[M] + M + 1``, which is the
    range of the level-``M`` projection.  A dense global operator is the
    direct sum of one block matrix over the levels; nothing here forms it.
    """

    max_level: int
    gamma: complex
    block_systems: tuple[BlockSystem, ...]
    offsets: tuple[int, ...]
    action_residual: float


@dataclass(frozen=True)
class ResolutionReport:
    """Global residuals and per-block conditioning of an assembly.

    Residuals are absolute max-norms; norms and condition numbers are
    spectral.
    """

    resolution_residual: float
    intertwining_residual: float
    s_h_block_norms: tuple[float, ...]
    s_e_block_norms: tuple[float, ...]
    s_h_block_conditions: tuple[float, ...]


def assemble(gamma: complex, max_level: int) -> GlobalOperators:
    """Build the direct-sum system up to ``max_level`` and its action residual.

    Every level is realized in the Cholesky gauge of its overlap Gram
    matrix, `blocks.realize_basis_cholesky`.  The defect of the square-root
    ladder action of ``A, B, A^+, B^+`` on every basis vector, taken block
    by block but scaled by the global ``max|A|`` and ``max|B|``, is
    returned as ``action_residual`` for the caller to compare against
    `blocks.EQUALITY_TOL`; a failing action does not raise.
    """
    gamma = complex(gamma)
    if max_level < 0:
        raise ValueError(f"max_level must be >= 0, got {max_level}")
    systems = [
        build_block_system(realize_basis_cholesky(gram_block(level, gamma)))
        for level in range(max_level + 1)
    ]

    # Global scales max|A|, max|B|: a direct sum's max-norm is its largest block's.
    norm_a = max(max_abs(s.a) for s in systems)
    norm_b = max(max_abs(s.b) for s in systems)
    action = 0.0
    for system in systems:
        a, b = system.a, system.b
        h, e = system.basis.h_matrix, system.basis.e_matrix
        norm_h, norm_e = max_abs(h), max_abs(e)
        down = lowering_matrix(system.basis.dim)
        up = down.conj().T
        action = max(
            action,
            relative_residual(a @ h - h @ down, norm_a, norm_h),
            relative_residual(b @ h - h @ up, norm_b, norm_h),
            relative_residual(a.conj().T @ e - e @ up, norm_a, norm_e),
            relative_residual(b.conj().T @ e - e @ down, norm_b, norm_e),
        )

    return GlobalOperators(
        max_level=max_level,
        gamma=gamma,
        block_systems=tuple(systems),
        offsets=tuple(m * (m + 1) // 2 for m in range(max_level + 1)),
        action_residual=action,
    )


def global_resolution_check(ops: GlobalOperators) -> ResolutionReport:
    """Resolution-of-identity and intertwining residuals of an assembly.

    The resolution sums every mixed dyad ``|e_k><h_k|`` over all levels;
    the intertwining defect ``(S_e N - N^+ S_e)`` is applied to each
    primal vector, which is the vector-wise form in which the identity
    actually holds.  Both are block diagonal, so each residual is the
    largest over the blocks.
    """
    resolution = intertwining = 0.0
    norms_h, norms_e, conds_h = [], [], []
    for system in ops.block_systems:
        h, e = system.basis.h_matrix, system.basis.e_matrix
        # N as b a from the ladders at gamma, the product the dense B A forms.
        s_e, n_op = system.S_e, system.b @ system.a
        resolution = max(resolution, max_abs(e @ h.conj().T - np.eye(system.basis.dim)))
        intertwining = max(
            intertwining, max_abs((s_e @ n_op - n_op.conj().T @ s_e) @ h)
        )
        norms_h.append(float(np.linalg.norm(system.S_h, 2)))
        norms_e.append(float(np.linalg.norm(s_e, 2)))
        conds_h.append(float(np.linalg.cond(system.S_h)))
    return ResolutionReport(
        resolution_residual=resolution,
        intertwining_residual=intertwining,
        s_h_block_norms=tuple(norms_h),
        s_e_block_norms=tuple(norms_e),
        s_h_block_conditions=tuple(conds_h),
    )
