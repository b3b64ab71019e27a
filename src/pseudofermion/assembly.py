"""Block-diagonal assembly of the level operators up to a cutoff.

Every global operator on the direct sum of the levels ``0 .. L`` is block
diagonal, so an assembly keeps only the per-level systems of module
`blocks` and where each starts, and forms no dense global matrix.  The
same pass certifies the tower block by block: the ladder action, the
resolution of identity and the intertwining ``S_e N = N^+ S_e``.  The
frame operators' per-block norms grow with the level for any nonzero
deformation, which is the finite-size witness that the global frame
operators need not stay bounded; they are read from the singular values
of each level's ``h``, and nothing here is factored.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blocks import (
    BlockSystem,
    _ladder_shifts,
    build_block_system,
    max_abs,
    realize_basis_cholesky,
    relative_residual,
)
from .overlaps import _check_level, gram_block


@dataclass(frozen=True)
class GlobalOperators:
    """Direct-sum ladder system over levels ``0 .. max_level`` and its certificate.

    ``block_systems[M]`` holds the level-``M`` operators; they act on the
    global coordinates ``offsets[M] : offsets[M] + M + 1``, which is the
    range of the level-``M`` projection.  A dense global operator is the
    direct sum of one block matrix over the levels; nothing here forms it.

    Every residual and norm is read from the levels' ``|gamma|`` cores,
    ``block_systems[M].core``.  ``action_residual`` is scaled by the global
    ladder norms and each level's basis norm; the other residuals are
    absolute max-norms; norms and condition numbers are spectral, one per
    level block of ``S_h`` and ``S_e``.
    """

    max_level: int
    gamma: complex
    block_systems: tuple[BlockSystem, ...]
    offsets: tuple[int, ...]
    action_residual: float
    resolution_residual: float
    intertwining_residual: float
    s_h_block_norms: tuple[float, ...]
    s_e_block_norms: tuple[float, ...]
    s_h_block_conditions: tuple[float, ...]


def assemble(gamma: complex, max_level: int) -> GlobalOperators:
    """Build the direct-sum system up to ``max_level`` and certify it.

    Every level is realized in the Cholesky gauge of its overlap Gram
    matrix, `blocks.realize_basis_cholesky`, and certified on its
    ``|gamma|`` core, the ``a, b, h, e, N, S_e`` that
    `blocks.verify_block_system` reads and the singular values of ``h``
    that `blocks.build_block_system` keeps, so every residual and norm below
    depends on ``(|gamma|, max_level)`` alone.  From those cores:

    * ``action_residual``, the defect of the square-root ladder action of
      ``A, B, A^+, B^+`` on every basis vector, taken block by block but
      scaled by the global ``max|A|`` and ``max|B|``;
    * ``resolution_residual``, the sum of every mixed dyad ``|e_k><h_k|``
      over all levels against the identity;
    * ``intertwining_residual``, the defect ``(S_e N - N^+ S_e)`` applied
      to each primal vector, which is the vector-wise form in which the
      identity actually holds;
    * the spectral norms of every ``S_h`` and ``S_e`` block and the
      condition numbers of the ``S_h`` blocks: with ``sigma`` the singular
      values of ``h``, ``sigma_0^2``, ``sigma_min^-2`` and their product.

    All are block diagonal, so each residual is the largest over the
    blocks.  A failing residual does not raise: the caller compares it
    against `blocks.EQUALITY_TOL`.  Raises ValueError for a ``max_level``
    that is not an integer in ``[0, LEVEL_CAP]``, before any level is built.
    """
    gamma = complex(gamma)
    _check_level(max_level)
    systems = tuple(build_block_system(realize_basis_cholesky(gram_block(m, gamma)))
                    for m in range(max_level + 1))
    cores = [s.core for s in systems]

    # Global scales max|A|, max|B|: a direct sum's max-norm is its largest block's.
    norm_a, norm_b = (max(max_abs(core[k]) for core in cores) for k in "ab")
    action = resolution = intertwining = 0.0
    for core in cores:
        a, b, h, e, n_op, s_e = (
            core[k] for k in ("a", "b", "h_matrix", "e_matrix", "N", "S_e"))
        (h_down, h_up), (e_down, e_up) = _ladder_shifts(h), _ladder_shifts(e)
        norm_h, norm_e = max_abs(h), max_abs(e)
        action = max(
            action,
            relative_residual(a @ h - h_down, norm_a, norm_h),
            relative_residual(b @ h - h_up, norm_b, norm_h),
            relative_residual(a.conj().T @ e - e_up, norm_a, norm_e),
            relative_residual(b.conj().T @ e - e_down, norm_b, norm_e),
        )
        resolution = max(resolution, max_abs(e @ h.conj().T - np.eye(len(h))))
        intertwining = max(intertwining, max_abs((s_e @ n_op - n_op.conj().T @ s_e) @ h))
    # S_h = h h^+ and S_e = S_h^-1: their norms are powers of the extreme singular values of h.
    top, least = (np.array([core["sigma_h"][end] for core in cores]) for end in (0, -1))

    return GlobalOperators(
        max_level=max_level,
        gamma=gamma,
        block_systems=systems,
        offsets=tuple(m * (m + 1) // 2 for m in range(max_level + 1)),
        action_residual=action,
        resolution_residual=resolution,
        intertwining_residual=intertwining,
        s_h_block_norms=tuple((top**2).tolist()),
        s_e_block_norms=tuple((least**-2.0).tolist()),
        s_h_block_conditions=tuple(((top / least) ** 2).tolist()),
    )
