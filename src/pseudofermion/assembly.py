"""Block-diagonal assembly of the level operators up to a cutoff.

The per-level ladder matrices of module `blocks` embed into one direct-sum
space ordered by increasing level.  The assembled ``A`` and ``B`` commute
with every level projection, reproduce the square-root ladder action on
each primal and dual vector, and give number operators ``N = B A`` and
``N_sharp = A^+ B^+`` whose eigenvectors are the embedded families.  The
frame operators assemble blockwise as well; their per-block norms grow
with the level for any nonzero deformation, which is the finite-size
witness that the global frame operators need not stay bounded.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blocks import (
    EQUALITY_TOL,
    BlockSystem,
    build_block_system,
    fixture_basis,
    max_abs,
    realize_basis_cholesky,
    relative_residual,
)
from .fock import lowering_matrix
from .overlaps import NCBosonParams, gram_block

ASSEMBLY_MODES = ("cholesky", "fixture")


@dataclass(frozen=True)
class GlobalOperators:
    """Direct-sum ladder system over levels ``0 .. max_level``.

    ``projections[M]`` is the orthogonal projection onto the level-``M``
    coordinates; ``offsets[M]`` is where that block starts.
    """

    max_level: int
    gamma: complex
    mode: str
    total_dim: int
    A: np.ndarray
    B: np.ndarray
    N: np.ndarray
    N_sharp: np.ndarray
    projections: tuple[np.ndarray, ...]
    S_h_global: np.ndarray
    S_e_global: np.ndarray
    block_systems: tuple[BlockSystem, ...]
    offsets: tuple[int, ...]
    action_residual: float

    def __post_init__(self):
        for name in ("A", "B", "N", "N_sharp", "S_h_global", "S_e_global"):
            arr = np.asarray(getattr(self, name))
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        for proj in self.projections:
            proj.setflags(write=False)

    def h_vector(self, level: int, k: int) -> np.ndarray:
        """Embedded primal vector ``h_k`` of the given level."""
        return self._embedded(level, k, dual=False)

    def e_vector(self, level: int, k: int) -> np.ndarray:
        """Embedded dual vector ``e_k`` of the given level."""
        return self._embedded(level, k, dual=True)

    def _embedded(self, level: int, k: int, dual: bool) -> np.ndarray:
        if not 0 <= level <= self.max_level:
            raise ValueError(f"level out of range: {level}")
        if not 0 <= k <= level:
            raise ValueError(f"index {k} out of range at level {level}")
        system = self.block_systems[level]
        column = (system.basis.e_matrix if dual else system.basis.h_matrix)[:, k]
        vec = np.zeros(self.total_dim, dtype=complex)
        vec[self.offsets[level] : self.offsets[level] + level + 1] = column
        return vec


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


def _block_diag(mats: list[np.ndarray], total: int) -> np.ndarray:
    out = np.zeros((total, total), dtype=complex)
    pos = 0
    for m in mats:
        d = m.shape[0]
        out[pos : pos + d, pos : pos + d] = m
        pos += d
    return out


def assemble(
    gamma: complex | NCBosonParams,
    max_level: int,
    mode: str = "cholesky",
    equality_tol: float = EQUALITY_TOL,
) -> GlobalOperators:
    """Build and certify the direct-sum system up to ``max_level``.

    ``mode`` selects the per-level realization: ``cholesky`` takes the
    Cholesky gauge of the overlap Gram matrix at every level, ``fixture``
    uses the closed-form level-1/level-2 realizations (so it requires
    ``max_level <= 2`` and real positive ``gamma``); level 0 is always the
    trivial block.  The square-root ladder action of ``A, B, A^+, B^+`` on
    every embedded basis vector is verified before returning.
    """
    if isinstance(gamma, NCBosonParams):
        gamma = gamma.gamma
    gamma = complex(gamma)
    if max_level < 0:
        raise ValueError(f"max_level must be >= 0, got {max_level}")
    if mode not in ASSEMBLY_MODES:
        raise ValueError(f"unknown realization mode {mode!r}")
    if mode == "fixture":
        if max_level > 2:
            raise ValueError("closed-form realizations stop at level 2")
        if gamma.imag != 0.0 or gamma.real <= 0.0:
            raise ValueError("fixture mode requires real gamma > 0")

    systems = []
    for level in range(max_level + 1):
        if mode == "fixture" and level >= 1:
            basis = fixture_basis(level, gamma.real)
        else:
            basis = realize_basis_cholesky(gram_block(level, gamma))
        systems.append(build_block_system(basis))

    dims = [s.basis.dim for s in systems]
    total = sum(dims)
    offsets = tuple(int(x) for x in np.cumsum([0] + dims[:-1]))

    big_a = _block_diag([s.a for s in systems], total)
    big_b = _block_diag([s.b for s in systems], total)
    s_h_global = _block_diag([s.S_h for s in systems], total)
    s_e_global = _block_diag([s.S_e for s in systems], total)

    projections = []
    for level, off in enumerate(offsets):
        proj = np.zeros((total, total), dtype=complex)
        idx = np.arange(off, off + dims[level])
        proj[idx, idx] = 1.0
        projections.append(proj)

    action = 0.0
    for system, off in zip(systems, offsets):
        dim = system.basis.dim
        h_emb = np.zeros((total, dim), dtype=complex)
        e_emb = np.zeros((total, dim), dtype=complex)
        h_emb[off : off + dim, :] = system.basis.h_matrix
        e_emb[off : off + dim, :] = system.basis.e_matrix
        down = lowering_matrix(dim)
        up = down.conj().T
        action = max(
            action,
            relative_residual(big_a @ h_emb - h_emb @ down, big_a, h_emb),
            relative_residual(big_b @ h_emb - h_emb @ up, big_b, h_emb),
            relative_residual(big_a.conj().T @ e_emb - e_emb @ up, big_a, e_emb),
            relative_residual(big_b.conj().T @ e_emb - e_emb @ down, big_b, e_emb),
        )
    if action > equality_tol:
        raise ValueError(f"assembled ladder action defect {action:.3e}")

    return GlobalOperators(
        max_level=max_level,
        gamma=gamma,
        mode=mode,
        total_dim=total,
        A=big_a,
        B=big_b,
        N=big_b @ big_a,
        N_sharp=big_a.conj().T @ big_b.conj().T,
        projections=tuple(projections),
        S_h_global=s_h_global,
        S_e_global=s_e_global,
        block_systems=tuple(systems),
        offsets=offsets,
        action_residual=action,
    )


def global_resolution_check(ops: GlobalOperators) -> ResolutionReport:
    """Resolution-of-identity and intertwining residuals of an assembly.

    The resolution sums every mixed dyad ``|e_k><h_k|`` over all levels;
    the intertwining defect ``(S_e N - N^+ S_e)`` is applied to each
    embedded primal vector, which is the vector-wise form in which the
    identity actually holds.
    """
    total = ops.total_dim
    acc = np.zeros((total, total), dtype=complex)
    for system, off in zip(ops.block_systems, ops.offsets):
        dim = system.basis.dim
        block = system.basis.e_matrix @ system.basis.h_matrix.conj().T
        acc[off : off + dim, off : off + dim] += block
    resolution = max_abs(acc - np.eye(total))

    defect_op = ops.S_e_global @ ops.N - ops.N.conj().T @ ops.S_e_global
    h_all = _block_diag([s.basis.h_matrix for s in ops.block_systems], total)
    intertwining = max_abs(defect_op @ h_all)

    norms_h, norms_e, conds_h = [], [], []
    for system in ops.block_systems:
        norms_h.append(float(np.linalg.norm(system.S_h, 2)))
        norms_e.append(float(np.linalg.norm(system.S_e, 2)))
        conds_h.append(float(np.linalg.cond(system.S_h)))
    return ResolutionReport(
        resolution_residual=resolution,
        intertwining_residual=intertwining,
        s_h_block_norms=tuple(norms_h),
        s_e_block_norms=tuple(norms_e),
        s_h_block_conditions=tuple(conds_h),
    )
