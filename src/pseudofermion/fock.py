"""Truncated two-mode boson matrices and the joint-vacuum obstruction scan.

Position-like noncommutativity ``[X, Y] = i theta`` turns the two vacuum
conditions for the transformed annihilation operators into a pair of
first-order operators

    L1 = x + d/dx + i (theta/2) d/dy,
    L2 = y + d/dy - i (theta/2) d/dx,

whose joint kernel is probed here numerically: both are written in
truncated Fock matrices, stacked vertically, and the smallest singular
value of the stack is recorded over a sweep of cutoffs.  A surviving joint
vacuum shows up as an exact (machine-zero) singular value at every cutoff;
for ``theta != 0`` the smallest singular value stays bounded away from
zero instead of decaying as the cutoff grows.

The stack splits exactly.  Both conditions change the total occupation by
one, so even and odd inputs never couple; the diagonal gauge
``|nx, ny> -> i^ny |nx, ny>`` maps ``a_y`` to ``i a_y``, which makes ``L1``
real and ``L2`` ``i`` times a real matrix.  Neither step moves a singular
value, so the scan takes them from two real parity blocks.

Each block halves once more under the swap of the two modes.  In the real
gauge ``L1 = sqrt2 a_x - t (a_y + a_y^+)`` and ``L2 = sqrt2 a_y - t (a_x -
a_x^+)``, ``t = theta / (2 sqrt2)``.  Let ``U |nx, ny> = (-1)^floor((nx +
ny)/2) |ny, nx>`` on the inputs of a block ``B = [L1; L2]`` and let
``U_out`` exchange the ``L1`` row of output ``(a, b)`` with the ``L2`` row
of ``(b, a)``, with sign ``(-1)^floor((a + b + 1)/2)``.  Both are signed
permutations that square to one, and ``B = U_out B U`` exactly.  So ``B``
maps the ``+-1`` eigenspaces of ``U`` into those of ``U_out``, which are
orthogonal; on each, the ``L2`` half of ``B v`` is a signed copy of the
``L1`` half, so ``|B v| = sqrt2 |L1 v|`` and ``L2`` drops out.  The
singular values of ``B`` are therefore those of ``sqrt2 L1 Q_eps`` over
``eps = +-1``, with ``Q_eps`` an orthonormal basis of the eigenspace: the
columns ``(e_c + eps s_c e_swap(c)) / sqrt2`` for each pair ``c, swap(c)``,
``s_c`` the sign of ``U`` at ``c``, and ``e_c`` for each fixed point ``nx =
ny``, which occurs only in the even block and lies in the eigenspace of its
sign ``(-1)^nx``.  A block of ``n`` columns and ``h`` outputs thus costs
two ``h x n/2`` SVDs instead of one ``2h x n``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

DEFAULT_KERNEL_TOL = 1e-8

_SQRT2 = np.sqrt(2.0)


def lowering_matrix(dim: int) -> np.ndarray:
    """Standard truncated single-mode lowering matrix of size ``dim``.

    Superdiagonal entries are ``sqrt(1), ..., sqrt(dim - 1)``.
    """
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    return np.diag(np.sqrt(np.arange(1, dim)), 1).astype(complex)


def raising_matrix(dim: int) -> np.ndarray:
    """Adjoint of `lowering_matrix`."""
    return lowering_matrix(dim).conj().T


@dataclass(frozen=True)
class FockRep:
    """Two-mode truncated Fock representation.

    ``a_x`` and ``a_y`` are the per-mode lowering matrices tensored with
    the identity on the other mode, on the product space of dimension
    ``(cutoff + 1)**2``, enumerated with the first-mode occupation major.
    """

    cutoff: int
    a_x: np.ndarray
    a_y: np.ndarray

    @property
    def dim(self) -> int:
        return (self.cutoff + 1) ** 2

    def basis_index(self, nx: int, ny: int) -> int:
        """Flat index of the product state with the given occupations."""
        if not (0 <= nx <= self.cutoff and 0 <= ny <= self.cutoff):
            raise ValueError(f"occupation out of range: {(nx, ny)}")
        d = self.cutoff + 1
        return nx * d + ny


@dataclass(frozen=True)
class NoGoReport:
    """Singular-value sweep of the stacked vacuum conditions."""

    theta: float
    cutoffs: tuple[int, ...]
    min_singular_values: tuple[float, ...]
    kernel_dimension_estimate: int


def build_fock_rep(cutoff: int) -> FockRep:
    """Build the two-mode representation with per-mode occupation cap ``cutoff``."""
    if cutoff < 1:
        raise ValueError(f"cutoff must be >= 1, got {cutoff}")
    single = lowering_matrix(cutoff + 1)
    eye = np.eye(cutoff + 1, dtype=complex)
    a_x = np.kron(single, eye)
    a_y = np.kron(eye, single)
    a_x.setflags(write=False)
    a_y.setflags(write=False)
    return FockRep(cutoff=cutoff, a_x=a_x, a_y=a_y)


def stacked_vacuum_conditions(theta: float, rep: FockRep) -> np.ndarray:
    """The two vacuum-condition operators stacked vertically.

    Uses ``x + d/dx = sqrt(2) a_x`` and ``d/dy = (a_y - a_y^+)/sqrt(2)``
    (and symmetrically for the second condition).  Test oracle of the scan.
    """
    ax, ay = rep.a_x, rep.a_y
    dx = (ax - ax.conj().T) / _SQRT2
    dy = (ay - ay.conj().T) / _SQRT2
    l1 = _SQRT2 * ax + 1j * (theta / 2.0) * dy
    l2 = _SQRT2 * ay - 1j * (theta / 2.0) * dx
    return np.vstack([l1, l2])


def _parity_singular_values(theta: float, cutoff: int) -> np.ndarray:
    # Real-gauge L1 = sqrt2 a_x - t (a_y + a_y^+) on one input parity; each
    # term moves one mode by one quantum, amplitude sqrt(larger count).
    # The swap symmetry (module docstring) gives the singular values of the
    # whole [L1; L2] block as those of L1 sqrt2 Q_eps, whose columns are
    # col_c + eps s_c col_swap(c) per pair and sqrt2 col_c per fixed point.
    # At theta = 0 the vacuum column is exactly zero, so its value stays 0.
    t = theta / (2.0 * _SQRT2)
    d = cutoff + 1
    nx, ny = np.divmod(np.arange(d * d), d)
    odd = (nx + ny) % 2 == 1
    rank = np.where(odd, np.cumsum(odd), np.cumsum(~odd)) - 1
    svals = []
    for cols in (~odd, odd):
        cx, cy = nx[cols], ny[cols]
        l1 = np.zeros((d * d - cx.size, cx.size))
        for dx, dy, coeff in ((-1, 0, _SQRT2), (0, -1, -t), (0, 1, -t)):
            tx, ty = cx + dx, cy + dy
            ok = (np.minimum(tx, ty) >= 0) & (np.maximum(tx, ty) <= cutoff)
            amp = np.sqrt(np.maximum(cx, tx) if dx else np.maximum(cy, ty))
            l1[rank[tx[ok] * d + ty[ok]], np.flatnonzero(ok)] = coeff * amp[ok]
        pair = cx < cy
        own = l1[:, pair]
        mate = l1[:, rank[cy[pair] * d + cx[pair]]] * (-1.0) ** ((cx[pair] + cy[pair]) // 2)
        for eps in (1, -1):
            fixed = (cx == cy) & ((-1) ** cx == eps)
            q = np.hstack([own + eps * mate, _SQRT2 * l1[:, fixed]])
            svals.append(np.linalg.svd(q, compute_uv=False))
    return np.concatenate(svals)


def nogo_joint_kernel(
    theta: float,
    cutoffs: Sequence[int],
    kernel_tol: float = DEFAULT_KERNEL_TOL,
) -> NoGoReport:
    """Sweep the smallest singular value of the stacked conditions over cutoffs.

    The kernel dimension estimate counts singular values below
    ``kernel_tol`` at the largest cutoff.  Because the scan is done at
    finite truncation, a nonzero floor is reported as evidence (min
    singular value not decaying with cutoff), never as a proof.  Requires
    a finite ``theta`` and a finite ``kernel_tol > 0``.
    """
    theta, kernel_tol = float(theta), float(kernel_tol)
    if not math.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta}")
    if not 0.0 < kernel_tol < math.inf:
        raise ValueError(f"kernel_tol must be finite and > 0, got {kernel_tol}")
    cutoffs = [int(c) for c in cutoffs]
    if not cutoffs:
        raise ValueError("cutoff list must be non-empty")
    if any(c < 2 for c in cutoffs):
        raise ValueError(f"cutoffs must all be >= 2, got {cutoffs}")
    if any(b <= a for a, b in zip(cutoffs, cutoffs[1:])):
        raise ValueError(f"cutoffs must be strictly increasing, got {cutoffs}")

    minima = []
    kernel_dim = 0
    for cutoff in cutoffs:
        svals = _parity_singular_values(theta, cutoff)
        minima.append(float(svals.min()))
        kernel_dim = int(np.sum(svals < kernel_tol))
    return NoGoReport(
        theta=theta,
        cutoffs=tuple(cutoffs),
        min_singular_values=tuple(minima),
        kernel_dimension_estimate=kernel_dim,
    )
