"""The joint-vacuum obstruction scan of two deformed boson modes.

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
sign ``(-1)^nx``.  A block of ``n`` columns and ``h`` outputs thus reduces
to the two ``h x n/2`` matrices ``q_eps = sqrt2 L1 Q_eps`` instead of one
``2h x n``.  The dense complex stack on the two-mode product space is
formed only by the tests, as the oracle of this reduction.

No ``q_eps`` is formed whole: its structure is used instead.  Order the
states by shell ``N = nx + ny``, then by ``nx``.  ``L1`` moves a state by
exactly one shell and a swap pair stays inside its shell, so ``q_eps`` is
block upper bidiagonal: the rows of output shell ``N + 1`` touch only the
columns of input shells ``N`` and ``N + 2``.  Sweeping the input shells in
order, one small Householder QR per shell, of the triangle carried from the
previous shell stacked on the rows that shell brings in, reduces ``q_eps``
to a square upper-triangular ``R = Q^T q_eps``.  An orthogonal ``Q^T``
moves no singular value, so the values-only SVD of ``R`` gives those of
``q_eps``.  At cutoff 32 each ``q_eps`` is about 545 x 273 and 99% zeros;
the shell QRs see panels of at most 49 x 33, and the one dense step left is
the SVD of the 273 x 273 ``R``.  Together they take under half the
floating-point work of the tall SVD.  The four blocks are swept together,
padded to a common layout with zero rows and columns, which the
reflections leave zero; each block's ``R`` is read off its own rows and
columns.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np

# A singular value below this counts toward the kernel dimension estimate.
KERNEL_TOL = 1e-8

_SQRT2 = np.sqrt(2.0)


@dataclass(frozen=True)
class NoGoReport:
    """Singular-value sweep of the stacked vacuum conditions."""

    theta: float
    cutoffs: tuple[int, ...]
    min_singular_values: tuple[float, ...]
    kernel_dimension_estimate: int


def _shell_panels(
    theta: float, cutoff: int
) -> tuple[np.ndarray, np.ndarray, list[int], list[int]]:
    # The four blocks q_eps of the module docstring, b = 2 p + e for input
    # parity p and eps = 1 - 2 e, in shell order and padded to a common
    # layout.  Step k holds input shell N = 2 k + p; a state (x, y) sits at
    # x - lo[N] within its shell.  Returns the panels (step k's rows
    # rows[k]:rows[k + 1], its columns local from 0, its first wide[k] rows
    # left zero for the triangle that step k - 1 carries), each block's
    # columns per step and the steps' column offsets in R.
    t = theta / (2.0 * _SQRT2)
    steps = cutoff + 1
    lo = np.maximum(0, np.arange(2 * cutoff + 1) - cutoff)
    # Each column is L1 applied to its own state x <= y, plus, for a pair,
    # L1 applied to the swapped state (y, x) with factor eps s, where
    # s = (-1)^floor(N/2).  A pair has a column in both eps blocks, a fixed
    # point one, with factor sqrt2, in the block of eps = (-1)^x.  The
    # sources list the columns' own states first: pairs for e = 0 and 1,
    # then fixed points.
    x, y = np.divmod(np.arange(steps * steps), steps)
    px, py, fx = x[x < y], y[x < y], x[:: steps + 1]
    n = px.size
    s = (-1.0) ** ((px + py) // 2)
    sx = np.concatenate([px, px, fx, py, py])
    sy = np.concatenate([py, py, fx, px, px])
    e = np.concatenate([np.repeat([0, 1], n), fx % 2, np.repeat([0, 1], n)])
    factor = np.concatenate([np.ones(2 * n), np.full(steps, _SQRT2), s, -s])
    block = 2 * ((sx + sy) % 2) + e
    step = (sx + sy) // 2
    own = (block * steps + step)[: 2 * n + steps]
    width = np.bincount(own, minlength=4 * steps).reshape(4, steps)
    wide = width.max(axis=0)
    cols = np.concatenate(([0], np.cumsum(wide)))
    # Pairs have x < N/2, so they come first in their shell, the fixed point
    # last.
    col = cols[step] + np.minimum(sx, sy) - lo[sx + sy]
    # L1 = sqrt2 a_x - t (a_y + a_y^+) moves one mode by one quantum,
    # amplitude sqrt(larger count).
    tx = sx + np.array([[-1], [0], [0]])
    ty = sy + np.array([[0], [-1], [1]])
    value = np.array([[_SQRT2], [-t], [-t]]) * factor * np.sqrt(np.stack([sx, sy, sy + 1]))
    ok = (np.minimum(tx, ty) >= 0) & (np.maximum(tx, ty) <= cutoff)
    block = np.broadcast_to(block, ok.shape)[ok]
    col = np.broadcast_to(col, ok.shape)[ok]
    tx, shell, value = tx[ok], (tx + ty)[ok], value[ok]
    # An output row joins at the first step whose input shell it touches,
    # shell N + 1 at step N // 2; the odd blocks' vacuum row comes in with
    # shell 2 at step 0, ahead of it.  The next step's shells N + 2 and N + 3
    # hold at most two states more than output shell N + 1, and a shell has
    # at most half its states, rounded up, as columns; so output shell N + 1,
    # of two states or more, brings at least as many rows as the next step
    # has columns.  Every panel is at least as tall as it is wide, and the
    # triangle it carries on is square.
    group = np.maximum(0, (shell - 1 - block // 2) // 2)
    at = tx - lo[shell] + (shell == 2)
    height = np.zeros(steps, dtype=int)
    np.maximum.at(height, group, at + 1)
    rows = np.concatenate(([0], np.cumsum(wide + height)))
    row = rows[group] + wide[group] + at
    band = (wide[:-1] + wide[1:]).max()
    panels = np.bincount(
        (block * rows[-1] + row) * band + col - cols[group], value, minlength=4 * rows[-1] * band
    ).reshape(4, rows[-1], band)
    return panels, width, rows.tolist(), cols.tolist()


def _triangular_factors(theta: float, cutoff: int) -> tuple[np.ndarray, np.ndarray]:
    # Reduce the four blocks to upper-triangular R shell by shell (module
    # docstring), all four in each QR.  Returns the padded R of each block
    # and the mask of its own rows and columns.  Householder reflections keep
    # a zero row or column zero, so the padding stays out of every R, and so
    # does the vacuum column at theta = 0, whose value stays exactly 0.
    panels, width, rows, cols = _shell_panels(theta, cutoff)
    wide = np.diff(cols).tolist()
    r = np.zeros((4, cols[-1], cols[-1]))
    for k in range(cutoff):
        w, w_next = wide[k], wide[k + 1]
        panel_r = np.linalg.qr(panels[:, rows[k] : rows[k + 1], : w + w_next], mode="r")
        r[:, cols[k] : cols[k + 1], cols[k] : cols[k + 2]] = panel_r[:, :w]
        panels[:, rows[k + 1] : rows[k + 1] + w_next, :w_next] = panel_r[:, w:, w:]
    r[:, cols[-2] :, cols[-2] :] = panels[:, rows[-2] : rows[-1], : wide[-1]]
    step = np.repeat(np.arange(cutoff + 1), wide)
    return r, np.arange(cols[-1]) - np.asarray(cols)[step] < width[:, step]


def _parity_singular_values(theta: float, cutoff: int) -> np.ndarray:
    # The singular values of every block q_eps, as those of its R.  R is
    # formed in its own call, so the panels are freed before the SVDs.
    r, real = _triangular_factors(theta, cutoff)
    return np.concatenate(
        [np.linalg.svd(r_b[np.ix_(k, k)], compute_uv=False) for r_b, k in zip(r, real)]
    )


def nogo_joint_kernel(theta: float, cutoffs: Sequence[int]) -> NoGoReport:
    """Sweep the smallest singular value of the stacked conditions over cutoffs.

    The kernel dimension estimate counts singular values below the module
    constant ``KERNEL_TOL = 1e-8`` at the largest cutoff.  Because the scan
    is done at finite truncation, a nonzero floor is reported as evidence
    (min singular value not decaying with cutoff), never as a proof.
    Requires a finite ``theta`` and strictly increasing integer cutoffs of
    at least 2; a float or a bool is refused, not truncated.
    """
    theta = float(theta)
    if not math.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta}")
    cutoffs = list(cutoffs)
    for c in cutoffs:
        if isinstance(c, bool) or not isinstance(c, numbers.Integral):
            raise ValueError(f"cutoffs must be integers, got {c!r}")
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
        kernel_dim = int(np.sum(svals < KERNEL_TOL))
    return NoGoReport(
        theta=theta,
        cutoffs=tuple(cutoffs),
        min_singular_values=tuple(minima),
        kernel_dimension_estimate=kernel_dim,
    )
