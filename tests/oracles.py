"""Reference constructions that only the tests use.

The package computes each of these another way; the tests compare the
production routes against them:

* the paper's commutator recursion for the level overlaps (`overlap`) and
  the scalar Fock expansion of one excitation (`fock_expand_oracle`), the
  references for `overlaps.gram_block` and for `sym_power`;
* `sym_power`, the binomial double sum of one level's ``Sym^M(T)`` in one
  vectorized call, the reference for `overlaps.sym_powers` and for the Gram
  factor, and `cholesky_polar`, the 2x2 ``P`` and ``U`` whose ``Sym^M`` are a
  Cholesky level's ``sqrt_S_e`` and ``c_matrix``;
* the truncated single-mode ladder matrices (`lowering_matrix`,
  `raising_matrix`), the dense two-mode Fock representation built from them,
  the stacked vacuum conditions, and that stack on the inputs ``nx + ny <=
  c`` (`triangle_vacuum_conditions`), the reference for
  `fock.nogo_joint_kernel`'s sector-by-sector scan, and the untruncated
  stack's singular values from Williamson's normal form
  (`williamson_ladder`), the limit of the scan's lowest values;
* the level-by-level construction of the deformed number operators
  (`deformed_number_operators_by_level`), one `sym_power` call per level,
  the reference for `blocks.deformed_number_operators`' batched pass;
* `synthesize_ladders`, the ladders of any `BlockBasis` read at its gamma,
  the positive square root of a Hermitian matrix by its eigendecomposition
  and a basis from a primal family alone;
* dense views of a `GlobalOperators` assembly: the direct sum of one block
  matrix over all levels (`direct_sum(ops, "a")`) and the embedded basis
  vectors (`h_vector`, `e_vector`);
* a report's matrix layout as nested lists (`serialize_matrix`) and its
  whole text from one `json.dumps` of those lists (`report_json`), the
  reference for `cli.ReportDocument.to_json`'s row-by-row encoder.

The recursion and the expansion take factorials and refuse levels outside
``[0, overlaps.LEVEL_CAP]`` with the package's message.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from pseudofermion.blocks import (
    EQUALITY_TOL,
    POSITIVITY_TOL,
    BlockBasis,
    DeformedLevelOperators,
    PositivityError,
    _ladder_shifts,
    max_abs,
    relative_residual,
)
from pseudofermion.fock import _SQRT2
from pseudofermion.overlaps import (
    _BINOMIAL,
    LEVEL_CAP,
    NCBosonParams,
    _check_level,
    phase_gauge,
)


def _raw_overlap(
    n1: int, n2: int, k1: int, k2: int, gamma: complex, memo: dict
) -> complex:
    # Unnormalized overlap of (A1^+)^n1 (A2^+)^n2 vac with the (k1, k2)
    # excitation.  Peeling one A1 (or, once n1 = 0, one A2) off the left
    # vector and commuting it through the right-hand creation string gives
    # the two-term recursion; the conjugated deformation appears when the
    # peeled operator is A2.  ``memo`` lives for one top-level call.
    if n1 + n2 != k1 + k2:
        return 0.0
    if n1 == 0 and n2 == 0:
        return 1.0 if k1 == 0 and k2 == 0 else 0.0
    key = (n1, n2, k1, k2)
    if key in memo:
        return memo[key]
    acc = 0.0 + 0.0j
    if n1 >= 1:
        if k1 >= 1:
            acc += k1 * _raw_overlap(n1 - 1, n2, k1 - 1, k2, gamma, memo)
        if k2 >= 1:
            acc += gamma * k2 * _raw_overlap(n1 - 1, n2, k1, k2 - 1, gamma, memo)
    else:
        if k1 >= 1:
            acc += gamma.conjugate() * k1 * _raw_overlap(n1, n2 - 1, k1 - 1, k2, gamma, memo)
        if k2 >= 1:
            acc += k2 * _raw_overlap(n1, n2 - 1, k1, k2 - 1, gamma, memo)
    memo[key] = acc
    return acc


def overlap(n1: int, n2: int, k1: int, k2: int, gamma: complex) -> complex:
    """Inner product of the normalized excitations ``Phi_{n1,n2}, Phi_{k1,k2}``.

    Exactly zero across different total levels.  Within a level the value is
    produced by the commutator recursion with normalization
    ``1/sqrt(n1! n2! k1! k2!)``.  This is the paper's derivation, kept as an
    oracle for `gram_block`; no production path calls it.
    """
    for idx in (n1, n2, k1, k2):
        if idx < 0:
            raise ValueError(f"negative excitation index: {(n1, n2, k1, k2)}")
    _check_level(max(n1 + n2, k1 + k2))
    if n1 + n2 != k1 + k2:
        return 0.0
    raw = _raw_overlap(n1, n2, k1, k2, complex(gamma), {})
    norm = math.sqrt(
        math.factorial(n1) * math.factorial(n2) * math.factorial(k1) * math.factorial(k2)
    )
    return raw / norm


def fock_expand_oracle(n1: int, n2: int, params: NCBosonParams) -> np.ndarray:
    """Coefficients of ``Phi_{n1,n2}`` over the orthonormal product basis.

    Expands the creation-operator binomials directly; entry ``i`` of the
    returned vector multiplies the orthonormal state with ``M - i`` quanta
    in mode x and ``i`` in mode y, ``M = n1 + n2``.  Inner products of
    these coefficient vectors are the independent check on `overlap`, and
    the vectors themselves are the scalar reference for `sym_power`; only
    tests call it.
    """
    if n1 < 0 or n2 < 0:
        raise ValueError(f"negative excitation index: {(n1, n2)}")
    level = n1 + n2
    _check_level(level)
    cax = params.alpha_x.conjugate()
    cay = params.alpha_y.conjugate()
    cbx = params.beta_x.conjugate()
    cby = params.beta_y.conjugate()
    coeff = np.zeros(level + 1, dtype=complex)
    for pos in range(level + 1):
        m1 = level - pos  # quanta in mode x
        m2 = pos
        acc = 0.0 + 0.0j
        for i in range(max(0, m1 - n2), min(n1, m1) + 1):
            j = m1 - i
            acc += (
                math.comb(n1, i)
                * math.comb(n2, j)
                * cax**i
                * cay ** (n1 - i)
                * cbx**j
                * cby ** (n2 - j)
            )
        coeff[pos] = acc * math.sqrt(math.factorial(m1) * math.factorial(m2))
    return coeff / math.sqrt(math.factorial(n1) * math.factorial(n2))


def sym_power(t: np.ndarray, level: int) -> np.ndarray:
    """Every column of ``Sym^M(T)`` at once, ``M = level``.

    ``t[p, q]`` is the coefficient of ``a_p^+`` (``p`` = x, y) in the
    ``q``-th creation operator, so for the deformed pair ``t = [[conj
    alpha_x, conj beta_x], [conj alpha_y, conj beta_y]]``.  Column ``n2``
    of the result holds the coefficients of ``Phi_{M-n2,n2}`` over the
    product basis ``|M-i, i>``: the binomial double sum of the expanded
    creation-operator powers, evaluated for every row, column and summation
    index in one array and normalized by ``sqrt(C(M, n2) / C(M, i))``.
    """
    if not 0 <= level <= LEVEL_CAP:
        raise ValueError(f"level must lie in [0, {LEVEL_CAP}], got {level}")
    t = np.asarray(t, dtype=complex)
    k = np.arange(level + 1)
    # rows: y quanta i of the product state; cols: n2; last axis: the
    # number of x quanta taken from the first operator.  Out-of-range terms
    # carry a zero binomial; their exponents are clipped to stay finite.
    rows, cols, first = k[:, None, None], k[None, :, None], k[None, None, :]
    n1, m1 = level - cols, level - rows
    second = m1 - first
    inside = second >= 0
    second = np.where(inside, second, 0)
    power = t[:, :, None] ** k
    terms = (
        _BINOMIAL[n1, first]
        * _BINOMIAL[cols, second]
        * inside
        * power[0, 0, first]
        * power[1, 0, np.maximum(n1 - first, 0)]
        * power[0, 1, second]
        * power[1, 1, np.maximum(cols - second, 0)]
    )
    norm = np.sqrt(_BINOMIAL[level, k][None, :] / _BINOMIAL[level, k][:, None])
    return terms.sum(axis=2) * norm


def cholesky_polar(r: float) -> tuple[np.ndarray, np.ndarray]:
    """``P = (R1 R1^T)^(-1/2)`` and the rotation ``U = P R1`` at ``|gamma| = r``.

    ``R1 = [[1, r], [0, s]]``, ``s = sqrt(1 - r^2)``, is the level-1 Cholesky
    factor, and ``Sym^M(R1)`` the level-M one, so ``sym_power(P, M)`` is that
    level's ``sqrt_S_e`` and ``sym_power(U, M)`` its ``c_matrix``.  ``R1 R1^T =
    1 + r F`` with the reflection ``F = [[r, s], [s, -r]]``, so any function of
    it is ``(f(1+r) + f(1-r)) / 2 + (f(1+r) - f(1-r)) / 2 F``.
    """
    s = math.sqrt(1.0 - r * r)
    plus, minus = 1.0 / math.sqrt(1.0 + r), 1.0 / math.sqrt(1.0 - r)
    p = (plus + minus) / 2 * np.eye(2) + (plus - minus) / 2 * np.array([[r, s], [s, -r]])
    return p, p @ np.array([[1.0, r], [0.0, s]])


def deformed_number_operators_by_level(
    params: NCBosonParams, level: int
) -> DeformedLevelOperators:
    """The deformed number operators built and certified one level at a time.

    The loop `blocks.deformed_number_operators` ran before it certified
    every level in one batched pass: on each level ``0..level`` the
    tridiagonal ``M1``, ``M2`` and ``H = M1 + M2`` are formed with
    ``np.diag``, the excitations' Fock expansions come from one `sym_power`
    call, and the action and commutator residuals are taken level by level.
    """
    if level < 0:
        raise ValueError(f"level must be >= 0, got {level}")
    gamma = params.gamma
    denom = 1.0 - abs(gamma) ** 2
    if denom <= POSITIVITY_TOL:
        raise ValueError(
            f"deformation magnitude {abs(gamma)} leaves no room to invert 1 - |gamma|^2"
        )

    alpha = np.array([params.alpha_x, params.alpha_y])
    beta = np.array([params.beta_x, params.beta_y])
    k1 = np.outer(alpha.conj(), alpha - gamma * beta) / denom
    k2 = np.outer(beta.conj(), beta - gamma.conjugate() * alpha) / denom
    t = np.column_stack([alpha, beta]).conj()

    action = commutator = 0.0
    for total in range(level + 1):
        j = np.arange(total + 1)
        hop = np.sqrt((total - j[1:] + 1) * j[1:])
        m1, m2 = (
            np.diag(k[0, 0] * (total - j) + k[1, 1] * j)
            + np.diag(k[0, 1] * hop, 1)
            + np.diag(k[1, 0] * hop, -1)
            for k in (k1, k2)
        )
        h = m1 + m2
        vecs = sym_power(t, total)
        norm_1, norm_2, norm_v = max_abs(m1), max_abs(m2), max_abs(vecs)
        action = max(
            action,
            relative_residual(m1 @ vecs - vecs * (total - j), norm_1, norm_v),
            relative_residual(m2 @ vecs - vecs * j, norm_2, norm_v),
            relative_residual(h @ vecs - total * vecs, h, norm_v),
        )
        commutator = max(commutator, relative_residual(m1 @ m2 - m2 @ m1, norm_1, norm_2))
    if not action <= EQUALITY_TOL:
        raise ValueError(f"deformed number operator action defect {action:.3e}")
    if not commutator <= EQUALITY_TOL:
        raise ValueError(f"deformed number operators do not commute: {commutator:.3e}")

    return DeformedLevelOperators(
        level=level,
        gamma=gamma,
        m1=m1,
        m2=m2,
        h_total=h,
        action_residual=action,
        commutator_residual=commutator,
    )


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


def triangle_vacuum_conditions(theta: float, cutoff: int) -> np.ndarray:
    """`stacked_vacuum_conditions` with inputs on the triangle ``nx + ny <= cutoff``.

    The outputs of both halves run to ``nx + ny <= cutoff + 1``: the box
    stack at ``cutoff + 1`` is restricted to those rows and columns.  Within
    the box, a ladder leaves its matrix only by raising a mode past ``cutoff
    + 1``, which no input reaches, so this is the exact operator restricted
    to the inputs.  The reference for `fock`'s sector-by-sector scan.
    """
    top = cutoff + 1
    rep = build_fock_rep(top)
    nx, ny = np.divmod(np.arange(rep.dim), top + 1)
    rows, cols = nx + ny <= top, nx + ny <= cutoff
    return stacked_vacuum_conditions(theta, rep)[np.concatenate([rows, rows])][:, cols]


def williamson_ladder(theta: float, count: int) -> np.ndarray:
    """The ``count`` least singular values of the untruncated stack, ascending.

    ``B^+ B = L1^+ L1 + L2^+ L2`` is a positive quadratic form in ``(x, y,
    d/dx, d/dy)``.  Its Williamson normal form (J. Williamson, Amer. J.
    Math. 58, 141 (1936)) gives its eigenvalues ``E0 + n w- + m w+`` for
    ``n, m >= 0``, with ``q = sqrt(1 + theta^2/4)``, ``w+- = 2q +- |theta|``
    and ``E0 = theta^2 / (2 (1 + q))``.  ``w-`` is written ``4 / (2q +
    |theta|)``, which does not cancel at large ``|theta|``, and ``E0`` so
    that ``theta^2`` does not overflow.
    """
    q = math.hypot(1.0, theta / 2.0)
    plus = 2.0 * q + abs(theta)
    e0 = abs(theta) * (abs(theta) / (2.0 * (1.0 + q)))
    n, m = np.divmod(np.arange(count * count), count)
    return np.sqrt(np.sort(e0 + n * (4.0 / plus) + m * plus)[:count])


def synthesize_ladders(basis: BlockBasis) -> tuple[np.ndarray, np.ndarray]:
    """Lowering/raising matrices acting on the basis by the square-root rule.

    ``a = H D_down H^-1`` and ``b = H D_up H^-1`` where ``D_down`` carries
    ``sqrt(k)`` on the superdiagonal, so ``a h_k = sqrt(k) h_{k-1}`` and
    ``b h_k = sqrt(k+1) h_{k+1}`` with ``a h_0 = b h_M = 0``.  ``H^-1`` is
    read as ``E^+``, which `BlockBasis` holds to be the inverse.
    """
    a, b = _ladder_shifts(basis.core["h_matrix"]) @ basis.core["e_matrix"].conj().T
    return phase_gauge(a, basis.gamma, -1), phase_gauge(b, basis.gamma, 1)


def hermitian_sqrt(matrix: np.ndarray) -> np.ndarray:
    """Unique positive square root of a Hermitian positive-definite matrix.

    From its eigendecomposition; raises `PositivityError` when the least
    eigenvalue is not above `POSITIVITY_TOL`.
    """
    vals, vecs = np.linalg.eigh(matrix)
    if vals[0] <= POSITIVITY_TOL:
        raise PositivityError(f"matrix is not positive definite: min eigenvalue {vals[0]:.3e}")
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


def basis_from_h(level: int, h_matrix: np.ndarray) -> BlockBasis:
    """User-supplied primal family; the dual is taken as the inverse adjoint."""
    h = np.asarray(h_matrix, dtype=complex)
    e = np.linalg.inv(h).conj().T
    return BlockBasis(level=level, h_matrix=h, e_matrix=e)


def total_dim(ops) -> int:
    """Dimension of the direct sum of the levels ``0 .. ops.max_level``."""
    return ops.offsets[-1] + ops.max_level + 1


def direct_sum(ops, name: str) -> np.ndarray:
    """Dense direct sum of every block's ``name`` matrix, read-only."""
    out = np.zeros((total_dim(ops), total_dim(ops)), dtype=complex)
    for system, off in zip(ops.block_systems, ops.offsets):
        dim = system.basis.dim
        out[off : off + dim, off : off + dim] = getattr(system, name)
    out.setflags(write=False)
    return out


def h_vector(ops, level: int, k: int) -> np.ndarray:
    """Embedded primal vector ``h_k`` of the given level."""
    return embedded(ops, level, k, dual=False)


def e_vector(ops, level: int, k: int) -> np.ndarray:
    """Embedded dual vector ``e_k`` of the given level."""
    return embedded(ops, level, k, dual=True)


def embedded(ops, level: int, k: int, dual: bool = False) -> np.ndarray:
    """Basis vector ``h_k`` (``e_k`` if ``dual``) of a level in the direct sum."""
    if not 0 <= level <= ops.max_level:
        raise ValueError(f"level out of range: {level}")
    if not 0 <= k <= level:
        raise ValueError(f"index {k} out of range at level {level}")
    system = ops.block_systems[level]
    column = (system.basis.e_matrix if dual else system.basis.h_matrix)[:, k]
    vec = np.zeros(total_dim(ops), dtype=complex)
    vec[ops.offsets[level] : ops.offsets[level] + level + 1] = column
    return vec


def serialize_matrix(matrix: np.ndarray) -> list:
    """Row-major nested lists with each entry as an ``[re, im]`` pair."""
    arr = np.atleast_2d(np.asarray(matrix, dtype=complex))
    return np.stack([arr.real, arr.imag], axis=-1).tolist()


def report_json(report) -> str:
    """A `cli.ReportDocument`'s text from one `json.dumps` of its whole payload."""
    payload = {
        "command": report.command,
        "parameters": report.parameters,
        "matrices": {name: serialize_matrix(matrix) for name, matrix in report.matrices.items()},
        "checks": [check.as_json() for check in report.checks],
        "version": report.version,
    }
    return json.dumps(payload, separators=(",", ":"), allow_nan=False)
