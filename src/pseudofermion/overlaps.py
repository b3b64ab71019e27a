"""Overlap algebra of the deformed two-boson excitation vectors.

Two commuting annihilation operators built as unit-norm linear combinations
of independent bosonic modes satisfy the mixed commutator ``[A1, A2^+] =
gamma * 1``.  The excitations ``Phi_{n1,n2} = (A1^+)^n1 (A2^+)^n2 vac /
sqrt(n1! n2!)`` are then no longer orthogonal within a fixed total level.

Level-``M`` Gram matrices of these overlaps (`gram_block`) are the input
for every per-level basis realization downstream.  They come from a closed
form: with the canonical coefficients ``A1^+ = a_x^+`` and ``A2^+ = gamma
a_x^+ + s a_y^+``, ``s = sqrt(1 - |gamma|^2)``, the coefficients of the
level-``M`` excitations over the product basis ``|M-i, i>`` form an upper
triangular matrix ``R`` with positive diagonal ``s^j``.  The Gram matrix is
``R^+ R`` and ``R`` is its Cholesky factor, so the factorization never has
to be computed from the (ill-conditioned) Gram matrix itself.

For arbitrary combination coefficients, `sym_power` expands every
excitation of a level onto the orthonormal product Fock basis at once: the
level-``M`` columns are ``Sym^M(T)`` of the 2x2 coefficient matrix ``T``.

The paper derives the overlaps by a commutator recursion instead.  That
recursion and the scalar binomial expansion of one excitation are kept in
the test suite as the oracles of `gram_block` and `sym_power`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Highest total level served: the envelope checked so far.  Production reads
# exact binomials (`_BINOMIAL`); the factorial oracles of the tests share it.
LEVEL_CAP = 30

# Tolerance on the unit-norm constraints of the combination coefficients.
NORM_TOL = 1e-10

# Pascal table C(n, k) up to the level cap, zero for k > n; every entry is
# an integer below 2^53 and so exact in double precision.
_BINOMIAL = np.array(
    [[math.comb(n, k) for k in range(LEVEL_CAP + 1)] for n in range(LEVEL_CAP + 1)],
    dtype=float,
)


@dataclass(frozen=True)
class NCBosonParams:
    """Combination coefficients defining the deformed pair ``A1, A2``.

    ``A1 = alpha_x a_x + alpha_y a_y`` and ``A2 = beta_x a_x + beta_y a_y``
    with both coefficient vectors unit-norm and linearly independent.  The
    deformation strength ``gamma`` is the inner product of the two
    coefficient vectors and is always recomputed from them.
    """

    alpha_x: complex
    alpha_y: complex
    beta_x: complex
    beta_y: complex

    def __post_init__(self):
        for name in ("alpha_x", "alpha_y", "beta_x", "beta_y"):
            object.__setattr__(self, name, complex(getattr(self, name)))
        norm_a = abs(self.alpha_x) ** 2 + abs(self.alpha_y) ** 2
        norm_b = abs(self.beta_x) ** 2 + abs(self.beta_y) ** 2
        if not (abs(norm_a - 1.0) <= NORM_TOL and abs(norm_b - 1.0) <= NORM_TOL):
            raise ValueError(
                "combination coefficients must be unit-norm per pair: "
                f"|alpha|^2 = {norm_a!r}, |beta|^2 = {norm_b!r}"
            )
        det = self.alpha_x * self.beta_y - self.alpha_y * self.beta_x
        if abs(det) == 0.0:
            raise ValueError(
                "coefficient vectors are linearly dependent (|gamma| = 1); "
                "the excitation vectors would not span the level subspaces"
            )

    @property
    def gamma(self) -> complex:
        return self.alpha_x * self.beta_x.conjugate() + self.alpha_y * self.beta_y.conjugate()

    @classmethod
    def from_gamma(cls, gamma: complex) -> "NCBosonParams":
        """Canonical coefficient pair realizing a given deformation ``gamma``.

        Uses ``alpha = (1, 0)`` and ``beta = (conj(gamma), sqrt(1-|gamma|^2))``
        so that the recomputed deformation equals ``gamma`` exactly.
        Requires ``|gamma| < 1``.
        """
        gamma = complex(gamma)
        if not abs(gamma) < 1.0:
            raise ValueError(f"|gamma| must be < 1, got |{gamma}| = {abs(gamma)}")
        return cls(
            alpha_x=1.0,
            alpha_y=0.0,
            beta_x=gamma.conjugate(),
            beta_y=math.sqrt(1.0 - abs(gamma) ** 2),
        )


@dataclass(frozen=True)
class GramBlock:
    """Overlap matrix of the level-``M`` excitation vectors and its factor.

    Entry ``(j, k)`` of ``matrix`` is the inner product of ``Phi_{M-j, j}``
    with ``Phi_{M-k, k}``; Hermitian by construction, positive definite
    exactly when ``|gamma| < 1``.  Column ``j`` of ``factor`` holds the
    coefficients of ``Phi_{M-j, j}`` over the product basis ``|M-i, i>``:
    upper triangular with diagonal ``s^j``, ``s = sqrt(1 - |gamma|^2)``, and
    ``factor^+ factor = matrix``, so it is the Cholesky factor of ``matrix``.
    ``core_matrix`` and ``core_factor`` are the same pair at ``|gamma|``,
    from which the level is built (`phase_gauge`).
    """

    level: int
    gamma: complex
    matrix: np.ndarray
    factor: np.ndarray
    core_matrix: np.ndarray
    core_factor: np.ndarray

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.core_matrix)[0])


def phase_gauge(matrix: np.ndarray, phase: float, shift: int = 0) -> np.ndarray:
    """A level matrix ``X`` at ``|gamma|`` read at ``gamma = |gamma| e^(i phase)``.

    Entry ``(j, k)`` becomes ``X_jk conj(p_j) p_k``, ``p_k = e^(i k phase)``:
    the conjugation by ``P = diag(p) = Sym^M(diag(1, e^(i phase)))``.
    ``shift = -1`` (``+1``) moves the row (column) index of ``p`` by one,
    the lowering (raising) ladder's own factor ``e^(-/+ i phase)``.  Entries
    move by 2 eps relative to the rounded phases; at phase 0, ``X`` is kept.
    """
    if not phase:
        return matrix
    dim = len(matrix)
    p = np.exp(1j * phase * np.arange(dim + 1))
    rows = p[1:] if shift < 0 else p[:dim]
    cols = p[1:] if shift > 0 else p[:dim]
    view = matrix * np.outer(rows.conj(), cols)
    view.setflags(write=False)
    return view


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


def gram_block(level: int, gamma: complex) -> GramBlock:
    """Assemble the level-``M`` overlap Gram matrix from its closed-form factor.

    ``factor[i, j] = sqrt(C(j, i) C(M-i, j-i)) gamma^(j-i) s^i`` for
    ``i <= j`` and zero below the diagonal: `sym_power` of the canonical
    coefficients, column by column.  The matrix is
    ``factor^+ factor`` with its upper triangle mirrored conjugate and its
    diagonal taken as the real column norms, so it is Hermitian by
    construction.  The closed form is evaluated at ``gamma`` and, for the
    core, at ``|gamma|``.  Requires ``|gamma| < 1``.
    """
    if level < 0:
        raise ValueError(f"level must be >= 0, got {level}")
    if level > LEVEL_CAP:
        raise ValueError(f"total level exceeds cap {LEVEL_CAP}")
    gamma = complex(gamma)
    s = NCBosonParams.from_gamma(gamma).beta_y.real
    r = complex(abs(gamma))
    k = np.arange(level + 1)
    rows, cols = k[:, None], k[None, :]
    # C(j, i) vanishes below the diagonal, which zeroes the lower triangle;
    # the clipped offset only keeps the other indices in range there.
    offset = np.maximum(cols - rows, 0)
    root = np.sqrt(_BINOMIAL[cols, rows] * _BINOMIAL[level - rows, offset])
    # One power per exponent, gathered over the offsets: the entrywise values.
    scale = (s ** k)[:, None]
    core = _gram_pair(root * (r ** k)[offset] * scale)
    pair = core if gamma == r else _gram_pair(root * (gamma ** k)[offset] * scale)
    return GramBlock(level, gamma, *pair, *core)


def _gram_pair(factor: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # The Gram matrix of a factor and the factor, both read-only.
    upper = np.triu(factor.conj().T @ factor, 1)
    g = upper + upper.conj().T + np.diag(np.sum(np.abs(factor) ** 2, axis=0))
    factor.setflags(write=False)
    g.setflags(write=False)
    return g, factor
