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

Two independent routes to the same inner products serve as oracles:

* the paper's commutator-driven recursion (`overlap`), and
* a binomial expansion onto the orthonormal product Fock basis
  (`fock_expand_oracle`) for arbitrary combination coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Factorials are evaluated in double precision; beyond this total level the
# recursion is refused rather than silently losing accuracy.
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
    """

    level: int
    gamma: complex
    matrix: np.ndarray
    factor: np.ndarray

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.matrix)[0])


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
    if n1 + n2 > LEVEL_CAP or k1 + k2 > LEVEL_CAP:
        raise ValueError(f"total level exceeds cap {LEVEL_CAP}")
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
    these coefficient vectors are the independent check on `overlap`.
    """
    if n1 < 0 or n2 < 0:
        raise ValueError(f"negative excitation index: {(n1, n2)}")
    if n1 + n2 > LEVEL_CAP:
        raise ValueError(f"total level exceeds cap {LEVEL_CAP}")
    level = n1 + n2
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


def gram_block(level: int, gamma: complex) -> GramBlock:
    """Assemble the level-``M`` overlap Gram matrix from its closed-form factor.

    ``factor[i, j] = sqrt(C(j, i) C(M-i, j-i)) gamma^(j-i) s^i`` for
    ``i <= j`` and zero below the diagonal: the canonical-coefficient
    expansion of `fock_expand_oracle`, column by column.  The matrix is
    ``factor^+ factor`` with its upper triangle mirrored conjugate and its
    diagonal taken as the real column norms, so it is Hermitian by
    construction.  Requires ``|gamma| < 1``.
    """
    if level < 0:
        raise ValueError(f"level must be >= 0, got {level}")
    if level > LEVEL_CAP:
        raise ValueError(f"total level exceeds cap {LEVEL_CAP}")
    gamma = complex(gamma)
    s = NCBosonParams.from_gamma(gamma).beta_y.real
    k = np.arange(level + 1)
    rows, cols = k[:, None], k[None, :]
    # C(j, i) vanishes below the diagonal, which zeroes the lower triangle;
    # the clipped offset only keeps the other indices in range there.
    offset = np.maximum(cols - rows, 0)
    factor = (
        np.sqrt(_BINOMIAL[cols, rows] * _BINOMIAL[level - rows, offset])
        * gamma ** offset
        * s ** rows
    )
    upper = np.triu(factor.conj().T @ factor, 1)
    g = upper + upper.conj().T + np.diag(np.sum(np.abs(factor) ** 2, axis=0))
    factor.setflags(write=False)
    g.setflags(write=False)
    return GramBlock(level=level, gamma=gamma, matrix=g, factor=factor)
