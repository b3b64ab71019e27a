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
to be computed from the (ill-conditioned) Gram matrix itself.  As ``R =
Sym^M([[1, gamma], [0, s]])``, the spectrum is ``(1 + |gamma|)^(M-k) (1 -
|gamma|)^k``: the positivity gate reads ``(1 - |gamma|)^M`` unformed.

``R`` is formed at ``|gamma|`` only: every level matrix at ``gamma``, the
Gram block's and those of module `blocks`, is its ``|gamma|`` value read
through the one gauge `phase_gauge`, which moves no eigenvalue.

For arbitrary combination coefficients, `sym_powers` expands the
excitations of every level onto the orthonormal product Fock basis at once
(the columns of ``Sym^n(T)`` for the 2x2 coefficient matrix ``T``), by the
creation-operator recurrence; `dsym` gives the derived representation
``dSym^n(K)``, each level's block of ``Sum_pq K_pq a_p^+ a_q``.

The paper derives the overlaps by a commutator recursion instead.  That
recursion, the scalar binomial expansion of one excitation and the one-level
``Sym^M(T)`` double sum are kept in the test suite as the oracles of
`gram_block` and `sym_powers`.
"""

from __future__ import annotations

import math
import numbers

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


def _same(x, y) -> bool:
    # Field equality by value: arrays by `np.array_equal`, the dicts, lists
    # and tuples that may hold them entry by entry.
    if isinstance(x, np.ndarray) or isinstance(y, np.ndarray):
        return np.array_equal(x, y)
    if isinstance(x, dict) and isinstance(y, dict):
        return x.keys() == y.keys() and all(_same(x[k], y[k]) for k in x)
    if isinstance(x, (list, tuple)) and type(y) is type(x):
        return len(x) == len(y) and all(map(_same, x, y))
    return bool(x == y)


class _Record:
    """Fields stored once, by a subclass ``__init__`` through ``vars(self)``.

    Records of one type compare equal by their fields' values, arrays
    included, and hash by their fields, and read as ``Name(field=value,
    ...)``; assignment and deletion raise AttributeError.  A record that
    holds an array is unhashable: `hash` raises TypeError.  Plain classes:
    defining one generates no code.
    """

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} fields are read-only: {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        return _same(vars(self), vars(other)) if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(tuple(vars(self).values()))

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in vars(self).items())
        return f"{type(self).__qualname__}({fields})"


class NCBosonParams(_Record):
    """Combination coefficients defining the deformed pair ``A1, A2``.

    ``A1 = alpha_x a_x + alpha_y a_y`` and ``A2 = beta_x a_x + beta_y a_y``
    with both coefficient vectors unit-norm and linearly independent.  The
    deformation strength ``gamma`` is the inner product of the two
    coefficient vectors and is always recomputed from them.
    """

    def __init__(self, alpha_x: complex, alpha_y: complex, beta_x: complex, beta_y: complex):
        vars(self).update(alpha_x=complex(alpha_x), alpha_y=complex(alpha_y),
                          beta_x=complex(beta_x), beta_y=complex(beta_y))
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


class GramBlock(_Record):
    """Overlap matrix of the level-``M`` excitation vectors, held as one factor.

    ``core_factor``, the closed-form factor at ``|gamma|``, is the only array
    stored; every read of ``factor`` and ``matrix`` reads it at ``gamma``
    (`phase_gauge`).  Column ``j`` of ``factor`` holds the coefficients of
    ``Phi_{M-j, j}`` over ``|M-i, i>``: upper triangular with diagonal
    ``s^j``, ``s = sqrt(1 - |gamma|^2)``, and ``factor^+ factor = matrix``.
    Entry ``(j, k)`` of ``matrix`` is ``<Phi_{M-j, j}, Phi_{M-k, k}>``.
    """

    def __init__(self, level: int, gamma: complex, core_factor: np.ndarray):
        vars(self).update(level=level, gamma=gamma, core_factor=core_factor)

    @property
    def factor(self) -> np.ndarray:
        return phase_gauge(self.core_factor, self.gamma)

    @property
    def matrix(self) -> np.ndarray:
        # factor^+ factor: the upper triangle mirrored, real column norms on the diagonal.
        factor = self.core_factor
        upper = np.triu(factor.conj().T @ factor, 1)
        g = upper + upper.conj().T + np.diag(np.sum(np.abs(factor) ** 2, axis=0))
        g.setflags(write=False)
        return phase_gauge(g, self.gamma)

    def min_eigenvalue(self) -> float:
        """The exact least eigenvalue ``(1 - |gamma|)^M`` of ``matrix``."""
        return (1.0 - abs(self.gamma)) ** self.level


def phase_gauge(matrix: np.ndarray, gamma: complex, shift: int = 0) -> np.ndarray:
    """A level matrix ``X`` at ``|gamma|`` read at ``gamma``: ``X_jk w_d``.

    ``w_d = gamma^d / |gamma|^d``, ``w_-d = conj(w_d)`` and ``d = k - j +
    shift``, ``shift = -1`` (``+1``) for the lowering (raising) ladder: the
    conjugation by ``P = Sym^M(diag(1, gamma / |gamma|))``.  The powers are
    numpy's complex powers, as in `gram_block`'s core, so the weights cancel
    their rounding: within 30 eps of ``e^(i d arg gamma)`` for ``d <= 31``.
    ``X`` is kept at real ``gamma >= 0``; at real ``gamma < 0`` every
    weight is exactly ``+-1``.
    """
    if gamma == abs(gamma):
        return matrix
    # Scaled exactly by a power of two, so no power underflows; real divisions keep +-1 exact.
    modulus, exp = math.frexp(abs(gamma))
    k = np.arange(len(matrix) + 1)
    powers = complex(math.ldexp(gamma.real, -exp), math.ldexp(gamma.imag, -exp)) ** k
    moduli = (complex(modulus) ** k).real
    w = powers.real / moduli + 1j * (powers.imag / moduli)
    w = np.concatenate([w[:0:-1].conj(), w])
    view = matrix * w[len(matrix) + shift + k[None, :-1] - k[:-1, None]]
    view.setflags(write=False)
    return view


def sym_powers(t: np.ndarray, level: int) -> np.ndarray:
    """``Sym^n(T)`` for every ``n <= level``, zero-padded into one stack.

    ``t[p, q]`` is the coefficient of ``a_p^+`` (``p`` = x, y) in the
    ``q``-th creation operator, so for the deformed pair ``t = [[conj
    alpha_x, conj beta_x], [conj alpha_y, conj beta_y]]``.  Column ``n2`` of
    level ``n`` holds the coefficients of ``Phi_{n-n2,n2}`` over the product
    basis ``|n-i, i>``.  Built by the creation-operator recurrence
    ``Phi_{n1,n2} = A1^+ Phi_{n1-1,n2} / sqrt(n1)``, and ``A2^+ Phi_{0,n2-1}
    / sqrt(n2)`` for the last column, ``A_q^+ = t[0, q] a_x^+ + t[1, q]
    a_y^+``: O(n^2) per level.
    """
    _check_level(level)
    t = np.asarray(t, dtype=complex)
    stack = np.zeros((level + 1,) * 3, dtype=complex)
    stack[0, 0, 0] = 1.0
    root = np.sqrt(np.arange(level + 1))
    # Level n >= 1 raises column j < n of level n - 1 by A1^+ over sqrt(n - j),
    # and column n - 1 by A2^+ over sqrt(n) into column n; every row is scaled.
    rung, col = np.ogrid[1 : level + 1, : level + 1]
    weights = t[:, (col >= rung).astype(int)] / root[np.where(col < rung, rung - col, rung)]
    for n in range(1, level + 1):
        src = stack[n - 1][:n, np.minimum(col[0, : n + 1], n - 1)]
        stack[n, :n, : n + 1] = weights[0, n - 1, : n + 1] * root[n:0:-1, None] * src
        stack[n, 1 : n + 1, : n + 1] += weights[1, n - 1, : n + 1] * root[1 : n + 1, None] * src
    return stack


def dsym(k: np.ndarray, level: int) -> np.ndarray:
    """``dSym^n(K)`` for every ``n <= level``, zero-padded into one stack.

    The derived representation of a 2x2 ``K`` on ``|n - j, j>`` is
    tridiagonal: diagonal ``K_xx (n - j) + K_yy j``, off-diagonals
    ``sqrt((n - j + 1) j)`` times ``K_xy`` (above) and ``K_yx`` (below).
    Leading axes of ``k`` lead the result.
    """
    _check_level(level)
    k = np.asarray(k, dtype=complex)[..., None, None]
    n, j = np.ogrid[: level + 1, : level + 1]
    hop = np.sqrt((n - j + 1) * j * (j <= n))[:, 1:]
    i = np.arange(level + 1)
    stack = np.zeros(k.shape[:-4] + (level + 1,) * 3, dtype=complex)
    stack[..., i, i] = np.where(j <= n, k[..., 0, 0, :, :] * (n - j) + k[..., 1, 1, :, :] * j, 0)
    stack[..., i[:-1], i[1:]] = k[..., 0, 1, :, :] * hop
    stack[..., i[1:], i[:-1]] = k[..., 1, 0, :, :] * hop
    return stack


def gram_block(level: int, gamma: complex) -> GramBlock:
    """The level-``M`` overlap Gram block, from its closed-form factor at ``|gamma|``.

    ``factor[i, j] = sqrt(C(j, i) C(M-i, j-i)) gamma^(j-i) s^i`` for
    ``i <= j`` and zero below the diagonal: ``Sym^M`` of the canonical
    coefficients, column by column.  It is evaluated once, at ``|gamma|``,
    in numpy's complex powers; `GramBlock` reads it at ``gamma``.
    Requires ``0 <= level <= LEVEL_CAP`` and ``|gamma| < 1``.
    """
    _check_level(level)
    gamma = complex(gamma)
    # s from the canonical pair, which refuses |gamma| >= 1 and NaN.  C(j, i) is
    # zero below the diagonal, zeroing the lower triangle, where the clipped offset
    # only keeps indices in range.  One power per exponent, gathered over offsets.
    s = NCBosonParams.from_gamma(gamma).beta_y.real
    k = np.arange(level + 1)
    rows, cols = k[:, None], k[None, :]
    offset = np.maximum(cols - rows, 0)
    root = np.sqrt(_BINOMIAL[cols, rows] * _BINOMIAL[level - rows, offset])
    factor = root * (complex(abs(gamma)) ** k)[offset] * (s ** k)[:, None]
    factor.setflags(write=False)
    return GramBlock(level, gamma, factor)


def _check_level(level: int) -> None:
    # The one check of a total level, naming the level it refuses: an int or
    # numpy integer in [0, LEVEL_CAP].  A bool or a float (also 2.0) is
    # refused, not truncated or used as an index.
    if isinstance(level, bool) or not isinstance(level, numbers.Integral):
        raise ValueError(f"level must be an integer, got {level!r}")
    if not 0 <= level <= LEVEL_CAP:
        raise ValueError(f"level must lie in [0, {LEVEL_CAP}], got {level}")
