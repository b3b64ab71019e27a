"""Reference constructions that only the tests use.

The package computes each of these another way; the tests compare the
production routes against them:

* the paper's commutator recursion for the level overlaps (`overlap`) and
  the scalar Fock expansion of one excitation (`fock_expand_oracle`), the
  references for `overlaps.gram_block` and `overlaps.sym_power`;
* the dense two-mode Fock representation and the stacked vacuum conditions,
  the reference for `fock.nogo_joint_kernel`'s parity-block scan;
* the positive square root of a Hermitian matrix and a basis from a primal
  family alone;
* dense views of a `GlobalOperators` assembly: the direct sum of one block
  matrix over all levels (`direct_sum(ops, "a")`) and the embedded basis
  vectors (`h_vector`, `e_vector`).

The recursion and the expansion take factorials and refuse levels above
`overlaps.LEVEL_CAP`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from pseudofermion.blocks import BlockBasis, _positive_sqrt_pair
from pseudofermion.fock import _SQRT2, lowering_matrix
from pseudofermion.overlaps import LEVEL_CAP, NCBosonParams


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
    these coefficient vectors are the independent check on `overlap`, and
    the vectors themselves are the scalar reference for `sym_power`; only
    tests call it.
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


def hermitian_sqrt(matrix: np.ndarray) -> np.ndarray:
    """Unique positive square root of a Hermitian positive-definite matrix."""
    return _positive_sqrt_pair(matrix, "matrix")[0]


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
