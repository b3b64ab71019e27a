"""Per-level biorthogonal systems and their ladder-operator algebra.

Each total excitation level ``M`` carries an ``(M + 1)``-dimensional space
spanned by a non-orthogonal family ``h_0 .. h_M`` realizing the overlap
Gram matrix of module `overlaps`.  From any such realization this module
synthesizes nilpotent lowering/raising matrices ``a, b`` with
``a^(M+1) = b^(M+1) = 0``, a non-self-adjoint number operator ``N = b a``,
the positive frame operators ``S_h = H H^+`` and ``S_e = E E^+`` that
intertwine ``N`` with its adjoint, and the orthonormal basis obtained by
symmetrizing with the positive square root of ``S_e``.

Two realization routes are provided, chosen by name in `realize_level`:
the Cholesky gauge, whose upper triangular factor `overlaps.gram_block`
supplies in closed form, and the closed-form level-1/level-2 choices of
module `fixtures`.  Both yield the same spectra and the same mixed-dyad
anticommutator diagonal ``(1, 3, 5, ..., 2M-1, M)``; only level 1 gives
``{a, b} = 1``.  No function here takes a tolerance argument.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fixtures
from .fock import lowering_matrix
from .overlaps import GramBlock, NCBosonParams, gram_block, sym_power

# Relative residual ceiling for equality checks; positivity is an absolute
# eigenvalue floor.  Dense double-precision algebra at dimension <= 10.
EQUALITY_TOL = 1e-10
POSITIVITY_TOL = 1e-12

# Relative ceiling on the defect of a dual family: the biorthonormality
# e^+ h = 1 of a supplied pair, and the agreement of the kernel-built dual
# with the inverse adjoint of h.  A guard on inputs, not a certification.
DUAL_TOL = 1e-8

# A kernel is accepted as one-dimensional when the smallest singular value
# sits below this fraction of the next one.
KERNEL_GAP = 1e-6

REALIZATION_MODES = ("cholesky", "fixture")


class PositivityError(ValueError):
    """A matrix required to be positive definite is not, within tolerance."""


def max_abs(matrix: np.ndarray) -> float:
    """Largest entry magnitude; zero for empty arrays."""
    arr = np.asarray(matrix)
    return float(np.max(np.abs(arr))) if arr.size else 0.0


def relative_residual(defect: np.ndarray, *references: np.ndarray) -> float:
    """Max-norm of ``defect`` scaled by the product of reference norms.

    The scale is floored at 1, so well-conditioned checks reduce to the
    absolute max-norm while ill-conditioned factor products relax the
    comparison the way backward-stable algebra actually behaves.
    """
    scale = 1.0
    for ref in references:
        scale *= max_abs(ref)
    return max_abs(defect) / max(1.0, scale)


def _positive_sqrt_pair(matrix: np.ndarray, subject: str) -> tuple[np.ndarray, np.ndarray]:
    # The positive square root of a Hermitian matrix and its inverse, from
    # one eigendecomposition; ``subject`` names the matrix in the
    # PositivityError raised when it is not positive definite.
    vals, vecs = np.linalg.eigh(matrix)
    if vals[0] <= POSITIVITY_TOL:
        raise PositivityError(
            f"{subject} is not positive definite: min eigenvalue {vals[0]:.3e}"
        )
    # Sum_k f(l_k) v_k v_k^+ is invariant under eigenspace unitaries: phases reach no output.
    root = (vecs * np.sqrt(vals)) @ vecs.conj().T
    inv_root = (vecs * (1.0 / np.sqrt(vals))) @ vecs.conj().T
    return root, inv_root


def hermitian_sqrt(matrix: np.ndarray) -> np.ndarray:
    """Unique positive square root of a Hermitian positive-definite matrix."""
    return _positive_sqrt_pair(matrix, "matrix")[0]


@dataclass(frozen=True)
class BlockBasis:
    """A biorthogonal pair of vector families at one level.

    Column ``k`` of ``h_matrix`` is the primal vector ``h_k``; column ``k``
    of ``e_matrix`` is its dual ``e_k``, normalized so that
    ``e_matrix^+ h_matrix = 1``.
    """

    level: int
    h_matrix: np.ndarray
    e_matrix: np.ndarray

    def __post_init__(self):
        dim = self.level + 1
        h = np.array(self.h_matrix, dtype=complex)
        e = np.array(self.e_matrix, dtype=complex)
        if h.shape != (dim, dim) or e.shape != (dim, dim):
            raise ValueError(
                f"level {self.level} needs {dim}x{dim} matrices, "
                f"got {h.shape} and {e.shape}"
            )
        defect = e.conj().T @ h - np.eye(dim)
        if not relative_residual(defect, e, h) <= DUAL_TOL:
            raise ValueError(
                "families are not biorthonormal: "
                f"max |<e_j, h_k> - delta_jk| = {max_abs(defect):.3e}"
            )
        h.setflags(write=False)
        e.setflags(write=False)
        object.__setattr__(self, "h_matrix", h)
        object.__setattr__(self, "e_matrix", e)

    @property
    def dim(self) -> int:
        return self.level + 1


@dataclass(frozen=True)
class BlockSystem:
    """All level operators derived from one basis realization.

    ``N = b a`` satisfies ``N h_k = k h_k``; ``S_h = H H^+`` and
    ``S_e = E E^+`` are positive, mutually inverse, and intertwine ``N``
    with ``N^+``; ``n_selfadjoint`` is the Hermitian form of ``N`` and
    ``c_matrix`` holds its orthonormal eigenvectors.
    ``anticommutator_diagonal`` lists the coefficients of ``{a, b}`` in
    the mixed dyad expansion over ``|e_k><h_k|``.
    """

    basis: BlockBasis
    a: np.ndarray
    b: np.ndarray
    N: np.ndarray
    S_h: np.ndarray
    S_e: np.ndarray
    sqrt_S_e: np.ndarray
    n_selfadjoint: np.ndarray
    c_matrix: np.ndarray
    anticommutator_diagonal: np.ndarray

    def __post_init__(self):
        for name in (
            "a", "b", "N", "S_h", "S_e", "sqrt_S_e",
            "n_selfadjoint", "c_matrix", "anticommutator_diagonal",
        ):
            arr = np.asarray(getattr(self, name))
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def level(self) -> int:
        return self.basis.level


def realize_basis_cholesky(gram: GramBlock) -> BlockBasis:
    """Upper-triangular basis realization of an overlap Gram matrix.

    ``h_matrix`` is the Cholesky factor ``gram.factor``, taken from its
    closed form rather than by factoring the Gram matrix: upper triangular
    with positive diagonal and ``h_matrix^+ h_matrix`` equal to the Gram
    matrix.  The dual family is the inverse adjoint.  Raises
    `PositivityError` when the Gram matrix is not positive definite within
    `POSITIVITY_TOL`.
    """
    min_eig = gram.min_eigenvalue()
    if min_eig <= POSITIVITY_TOL:
        raise PositivityError(
            f"gram matrix at level {gram.level} is not positive definite "
            f"within tolerance: min eigenvalue {min_eig:.3e} "
            "(deformation magnitude too close to 1)"
        )
    h = gram.factor
    e = np.linalg.inv(h).conj().T
    return BlockBasis(level=gram.level, h_matrix=h, e_matrix=e)


def fixture_basis(level: int, gamma: float) -> BlockBasis:
    """The closed-form level-1 or level-2 realization at real ``gamma > 0``."""
    if level == 1:
        return BlockBasis(
            level=1,
            h_matrix=fixtures.fixture_h_m1(gamma),
            e_matrix=fixtures.fixture_e_m1(gamma),
        )
    if level == 2:
        return BlockBasis(
            level=2,
            h_matrix=fixtures.fixture_h_m2(gamma),
            e_matrix=fixtures.fixture_e_m2(gamma),
        )
    raise ValueError(f"closed-form realizations exist only for levels 1 and 2, got {level}")


def realize_level(level: int, gamma: complex, mode: str = "cholesky") -> BlockBasis:
    """One level's basis realization in a mode of `REALIZATION_MODES`.

    ``cholesky`` is `realize_basis_cholesky` of the overlap Gram matrix;
    ``fixture`` is `fixture_basis`, which needs real ``gamma > 0`` and
    ``level <= 2``.  Level 0 is the trivial block in every mode, taken
    from the Cholesky gauge.
    """
    if mode not in REALIZATION_MODES:
        raise ValueError(f"unknown realization mode {mode!r}")
    gamma = complex(gamma)
    if mode == "fixture":
        # fixture_basis sees only the real part, so the rest is refused here.
        if gamma.imag != 0.0 or not gamma.real > 0.0:
            raise ValueError("fixture mode requires real gamma > 0")
        if level != 0:
            return fixture_basis(level, gamma.real)
    return realize_basis_cholesky(gram_block(level, gamma))


def basis_from_h(level: int, h_matrix: np.ndarray) -> BlockBasis:
    """User-supplied primal family; the dual is taken as the inverse adjoint."""
    h = np.asarray(h_matrix, dtype=complex)
    e = np.linalg.inv(h).conj().T
    return BlockBasis(level=level, h_matrix=h, e_matrix=e)


def synthesize_ladders(basis: BlockBasis) -> tuple[np.ndarray, np.ndarray]:
    """Lowering/raising matrices acting on the basis by the square-root rule.

    ``a = H D_down H^-1`` and ``b = H D_up H^-1`` where ``D_down`` carries
    ``sqrt(k)`` on the superdiagonal, so ``a h_k = sqrt(k) h_{k-1}`` and
    ``b h_k = sqrt(k+1) h_{k+1}`` with ``a h_0 = b h_M = 0``.
    """
    h = basis.h_matrix
    d_down = lowering_matrix(basis.dim)
    h_inv = np.linalg.inv(h)
    if not np.all(np.isfinite(h_inv)):
        raise np.linalg.LinAlgError("basis matrix is numerically singular")
    a = h @ d_down @ h_inv
    b = h @ d_down.conj().T @ h_inv
    return a, b


def dual_basis_by_kernel(h_matrix: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dual family built from the kernel of ``b^+`` and repeated ``a^+``.

    ``e_0`` spans the null space of ``b^+`` (required one-dimensional),
    normalized against ``h_0``; then ``e_{k+1} = a^+ e_k / sqrt(k+1)``.
    The result is checked against the inverse adjoint of ``h_matrix``
    before being returned.
    """
    h = np.asarray(h_matrix, dtype=complex)
    dim = h.shape[0]
    _, svals, vh = np.linalg.svd(b.conj().T)
    if dim > 1:
        if svals[-2] <= KERNEL_GAP * max(svals[0], 1.0) or svals[-1] > KERNEL_GAP * svals[-2]:
            raise ValueError(
                "null space of the adjoint raising matrix is not "
                f"one-dimensional within tolerance: singular values {svals}"
            )
    e0 = vh[-1].conj()
    pairing = np.vdot(e0, h[:, 0])
    if abs(pairing) < POSITIVITY_TOL:
        raise ValueError("kernel vector is orthogonal to h_0; cannot normalize")
    e0 = e0 * (1.0 / pairing).conjugate()

    cols = [e0]
    a_dag = a.conj().T
    for k in range(dim - 1):
        cols.append(a_dag @ cols[-1] / math.sqrt(k + 1))
    e_kernel = np.column_stack(cols)

    e_expected = np.linalg.inv(h).conj().T
    if not relative_residual(e_kernel - e_expected, e_expected) <= DUAL_TOL:
        raise ValueError(
            "kernel-built dual family disagrees with the inverse-adjoint dual"
        )
    return e_kernel


def anticommutator_reference(level: int) -> np.ndarray:
    """Expected mixed-dyad diagonal ``(1, 3, ..., 2M-1, M)`` at level M."""
    return np.array([2 * k + 1 for k in range(level)] + [level], dtype=float)


def build_block_system(basis: BlockBasis) -> BlockSystem:
    """Derive every level operator from a basis realization.

    Raises `PositivityError` if the dual frame operator fails positive
    definiteness and ValueError if the mixed-dyad expansion of ``{a, b}``
    is not diagonal within tolerance.
    """
    h, e = basis.h_matrix, basis.e_matrix
    a, b = synthesize_ladders(basis)
    n_op = b @ a
    s_h = h @ h.conj().T
    s_e = e @ e.conj().T

    sqrt_s_e, inv_sqrt_s_e = _positive_sqrt_pair(s_e, "dual frame operator")

    n_selfadjoint = sqrt_s_e @ n_op @ inv_sqrt_s_e
    c_matrix = sqrt_s_e @ h

    anti = a @ b + b @ a
    mixed = e.conj().T @ anti @ h
    diagonal = np.real(np.diag(mixed)).copy()
    if not relative_residual(mixed - np.diag(diagonal), e, anti, h) <= EQUALITY_TOL:
        raise ValueError(
            "mixed-dyad expansion of the anticommutator is not diagonal: "
            f"defect {max_abs(mixed - np.diag(diagonal)):.3e}"
        )

    return BlockSystem(
        basis=basis,
        a=a,
        b=b,
        N=n_op,
        S_h=s_h,
        S_e=s_e,
        sqrt_S_e=sqrt_s_e,
        n_selfadjoint=n_selfadjoint,
        c_matrix=c_matrix,
        anticommutator_diagonal=diagonal,
    )


def verify_block_system(system: BlockSystem) -> dict[str, float]:
    """Relative residuals of every per-level identity, keyed by name.

    All entries are dimensionless; compare against `EQUALITY_TOL`.
    """
    basis = system.basis
    h, e = basis.h_matrix, basis.e_matrix
    dim = basis.dim
    eye = np.eye(dim)
    ladder = np.diag(np.arange(dim, dtype=float))
    a, b, n_op = system.a, system.b, system.N
    s_h, s_e = system.S_h, system.S_e
    root = system.sqrt_S_e
    herm = system.n_selfadjoint
    c = system.c_matrix
    inv_root = np.linalg.inv(root)
    d_down = lowering_matrix(dim)
    anti = a @ b + b @ a
    mixed = e.conj().T @ anti @ h

    nil_a = np.linalg.matrix_power(a, dim)
    nil_b = np.linalg.matrix_power(b, dim)
    eig_n = np.sort(np.linalg.eigvalsh(herm))

    return {
        "nilpotency_a": relative_residual(nil_a, *([a] * dim)),
        "nilpotency_b": relative_residual(nil_b, *([b] * dim)),
        "biorthonormality": relative_residual(e.conj().T @ h - eye, e, h),
        "ladder_action_a": relative_residual(a @ h - h @ d_down, a, h),
        "ladder_action_b": relative_residual(b @ h - h @ d_down.conj().T, b, h),
        "spectrum_N": relative_residual(n_op @ h - h @ ladder, n_op, h),
        "spectrum_N_adjoint": relative_residual(
            n_op.conj().T @ e - e @ ladder, n_op, e
        ),
        "inverse_pair": relative_residual(s_h @ s_e - eye, s_h, s_e),
        "intertwining_e": relative_residual(s_e @ n_op - n_op.conj().T @ s_e, s_e, n_op),
        "intertwining_h": relative_residual(n_op @ s_h - s_h @ n_op.conj().T, s_h, n_op),
        "map_h_to_e": relative_residual(s_e @ h - e, s_e, h),
        "map_e_to_h": relative_residual(s_h @ e - h, s_h, e),
        "resolution_eh": relative_residual(e @ h.conj().T - eye, e, h),
        "resolution_he": relative_residual(h @ e.conj().T - eye, h, e),
        "sqrt_consistency": relative_residual(root @ root - s_e, root, root),
        "n_hermiticity": relative_residual(
            herm - herm.conj().T, root, n_op, inv_root
        ),
        "n_spectrum": relative_residual(
            eig_n - np.arange(dim, dtype=float), root, n_op, inv_root
        ),
        "n_eigenbasis": relative_residual(herm @ c - c @ ladder, herm, c),
        # c is formed as sqrt_S_e @ h, so its backward error scales with
        # that factor product, not with the O(1) entries of c itself.
        "c_orthonormality": relative_residual(c.conj().T @ c - eye, root, h, root, h),
        "anticommutator_offdiag": relative_residual(
            mixed - np.diag(np.real(np.diag(mixed))), e, anti, h
        ),
        "anticommutator_values": relative_residual(
            system.anticommutator_diagonal - anticommutator_reference(basis.level),
            e, anti, h,
        ),
    }


@dataclass(frozen=True)
class DeformedLevelOperators:
    """Deformed number operators restricted to one total level.

    Matrices are written in the orthonormal product basis of the level,
    columns ordered by increasing second-mode occupation.  ``h_total``
    acts as ``level`` times the identity on the level subspace even
    though ``m1`` and ``m2`` separately are non-normal.
    """

    level: int
    gamma: complex
    m1: np.ndarray
    m2: np.ndarray
    h_total: np.ndarray
    action_residual: float
    commutator_residual: float

    def __post_init__(self):
        for name in ("m1", "m2", "h_total"):
            arr = np.asarray(getattr(self, name))
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def deformed_number_operators(params: NCBosonParams, level: int) -> DeformedLevelOperators:
    """Build and certify the deformed per-mode number operators at one level.

    The pair ``M1 = (N1 - gamma A1^+ A2) / (1 - |gamma|^2)`` and its
    mirror ``M2`` are forms ``Sum_pq K_pq a_p^+ a_q`` that keep the total
    level.  On level ``n`` each is the derived representation of its 2x2
    ``K``: tridiagonal on ``|n - j, j>``, diagonal ``K_xx (n - j) + K_yy j``,
    off-diagonals ``sqrt((n - j + 1) j)`` times ``K_xy`` (above) and
    ``K_yx`` (below).  On every level up to ``level`` the Fock expansion
    of each excitation, one `sym_power` call per level, is checked to be
    an eigenvector with the per-mode count as eigenvalue, and ``[M1, M2]``
    is checked to vanish on each whole level, untruncated.  Raises
    ValueError if either certification fails.
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
        action = max(
            action,
            relative_residual(m1 @ vecs - vecs * (total - j), m1, vecs),
            relative_residual(m2 @ vecs - vecs * j, m2, vecs),
            relative_residual(h @ vecs - total * vecs, h, vecs),
        )
        commutator = max(commutator, relative_residual(m1 @ m2 - m2 @ m1, m1, m2))
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
