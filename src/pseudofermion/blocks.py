"""Per-level biorthogonal systems and their ladder-operator algebra.

Each total excitation level ``M`` carries an ``(M + 1)``-dimensional space
spanned by a non-orthogonal family ``h_0 .. h_M`` realizing the overlap
Gram matrix of module `overlaps`.  From any such realization this module
synthesizes nilpotent lowering/raising matrices ``a, b`` with
``a^(M+1) = b^(M+1) = 0``, a non-self-adjoint number operator ``N = b a``,
the positive frame operators ``S_h = H H^+`` and ``S_e = E E^+`` that
intertwine ``N`` with its adjoint, and the orthonormal basis obtained by
symmetrizing with the positive square root of ``S_e``.

The production realization is the Cholesky gauge,
`realize_basis_cholesky`, whose upper triangular factor
`overlaps.gram_block` supplies in closed form.  The closed-form
level-1/level-2 choices of module `fixtures` (`fixture_basis`) and
pairs given to `BlockBasis` directly are reference realizations.  All
yield the same spectra and the same mixed-dyad anticommutator diagonal
``(1, 3, 5, ..., 2M-1, M)``; only level 1 gives ``{a, b} = 1``.  No
function here takes a tolerance argument.

Error model: a Cholesky level at ``gamma`` is built and certified once, at
``|gamma|``.  The positivity gate reads the exact least Gram eigenvalue
``(1 - |gamma|)^M``, and every check of `verify_block_system` runs on that
core, in float64 from ``N = b a`` on, so the level's residuals and verdicts
depend on ``(|gamma|, M)`` alone.  The ladder and spectrum identities read
``x D``, ``x D^+`` (``D`` the ``sqrt(k)`` shift) and ``x diag(0..M)`` as
shifted, scaled columns, bit for bit the dense products.  The roots of
``S_e`` come from one SVD of ``h``, never from the formed ``S_e``, so
`PositivityError` comes only from the gate or from an ``h`` singular in
float64.  Each matrix read at ``gamma``, like the Gram block, is the core
times the weights ``gamma^d / |gamma|^d`` of `overlaps.phase_gauge`: 30 eps
from exact, and exactly ``+-1`` at ``gamma < 0``.
"""

from __future__ import annotations

import math

import numpy as np

from . import fixtures
from .overlaps import (
    GramBlock, NCBosonParams, _check_level, _Record, dsym, phase_gauge, sym_powers,
)

# Relative residual ceiling for equality checks; positivity is an absolute
# eigenvalue floor.  Dense double-precision algebra at dimension <= 10.
EQUALITY_TOL = 1e-10
POSITIVITY_TOL = 1e-12

# Relative ceiling on the biorthonormality defect e^+ h - 1 of a supplied
# pair.  A guard on inputs, not a certification.
DUAL_TOL = 1e-8

# A kernel is accepted as one-dimensional when the smallest singular value
# sits below this fraction of the next one.
KERNEL_GAP = 1e-6


class PositivityError(ValueError):
    """A matrix required to be positive definite is not, within tolerance."""


def max_abs(matrix: np.ndarray) -> float:
    """Largest entry magnitude; zero for empty arrays."""
    arr = np.asarray(matrix)
    return float(np.abs(arr).max()) if arr.size else 0.0


def relative_residual(defect: np.ndarray, *references: np.ndarray | float) -> float:
    """Max-norm of ``defect`` scaled by the product of reference norms.

    Each reference is an array, whose max-norm is taken, or a float norm
    already taken, which enters as its magnitude.  The scale is floored at
    1, so well-conditioned checks reduce to the absolute max-norm while
    ill-conditioned factor products relax the comparison the way
    backward-stable algebra actually behaves.
    """
    scale = 1.0
    for ref in references:
        scale *= abs(ref) if isinstance(ref, float) else max_abs(ref)
    return max_abs(defect) / max(1.0, scale)


def _worst_level(defect: np.ndarray, scale: np.ndarray) -> float:
    # `relative_residual` of every level slice of a stack, each against its
    # own scale (the product of that level's norms); the worst level.
    return float((np.abs(defect).max(axis=(1, 2)) / np.maximum(1.0, scale)).max())


class _AtGamma:
    # A level matrix read at gamma, derived on every read from the |gamma|
    # ``core`` through `phase_gauge`.

    def __init__(self, shift: int = 0):
        self.shift = shift

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        return phase_gauge(obj.core[self.name], obj.gamma, self.shift)


def _read_only(matrix) -> np.ndarray:
    arr = np.asarray(matrix)
    arr.setflags(write=False)
    return arr


class BlockBasis(_Record):
    """A biorthogonal pair of vector families at one level.

    Column ``k`` of ``h_matrix`` is the primal vector ``h_k``; column ``k``
    of ``e_matrix`` is its dual ``e_k``, normalized so that
    ``e_matrix^+ h_matrix = 1``.  Both are read from ``core`` at ``gamma``
    (`overlaps.phase_gauge`): given matrices are validated and copied into
    their own core, read as they are; `realize_basis_cholesky` hands over
    its ``|gamma|`` core as it is, certified by `verify_block_system`.
    Given neither, or both, it raises ValueError.
    """

    h_matrix = _AtGamma()
    e_matrix = _AtGamma()

    def __init__(self, level: int, h_matrix: np.ndarray | None = None,
                 e_matrix: np.ndarray | None = None, core: dict | None = None,
                 gamma: complex = 0.0):
        given = [name for name, value in zip(("h_matrix", "e_matrix", "core", "gamma"),
                                             (h_matrix, e_matrix, core, gamma or None))
                 if value is not None]
        if given not in (["h_matrix", "e_matrix"], ["core"], ["core", "gamma"]):
            raise ValueError("BlockBasis takes an h_matrix, e_matrix pair or a core at a "
                             f"gamma, got {', '.join(given) or 'neither'}")
        if core is None:
            dim = level + 1
            h, e = np.array(h_matrix, dtype=complex), np.array(e_matrix, dtype=complex)
            if h.shape != (dim, dim) or e.shape != (dim, dim):
                raise ValueError(
                    f"level {level} needs {dim}x{dim} matrices, "
                    f"got {h.shape} and {e.shape}"
                )
            defect = e.conj().T @ h - np.eye(dim)
            if not relative_residual(defect, e, h) <= DUAL_TOL:
                raise ValueError(
                    "families are not biorthonormal: "
                    f"max |<e_j, h_k> - delta_jk| = {max_abs(defect):.3e}"
                )
            core = {"h_matrix": _read_only(h), "e_matrix": _read_only(e)}
        vars(self).update(level=level, core=core, gamma=gamma)

    @property
    def dim(self) -> int:
        return self.level + 1


class BlockSystem(_Record):
    """All level operators derived from one basis realization.

    ``N = b a`` satisfies ``N h_k = k h_k``; ``S_h = H H^+`` and
    ``S_e = E E^+`` are positive, mutually inverse, and intertwine ``N``
    with ``N^+``; ``n_selfadjoint`` is the Hermitian form of ``N`` and
    ``c_matrix`` holds its orthonormal eigenvectors.
    ``anticommutator_diagonal`` lists the coefficients of ``{a, b}`` in
    the mixed dyad expansion over ``|e_k><h_k|``.  Each matrix is read from
    ``core`` at the basis gamma; ``core`` also holds the basis pair,
    ``inv_sqrt_S_e``, ``{a, b}`` and ``e^+ {a, b} h`` for the checks, and
    ``sigma_h``, the descending singular values of ``h`` that form both roots.
    The matrices are not constructor fields: what is reported is always
    the core that `verify_block_system` certifies.
    """

    a = _AtGamma(-1)
    b = _AtGamma(1)
    N = _AtGamma()
    S_h = _AtGamma()
    S_e = _AtGamma()
    sqrt_S_e = _AtGamma()
    n_selfadjoint = _AtGamma()
    c_matrix = _AtGamma()

    def __init__(self, basis: BlockBasis, core: dict, anticommutator_diagonal: np.ndarray):
        vars(self).update(basis=basis, core=core, anticommutator_diagonal=anticommutator_diagonal)

    @property
    def gamma(self) -> complex:
        return self.basis.gamma

    @property
    def level(self) -> int:
        return self.basis.level


def realize_basis_cholesky(gram: GramBlock) -> BlockBasis:
    """Upper-triangular basis realization of an overlap Gram matrix.

    ``h_matrix`` is the Cholesky factor ``gram.factor``, taken from its
    closed form rather than by factoring the Gram matrix: upper triangular
    with positive diagonal and ``h_matrix^+ h_matrix`` equal to the Gram
    matrix.  The dual family is the inverse adjoint.  The core holds
    ``gram.core_factor`` itself and that inverse adjoint, at ``|gamma|``,
    read at ``gamma`` through `overlaps.phase_gauge`.  The Gram matrix is
    never formed: the gate reads its exact least eigenvalue
    ``(1 - |gamma|)^M`` and raises `PositivityError` when that is not above
    `POSITIVITY_TOL`, so the verdict depends on ``(|gamma|, M)`` alone.
    """
    min_eig = gram.min_eigenvalue()
    if min_eig <= POSITIVITY_TOL:
        raise PositivityError(
            f"gram matrix at level {gram.level} is not positive definite "
            f"within tolerance: min eigenvalue {min_eig:.3e} "
            "(deformation magnitude too close to 1)"
        )
    h = gram.core_factor
    core = {"h_matrix": h, "e_matrix": _read_only(np.conj(np.linalg.inv(h).T, order="C"))}
    return BlockBasis(gram.level, core=core, gamma=gram.gamma)


def fixture_basis(level: int, gamma: float) -> BlockBasis:
    """The closed-form level-1 or level-2 realization at real ``gamma > 0``."""
    pairs = {1: (fixtures.fixture_h_m1, fixtures.fixture_e_m1),
             2: (fixtures.fixture_h_m2, fixtures.fixture_e_m2)}
    if level not in pairs:
        raise ValueError(f"closed-form realizations exist only for levels 1 and 2, got {level}")
    h, e = pairs[level]
    return BlockBasis(level, h(gamma), e(gamma))


def _ladder_shifts(x: np.ndarray) -> np.ndarray:
    # x D and x D^+ stacked, D the sqrt(k) superdiagonal: the columns of x
    # shifted right (left) by one and scaled by sqrt(k), bit for bit.
    root = np.sqrt(np.arange(1, len(x)))
    shifted = np.zeros((2, *x.shape), dtype=x.dtype)
    shifted[0, :, 1:], shifted[1, :, :-1] = x[:, :-1] * root, x[:, 1:] * root
    return shifted


def dual_basis_by_kernel(h_matrix: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dual family built from the kernel of ``b^+`` and repeated ``a^+``.

    ``e_0`` spans the null space of ``b^+`` (required one-dimensional),
    normalized against ``h_0``; then ``e_{k+1} = a^+ e_k / sqrt(k+1)``.
    Raises ValueError when that kernel is not one-dimensional or is
    orthogonal to ``h_0``.  The result is not compared with the inverse
    adjoint of ``h_matrix`` here; `pfl verify-fixtures` reports that
    defect as ``m{L}:kernel_dual``.
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
    return np.column_stack(cols)


def anticommutator_reference(level: int) -> np.ndarray:
    """Expected mixed-dyad diagonal ``(1, 3, ..., 2M-1, M)`` at level M."""
    return np.array([2 * k + 1 for k in range(level)] + [level], dtype=float)


def build_block_system(basis: BlockBasis) -> BlockSystem:
    """Derive every level operator from the basis core.

    The ladders are complex products; from ``N = b a`` on, a real core (the
    Cholesky gauge at ``|gamma|``) runs in float64 on the real parts, which
    is exact.  ``anticommutator_diagonal`` is the real diagonal of the
    mixed-dyad expansion ``e^+ {a, b} h``; its off-diagonal part is
    reported by `verify_block_system` as ``anticommutator_offdiag``.
    ``sqrt_S_e = U Sigma^-1 U^+`` and its inverse ``U Sigma U^+`` come from one
    SVD ``h = U Sigma V^+``, as ``S_e = (h h^+)^-1`` to `DUAL_TOL`; the formed
    ``S_e``, of condition ``kappa(h)^2``, is never factored.  Raises
    `PositivityError`, naming the least singular value, if ``h`` is singular:
    that value is below the smallest normal number, whose reciprocal overflows.
    """
    h, e = basis.core["h_matrix"], basis.core["e_matrix"]
    # a = (h D) e^+ and b = (h D^+) e^+: sum sqrt(k) |h_(k-1)><e_k| and its mirror.
    a, b = _ladder_shifts(h) @ e.conj().T
    if not (h.imag.any() or e.imag.any()):
        h, e, a, b = (np.ascontiguousarray(m.real) for m in (h, e, a, b))
    n_op = b @ a
    u, sigma, _ = np.linalg.svd(h)
    if not sigma[-1] >= np.finfo(float).tiny:
        raise PositivityError(f"primal family h is singular: least singular value {sigma[-1]:.3e}")
    root, inv_root = (u / sigma) @ u.conj().T, (u * sigma) @ u.conj().T
    anti = a @ b + n_op
    core = dict(
        h_matrix=h, e_matrix=e, a=a, b=b, N=n_op, S_h=h @ h.conj().T, S_e=e @ e.conj().T,
        sqrt_S_e=root, inv_sqrt_S_e=inv_root, sigma_h=sigma,
        n_selfadjoint=root @ n_op @ inv_root, c_matrix=root @ h,
        anticommutator=anti, mixed=e.conj().T @ anti @ h,
    )
    for m in core.values():
        m.setflags(write=False)
    diagonal = _read_only(np.real(np.diag(core["mixed"])).copy())
    return BlockSystem(basis=basis, core=core, anticommutator_diagonal=diagonal)


def verify_block_system(system: BlockSystem) -> dict[str, float]:
    """Relative residuals of every per-level identity, keyed by name.

    All entries are dimensionless; compare against `EQUALITY_TOL`.  Only
    ``system.core`` is read, by the keys `build_block_system` gives it.
    """
    h, e, a, b, n_op, s_h, s_e, root, inv_root, herm, c, anti, mixed = (
        system.core[k] for k in ("h_matrix", "e_matrix", "a", "b", "N", "S_h", "S_e",
        "sqrt_S_e", "inv_sqrt_S_e", "n_selfadjoint", "c_matrix", "anticommutator", "mixed"))
    dim = system.basis.dim
    eye = np.eye(dim)
    h_down, h_up = _ladder_shifts(h)
    k = np.arange(dim, dtype=float)

    nil_a, nil_b = np.linalg.matrix_power(np.stack((a, b)), dim)
    eig_n = np.linalg.eigvalsh(herm)  # ascending, as numpy returns them

    # Each factor's max-norm is taken once and passed on as a float.
    na, nb, nh, ne, nn = (max_abs(m) for m in (a, b, h, e, n_op))
    ns_h, ns_e, nroot, ninv = (max_abs(m) for m in (s_h, s_e, root, inv_root))
    nherm, nc, nanti = (max_abs(m) for m in (herm, c, anti))

    return {
        "nilpotency_a": relative_residual(nil_a, *([na] * dim)),
        "nilpotency_b": relative_residual(nil_b, *([nb] * dim)),
        "biorthonormality": relative_residual(e.conj().T @ h - eye, ne, nh),
        "ladder_action_a": relative_residual(a @ h - h_down, na, nh),
        "ladder_action_b": relative_residual(b @ h - h_up, nb, nh),
        "spectrum_N": relative_residual(n_op @ h - h * k, nn, nh),
        "spectrum_N_adjoint": relative_residual(n_op.conj().T @ e - e * k, nn, ne),
        "inverse_pair": relative_residual(s_h @ s_e - eye, ns_h, ns_e),
        "intertwining_e": relative_residual(s_e @ n_op - n_op.conj().T @ s_e, ns_e, nn),
        "intertwining_h": relative_residual(n_op @ s_h - s_h @ n_op.conj().T, ns_h, nn),
        "map_h_to_e": relative_residual(s_e @ h - e, ns_e, nh),
        "map_e_to_h": relative_residual(s_h @ e - h, ns_h, ne),
        "resolution_eh": relative_residual(e @ h.conj().T - eye, ne, nh),
        "resolution_he": relative_residual(h @ e.conj().T - eye, nh, ne),
        "sqrt_consistency": relative_residual(root @ root - s_e, nroot, nroot),
        "n_hermiticity": relative_residual(herm - herm.conj().T, nroot, nn, ninv),
        "n_spectrum": relative_residual(eig_n - k, nroot, nn, ninv),
        "n_eigenbasis": relative_residual(herm @ c - c * k, nherm, nc),
        # c is formed as sqrt_S_e @ h, so its backward error scales with
        # that factor product, not with the O(1) entries of c itself.
        "c_orthonormality": relative_residual(c.conj().T @ c - eye, nroot, nh, nroot, nh),
        "anticommutator_offdiag": relative_residual(
            mixed - np.diag(system.anticommutator_diagonal), ne, nanti, nh
        ),
        "anticommutator_values": relative_residual(
            system.anticommutator_diagonal - anticommutator_reference(system.level),
            ne, nanti, nh,
        ),
    }


class DeformedLevelOperators(_Record):
    """Deformed number operators restricted to one total level.

    Matrices are written in the orthonormal product basis of the level,
    columns ordered by increasing second-mode occupation.  ``h_total``
    acts as ``level`` times the identity on the level subspace even
    though ``m1`` and ``m2`` separately are non-normal.
    """

    def __init__(self, level: int, gamma: complex, m1: np.ndarray, m2: np.ndarray,
                 h_total: np.ndarray, action_residual: float, commutator_residual: float):
        vars(self).update(level=level, gamma=gamma, m1=_read_only(m1), m2=_read_only(m2),
                          h_total=_read_only(h_total), action_residual=action_residual,
                          commutator_residual=commutator_residual)


def deformed_number_operators(params: NCBosonParams, level: int) -> DeformedLevelOperators:
    """Build and certify the deformed per-mode number operators at one level.

    The pair ``M1 = (N1 - gamma A1^+ A2) / (1 - |gamma|^2)`` and its
    mirror ``M2`` are forms ``Sum_pq K_pq a_p^+ a_q`` that keep the total
    level: on level ``n`` each is ``dSym^n(K)`` of its 2x2 ``K``, tridiagonal
    on ``|n - j, j>``, built for every ``n <= level`` by `overlaps.dsym`.  In
    one batched pass over these zero-padded stacks, the Fock expansions of
    every level's excitations (`overlaps.sym_powers`, by the creation-operator
    recurrence) are checked to be eigenvectors with the per-mode counts as
    eigenvalues, and ``[M1, M2]`` to vanish on each whole level; each level's
    residuals are scaled by its own norms.  Raises ValueError for a level
    that is not an integer in ``[0, LEVEL_CAP]``, before any level is built,
    or if either certification fails.
    """
    _check_level(level)
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
    m1, m2 = dsym(np.stack([k1, k2]), level)
    h = m1 + m2
    vecs = sym_powers(np.column_stack([alpha, beta]).conj(), level)

    total = np.arange(level + 1)[:, None, None]
    j = np.arange(level + 1)
    norm_1, norm_2, norm_h, norm_v = (np.abs(x).max(axis=(1, 2)) for x in (m1, m2, h, vecs))
    # Each residual is formed in place, in two level stacks reused by all.
    residual, term = np.empty_like(vecs), np.empty_like(vecs)
    defects = []
    for op, count, norm in ((m1, total - j, norm_1), (m2, j, norm_2), (h, total, norm_h)):
        np.matmul(op, vecs, out=residual)
        residual -= np.multiply(vecs, count, out=term)
        defects.append(_worst_level(residual, norm * norm_v))
    action = max(defects)
    np.matmul(m1, m2, out=residual)
    residual -= np.matmul(m2, m1, out=term)
    commutator = _worst_level(residual, norm_1 * norm_2)
    if not action <= EQUALITY_TOL:
        raise ValueError(f"deformed number operator action defect {action:.3e}")
    if not commutator <= EQUALITY_TOL:
        raise ValueError(f"deformed number operators do not commute: {commutator:.3e}")

    return DeformedLevelOperators(
        level=level,
        gamma=gamma,
        m1=m1[level].copy(),
        m2=m2[level].copy(),
        h_total=h[level].copy(),
        action_residual=action,
        commutator_residual=commutator,
    )
