"""Dressed biorthogonal state families over an interval and their quadrature.

Starting from orthonormal functions ``phi_n`` on ``[x_lo, x_hi]`` and a
real dressing ``alpha(x)``, the two function families ``Phi_n = e^alpha
phi_n`` and ``Psi_n = e^{-alpha} phi_n`` stay biorthogonal because the
dressing cancels in every mixed product.  Pairing them with a biorthogonal
vector pair ``e_n, h_n`` produces two x-parametrized states

    e(x) = (1 / sqrt(Ntilde(x))) sum_n Phi_n(x) e_n,
    h(x) = (1 / sqrt(Ntilde(x))) sum_n Psi_n(x) h_n,

normalized by ``Ntilde(x) = sum_n conj(Phi_n(x)) Psi_n(x)``, which is
dressing-independent and strictly positive.  Their mixed dyads resolve the
identity under the interval measure; Gauss quadrature makes that exact at
finite order for the polynomial default family, and the same quadrature
maps classical functions to operators (upper symbols).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from numpy.polynomial.legendre import leggauss, legvander

from .blocks import BlockBasis, max_abs, relative_residual

DEFAULT_QUAD_ORDER = 64

# Guard threshold for user-supplied families; the default construction
# sits many orders below it.
FAMILY_TOL = 1e-8


def normalized_legendre(n_states: int, x_lo: float = -1.0, x_hi: float = 1.0) -> Callable:
    """Orthonormal Legendre-type polynomial family on an interval.

    Returns a callable mapping a 1-d array of points to the
    ``(len(x), n_states)`` matrix of function values, orthonormal under
    the unit-weight inner product on ``[x_lo, x_hi]``.
    """
    if n_states < 1:
        raise ValueError(f"n_states must be >= 1, got {n_states}")
    span = x_hi - x_lo
    scale = np.sqrt((2.0 * np.arange(n_states) + 1.0) / span)

    def phi(x: np.ndarray) -> np.ndarray:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        t = 2.0 * (x - x_lo) / span - 1.0
        return legvander(t, n_states - 1) * scale

    return phi


def _zero_dressing(x: np.ndarray) -> np.ndarray:
    return np.zeros_like(np.asarray(x, dtype=float))


@dataclass(frozen=True)
class BicoherentFamily:
    """Interval, function family, dressing, and vector bases in one bundle.

    ``phi_fn`` maps points to the ``(len(x), n_states)`` value matrix;
    ``alpha_fn`` maps points to real dressing exponents.  Column ``n`` of
    ``h_matrix`` / ``e_matrix`` is the vector attached to ``phi_n``.
    """

    n_states: int
    x_lo: float
    x_hi: float
    phi_fn: Callable
    alpha_fn: Callable
    h_matrix: np.ndarray
    e_matrix: np.ndarray
    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        for name in ("h_matrix", "e_matrix", "nodes", "weights"):
            arr = np.asarray(getattr(self, name))
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def _dressed_values(family: BicoherentFamily, xs: np.ndarray):
    # Returns (Phi, Psi, Ntilde) at the given points, validating shape,
    # realness of the dressing, and positivity of the normalizer.
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    values = np.asarray(family.phi_fn(xs))
    if values.shape != (xs.size, family.n_states):
        raise ValueError(
            f"function family returned shape {values.shape}, "
            f"expected {(xs.size, family.n_states)}"
        )
    alpha = np.asarray(family.alpha_fn(xs))
    if alpha.shape != xs.shape:
        raise ValueError(f"dressing returned shape {alpha.shape}, expected {xs.shape}")
    if np.iscomplexobj(alpha) and np.any(np.abs(alpha.imag) > 0.0):
        raise ValueError("dressing function must be real-valued")
    alpha = alpha.real.astype(float)
    # A dressing that overflows leaves a NaN or infinite normalizer, which
    # the guard rejects: each of its comparisons fails on NaN.
    with np.errstate(over="ignore", invalid="ignore"):
        phi_d = np.exp(alpha)[:, None] * values
        psi_d = np.exp(-alpha)[:, None] * values
        ntilde = np.sum(np.conj(phi_d) * psi_d, axis=1)
    bad = ~(np.abs(ntilde.imag) <= 1e-12 * np.maximum(1.0, np.abs(ntilde.real))) | ~(
        (0.0 < ntilde.real) & (ntilde.real < np.inf)
    )
    if np.any(bad):
        raise ValueError(
            f"state normalizer must be finite and strictly positive, got {ntilde[bad][0]} "
            f"at x = {xs[bad][0]}"
        )
    return phi_d, psi_d, ntilde.real


def build_family(
    n_states: int,
    phi_fn: Callable | None = None,
    alpha_fn: Callable | None = None,
    basis: BlockBasis | Sequence[np.ndarray] | None = None,
    quad_order: int = DEFAULT_QUAD_ORDER,
    domain: tuple[float, float] = (-1.0, 1.0),
) -> BicoherentFamily:
    """Assemble a family and certify its quadrature biorthogonality.

    Defaults: orthonormal Legendre-type functions, zero dressing, the
    self-dual orthonormal vector basis, and Gauss quadrature with
    ``quad_order`` nodes on ``domain``.  Raises ValueError if the mixed
    function overlaps fail to reproduce the identity under the chosen
    quadrature (insufficient order for a user-supplied family) or if the
    normalizer fails positivity at any node.
    """
    if n_states < 1:
        raise ValueError(f"n_states must be >= 1, got {n_states}")
    if quad_order < 1:
        raise ValueError(f"quad_order must be >= 1, got {quad_order}")
    x_lo, x_hi = float(domain[0]), float(domain[1])
    if not x_lo < x_hi:
        raise ValueError(f"empty domain: {domain}")

    if phi_fn is None:
        phi_fn = normalized_legendre(n_states, x_lo, x_hi)
    if alpha_fn is None:
        alpha_fn = _zero_dressing

    if basis is None:
        h = np.eye(n_states, dtype=complex)
        e = np.eye(n_states, dtype=complex)
    elif isinstance(basis, BlockBasis):
        if basis.dim != n_states:
            raise ValueError(
                f"vector basis dimension {basis.dim} does not match n_states {n_states}"
            )
        h, e = basis.h_matrix, basis.e_matrix
    else:
        h, e = (np.asarray(m, dtype=complex) for m in basis)
        if h.shape != (n_states, n_states) or e.shape != (n_states, n_states):
            raise ValueError("vector basis matrices must be square of size n_states")
        if not relative_residual(e.conj().T @ h - np.eye(n_states), e, h) <= FAMILY_TOL:
            raise ValueError("vector families are not biorthonormal")

    base_nodes, base_weights = leggauss(quad_order)
    nodes = 0.5 * (x_hi + x_lo) + 0.5 * (x_hi - x_lo) * base_nodes
    weights = 0.5 * (x_hi - x_lo) * base_weights

    family = BicoherentFamily(
        n_states=n_states,
        x_lo=x_lo,
        x_hi=x_hi,
        phi_fn=phi_fn,
        alpha_fn=alpha_fn,
        h_matrix=h,
        e_matrix=e,
        nodes=nodes,
        weights=weights,
    )

    phi_d, psi_d, _ = _dressed_values(family, nodes)
    overlaps = (np.conj(psi_d) * weights[:, None]).T @ phi_d
    if not max_abs(overlaps - np.eye(n_states)) <= FAMILY_TOL:
        raise ValueError(
            "function families are not biorthonormal under the quadrature "
            f"(defect {max_abs(overlaps - np.eye(n_states)):.3e}); "
            "raise quad_order or fix the family"
        )
    return family


def states_at(family: BicoherentFamily, x: float) -> tuple[np.ndarray, np.ndarray]:
    """The dressed state pair at one point; always ``<e(x), h(x)> = 1``."""
    x = float(x)
    slack = 1e-12 * max(1.0, abs(family.x_lo), abs(family.x_hi))
    if not family.x_lo - slack <= x <= family.x_hi + slack:
        raise ValueError(f"x = {x} outside domain [{family.x_lo}, {family.x_hi}]")
    phi_d, psi_d, ntilde = _dressed_values(family, np.array([x]))
    root = np.sqrt(ntilde[0])
    e_state = family.e_matrix @ phi_d[0] / root
    h_state = family.h_matrix @ psi_d[0] / root
    return e_state, h_state


def _integrate_dyads(family: BicoherentFamily, factors: np.ndarray) -> np.ndarray:
    # sum_q w_q factor_q Ntilde_q |e(x_q)><h(x_q)|.  The normalizer cancels
    # against the 1/sqrt(Ntilde) of each state, which leaves
    # E (Phi^T diag(w factor) conj(Psi)) H^+; it is still evaluated so that
    # its positivity is validated at every node.
    phi_d, psi_d, _ = _dressed_values(family, family.nodes)
    weighted = phi_d.T * (family.weights * factors)
    return family.e_matrix @ (weighted @ psi_d.conj()) @ family.h_matrix.conj().T


def resolution_of_identity(family: BicoherentFamily) -> tuple[np.ndarray, float]:
    """Quadrature sum of the mixed dyads and its max-norm defect from identity."""
    operator = _integrate_dyads(family, np.ones(family.nodes.size))
    residual = max_abs(operator - np.eye(family.n_states))
    return operator, residual


def upper_symbol(family: BicoherentFamily, classical_fn: Callable) -> np.ndarray:
    """Operator assigned to a classical function by the dyad quadrature.

    ``classical_fn`` is evaluated on the quadrature nodes (vectorized over
    a 1-d array).
    """
    values = np.asarray(classical_fn(family.nodes))
    if values.shape == ():
        values = np.full(family.nodes.size, complex(values))
    if values.shape != family.nodes.shape:
        raise ValueError(
            f"classical function returned shape {values.shape}, "
            f"expected {family.nodes.shape}"
        )
    return _integrate_dyads(family, values)
