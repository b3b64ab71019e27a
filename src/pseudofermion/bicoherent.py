"""Dressed biorthogonal state families on ``[-1, 1]`` and their quadrature.

Starting from the orthonormal Legendre functions ``phi_n`` on ``[-1, 1]``
and a real dressing ``alpha(x)``, the two function families ``Phi_n = e^alpha
phi_n`` and ``Psi_n = e^{-alpha} phi_n`` stay biorthogonal because the
dressing cancels in every mixed product.  Their values at a point, scaled
to unit pairing, are two x-parametrized states

    e(x) = Phi(x) / sqrt(Ntilde(x)),    h(x) = Psi(x) / sqrt(Ntilde(x)),

real coefficient rows on the orthonormal basis, normalized by
``Ntilde(x) = sum_n Phi_n(x) Psi_n(x)``, which is dressing-independent and
strictly positive.  Their mixed dyads resolve the identity under the unit
measure; Gauss-Legendre quadrature makes that exact at finite order for the
polynomial family, and the same quadrature maps classical functions to
operators (upper symbols).  A family holds no vector pair: a level's pair
``E, H`` composes with it by one product, the states ``rows @ E.T`` and the
operator ``E R H^+``.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .blocks import _read_only, max_abs
from .overlaps import _Record

DEFAULT_QUAD_ORDER = 64

# Ceiling on the quadrature's biorthonormality defect; a quadrature of at
# least ``n_states`` nodes sits many orders below it.
FAMILY_TOL = 1e-8

# Allowance for rounding: how far a point may lie beyond ``-1`` or ``1``.
ROUNDING_SLACK = 1e-12


def normalized_legendre(n_states: int) -> Callable:
    """The orthonormal Legendre polynomials of degree below ``n_states``.

    Returns a callable mapping a 1-d array of points to the
    ``(len(x), n_states)`` matrix of function values, orthonormal under
    the unit-weight inner product on ``[-1, 1]``.
    """
    if n_states < 1:
        raise ValueError(f"n_states must be >= 1, got {n_states}")
    # Imported where used: a caller that evaluates no family never loads it.
    from numpy.polynomial.legendre import legvander
    scale = np.sqrt((2.0 * np.arange(n_states) + 1.0) / 2.0)

    def phi(x: np.ndarray) -> np.ndarray:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        # (x + 1) - 1 rounds x to the grid of x + 1; the reports' bits
        # depend on that rounding.
        return legvander((x + 1.0) - 1.0, n_states - 1) * scale

    return phi


def _zero_dressing(x: np.ndarray) -> np.ndarray:
    return np.zeros_like(np.asarray(x, dtype=float))


class BicoherentFamily(_Record):
    """Dressing and quadrature of a family in one bundle.

    The functions are the ``n_states`` orthonormal Legendre polynomials on
    ``[-1, 1]`` (`normalized_legendre`); ``alpha_fn`` maps points to real
    dressing exponents.  ``nodes`` and ``weights`` are the Gauss-Legendre
    rule; ``phi_nodes`` and ``psi_nodes`` are the dressed ``Phi`` and ``Psi``
    at the nodes, one node per row, as `build_family` validated them.
    """

    def __init__(self, n_states: int, alpha_fn: Callable, nodes: np.ndarray,
                 weights: np.ndarray, phi_nodes: np.ndarray, psi_nodes: np.ndarray):
        vars(self).update(n_states=n_states, alpha_fn=alpha_fn, nodes=_read_only(nodes),
                          weights=_read_only(weights), phi_nodes=_read_only(phi_nodes),
                          psi_nodes=_read_only(psi_nodes))


def _dressed_values(n_states: int, alpha_fn: Callable, xs: np.ndarray):
    # Returns (Phi, Psi, Ntilde) at the given points, validating the
    # dressing's shape and realness and the normalizer's positivity.
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    values = normalized_legendre(n_states)(xs)
    alpha = np.asarray(alpha_fn(xs))
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
        ntilde = np.sum(phi_d * psi_d, axis=1)
    bad = ~((0.0 < ntilde) & (ntilde < np.inf))
    if np.any(bad):
        raise ValueError(
            f"state normalizer must be finite and strictly positive, got {ntilde[bad][0]} "
            f"at x = {xs[bad][0]}"
        )
    return phi_d, psi_d, ntilde


def build_family(
    n_states: int,
    alpha_fn: Callable | None = None,
    quad_order: int = DEFAULT_QUAD_ORDER,
) -> BicoherentFamily:
    """Assemble a family and certify its quadrature biorthogonality.

    The functions are always the orthonormal Legendre family on ``[-1, 1]``,
    integrated by Gauss-Legendre quadrature with ``quad_order`` nodes.
    Default: zero dressing.
    Raises ValueError if the mixed function overlaps fail to reproduce the
    identity under the quadrature (fewer than ``n_states`` nodes) or if the
    normalizer fails positivity at any node.
    """
    if n_states < 1:
        raise ValueError(f"n_states must be >= 1, got {n_states}")
    if quad_order < 1:
        raise ValueError(f"quad_order must be >= 1, got {quad_order}")

    if alpha_fn is None:
        alpha_fn = _zero_dressing

    from numpy.polynomial.legendre import leggauss
    nodes, weights = leggauss(quad_order)
    phi_d, psi_d, _ = _dressed_values(n_states, alpha_fn, nodes)
    defect = max_abs((psi_d * weights[:, None]).T @ phi_d - np.eye(n_states))
    if not defect <= FAMILY_TOL:
        raise ValueError("function families are not biorthonormal under the quadrature "
                         f"(defect {defect:.3e}); raise quad_order or fix the family")
    return BicoherentFamily(n_states, alpha_fn, nodes, weights, phi_d, psi_d)


def states_at(
    family: BicoherentFamily, xs: np.ndarray | float
) -> tuple[np.ndarray, np.ndarray]:
    """The dressed state pairs at an array of points, one state per row.

    Returns ``(e_states, h_states)``, real arrays of shape
    ``(len(xs), n_states)``; row ``q`` holds the coefficients of ``e(x_q)``
    and ``h(x_q)`` on the orthonormal basis, and ``<e(x_q), h(x_q)> = 1``.
    A scalar is one point.  Raises ValueError if any point lies outside
    ``[-1, 1]``.
    """
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    outside = ~((-1.0 - ROUNDING_SLACK <= xs) & (xs <= 1.0 + ROUNDING_SLACK))
    if np.any(outside):
        raise ValueError(f"x = {xs[outside][0]} outside domain [-1.0, 1.0]")
    phi_d, psi_d, ntilde = _dressed_values(family.n_states, family.alpha_fn, xs)
    root = np.sqrt(ntilde)[:, None]
    return phi_d / root, psi_d / root


def _integrate_dyads(family: BicoherentFamily, factors: np.ndarray) -> np.ndarray:
    # sum_q w_q factor_q Ntilde_q |e(x_q)><h(x_q)|.  The normalizer cancels
    # against the 1/sqrt(Ntilde) of each state, which leaves
    # Phi^T diag(w factor) Psi.  `np.einsum` calls no BLAS, so the bits do
    # not depend on the BLAS thread count.
    weighted = family.phi_nodes.T * (family.weights * factors)
    return np.einsum("iq,qj->ij", weighted, family.psi_nodes)


def resolution_of_identity(family: BicoherentFamily) -> tuple[np.ndarray, float]:
    """Quadrature sum of the mixed dyads and its max-norm defect from identity."""
    operator = _integrate_dyads(family, np.ones(family.nodes.size))
    residual = max_abs(operator - np.eye(family.n_states))
    return operator, residual


def upper_symbol(family: BicoherentFamily, classical_fn: Callable) -> np.ndarray:
    """Operator assigned to a classical function by the dyad quadrature.

    ``classical_fn`` is evaluated on the quadrature nodes (vectorized over
    a 1-d array).  Raises ValueError if it is not finite at every node.
    """
    values = np.asarray(classical_fn(family.nodes))
    if values.shape == ():
        values = np.full(family.nodes.size, complex(values))
    if values.shape != family.nodes.shape:
        raise ValueError(
            f"classical function returned shape {values.shape}, "
            f"expected {family.nodes.shape}"
        )
    bad = ~np.isfinite(values)
    if np.any(bad):
        raise ValueError(
            f"classical function must be finite at every node, got {values[bad][0]} "
            f"at x = {family.nodes[bad][0]}"
        )
    return _integrate_dyads(family, values)
