"""Closed-form reference realizations at levels 1 and 2.

A level-``M`` basis realization is any choice of ``M + 1`` vectors
reproducing the prescribed overlaps; these fixtures are one such concrete
(highly non-unique) choice for ``M = 1`` and ``M = 2`` with real
``gamma > 0``, kept as data so every derived operator can be checked
entrywise against its expected closed form by ``pfl verify-fixtures``.
Their vector norms differ from the algebraic excitation norms, so they
are a reference only: the levels of ``pfl block`` and ``assemble`` are
always the Cholesky realization of the algebraic Gram matrix.

All functions take ``gamma`` and return freshly evaluated arrays.
"""

from __future__ import annotations

import math

import numpy as np

_S2 = math.sqrt(2.0)


def _check_gamma(gamma: float) -> float:
    # The level-2 closed forms divide by gamma^4; outside these bounds it
    # underflows to zero or overflows.
    gamma = float(gamma)
    if not 2.0**-255 <= gamma <= 2.0**255:
        raise ValueError(f"fixtures require 2^-255 <= gamma <= 2^255, got {gamma}")
    return gamma


def fixture_h_m1(gamma: float) -> np.ndarray:
    """Level-1 primal vectors as columns: sqrt(g)*(1,0) and sqrt(g)*(1,1)."""
    g = _check_gamma(gamma)
    return math.sqrt(g) * np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)


def fixture_e_m1(gamma: float) -> np.ndarray:
    """Level-1 dual vectors as columns: (1,-1)/sqrt(g) and (0,1)/sqrt(g)."""
    g = _check_gamma(gamma)
    return np.array([[1.0, 0.0], [-1.0, 1.0]], dtype=complex) / math.sqrt(g)


def fixture_h_m2(gamma: float) -> np.ndarray:
    """Level-2 primal vectors as columns."""
    g = _check_gamma(gamma)
    return np.array(
        [
            [g * _S2, 1.0, g / _S2],
            [0.0, g / _S2, 1.0],
            [0.0, 0.0, 1.0],
        ],
        dtype=complex,
    )


def fixture_e_m2(gamma: float) -> np.ndarray:
    """Level-2 dual vectors as columns."""
    g = _check_gamma(gamma)
    e0 = np.array([g / _S2, -1.0, 1.0 - g**2 / 2.0]) / g**2
    e1 = np.array([0.0, 1.0, -1.0]) * (_S2 / g)
    e2 = np.array([0.0, 0.0, 1.0])
    return np.column_stack([e0, e1, e2]).astype(complex)


def closed_form_m1(gamma: float) -> dict[str, np.ndarray]:
    """Expected level-1 operator matrices as functions of ``gamma``.

    Keys: ``a``, ``b``, ``N``, ``S_h``, ``S_e``, ``sqrt_S_e``, ``n``,
    ``c`` (orthonormal vectors as columns).
    """
    g = _check_gamma(gamma)
    return {
        "a": np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex),
        "b": np.array([[1.0, -1.0], [1.0, -1.0]], dtype=complex),
        "N": np.array([[0.0, 1.0], [0.0, 1.0]], dtype=complex),
        "S_h": g * np.array([[2.0, 1.0], [1.0, 1.0]], dtype=complex),
        "S_e": np.array([[1.0, -1.0], [-1.0, 2.0]], dtype=complex) / g,
        "sqrt_S_e": np.array([[2.0, -1.0], [-1.0, 3.0]], dtype=complex)
        / math.sqrt(5.0 * g),
        "n": np.array([[1.0, 2.0], [2.0, 4.0]], dtype=complex) / 5.0,
        "c": np.array([[2.0, 1.0], [-1.0, 2.0]], dtype=complex) / math.sqrt(5.0),
    }


def closed_form_m2(gamma: float) -> dict[str, np.ndarray]:
    """Expected level-2 operator matrices as functions of ``gamma``.

    Keys: ``a``, ``b``, ``N``, ``S_h``, ``S_e``.  The square root of the
    level-2 dual frame operator has no simple closed form and is not
    included.
    """
    g = _check_gamma(gamma)
    a = np.array(
        [
            [0.0, 2.0, _S2 - 2.0],
            [0.0, 0.0, g],
            [0.0, 0.0, 0.0],
        ],
        dtype=complex,
    )
    b = np.array(
        [
            [
                1.0 / (_S2 * g),
                (_S2 / g) * (g - 1.0 / (_S2 * g)),
                -0.5 - _S2 + 1.0 / g**2,
            ],
            [
                0.5,
                (_S2 / g) * (_S2 - 0.5),
                -g / (2.0 * _S2) - (_S2 / g) * (_S2 - 0.5),
            ],
            [0.0, 2.0 / g, -2.0 / g],
        ],
        dtype=complex,
    )
    n_op = np.array(
        [
            [0.0, _S2 / g, _S2 * (g**2 - 1.0) / g],
            [0.0, 1.0, 1.0],
            [0.0, 0.0, 2.0],
        ],
        dtype=complex,
    )
    s_h = np.array(
        [
            [1.0 + 2.5 * g**2, _S2 * g, g / _S2],
            [_S2 * g, 1.0 + g**2 / 2.0, 1.0],
            [g / _S2, 1.0, 1.0],
        ],
        dtype=complex,
    )
    s_e = np.array(
        [
            [
                1.0 / (2.0 * g**2),
                -1.0 / (_S2 * g**3),
                (1.0 - g**2 / 2.0) / (_S2 * g**3),
            ],
            [
                -1.0 / (_S2 * g**3),
                (2.0 + 1.0 / g**2) / g**2,
                -(1.5 + 1.0 / g**2) / g**2,
            ],
            [
                (1.0 - g**2 / 2.0) / (_S2 * g**3),
                -(1.5 + 1.0 / g**2) / g**2,
                1.0 / g**4 + 1.0 / g**2 + 1.25,
            ],
        ],
        dtype=complex,
    )
    return {"a": a, "b": b, "N": n_op, "S_h": s_h, "S_e": s_e}
