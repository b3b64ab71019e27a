"""Forward error of the lowering matrix ``a`` against a 50-digit mpmath reference.

The reference never calls the package: it expands each excitation
``Phi_{M-j, j}`` over the orthonormal product basis, forms the Gram matrix
``V^+ V``, takes its Cholesky factor ``G = L L^+``, sets ``h = L^+`` and
``a = h D h^-1`` with ``sqrt(k)`` on the superdiagonal of ``D``; this is
the gauge `realize_basis_cholesky` fixes.
"""

from __future__ import annotations

from pseudofermion import blocks, overlaps

# (gamma, M) pairs spanning the accuracy envelope; all return a system today.
GRID = ((0.5, 20), (0.5, 25), (0.7, 18), (0.3 + 0.2j, 10), (0.9, 10))

DIGITS = 50


def _reference_a(mp, gamma: complex, level: int):
    g = mp.mpc(gamma.real, gamma.imag)
    s = mp.sqrt(1 - abs(g) ** 2)
    # A1^+ = a_x^+ and A2^+ = g a_x^+ + s a_y^+; row index = y occupation.
    v = mp.matrix(level + 1, level + 1)
    for j in range(level + 1):
        n1, n2 = level - j, j
        for i in range(n2 + 1):
            nx, ny = n1 + i, n2 - i
            v[ny, j] += (
                mp.binomial(n2, i) * g**i * s ** (n2 - i)
                * mp.sqrt(mp.factorial(nx) * mp.factorial(ny)
                          / (mp.factorial(n1) * mp.factorial(n2)))
            )
    h = mp.cholesky(v.H * v).H
    d = mp.matrix(level + 1, level + 1)
    for k in range(1, level + 1):
        d[k - 1, k] = mp.sqrt(k)
    return h * d * mp.inverse(h)


def forward_errors() -> dict[str, float]:
    """``max|a - a_ref| / max|a_ref|`` per grid point, keyed ``"gamma,M"``.

    A grid point the package refuses counts as error 1, no correct digits,
    so that refusing an input cannot look like an accuracy gain.
    """
    import mpmath

    mp = mpmath.mp
    errors = {}
    with mpmath.workdps(DIGITS):
        for gamma, level in GRID:
            gamma = complex(gamma)
            key = f"{gamma:g},{level}"
            try:
                basis = blocks.realize_basis_cholesky(overlaps.gram_block(level, gamma))
                a = blocks.build_block_system(basis).a
            except ValueError:
                errors[key] = 1.0
                continue
            ref = _reference_a(mp, gamma, level)
            diff = mp.mpf(0)
            scale = mp.mpf(0)
            for i in range(level + 1):
                for j in range(level + 1):
                    diff = max(diff, abs(mp.mpc(a[i, j].real, a[i, j].imag) - ref[i, j]))
                    scale = max(scale, abs(ref[i, j]))
            errors[key] = float(diff / scale)
    return errors

