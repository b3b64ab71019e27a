"""Metamorphic relations of the Cholesky-gauge level systems, without mpmath.

A level at ``gamma`` is built and certified once at ``|gamma|`` and read at
``gamma`` through the phase gauge, whose weight on entry ``(j, k)`` is
``w_d = gamma^d / |gamma|^d``, ``d = k - j`` (shifted by one on the ladders
``a`` and ``b``), and ``w_-d = conj(w_d)``.  These tests hold that design to
exact relations over drawn points of the envelope: the residuals depend on
``|gamma|`` alone, every matrix is its ``|gamma|`` value times the weights,
the Gram block included, conjugating ``gamma`` conjugates the system, the
positivity gate refuses exactly where ``(1 - |gamma|)^M`` is not above its
floor, and at real ``gamma >= 0`` the Gram block, basis and ladders keep the
complex-arithmetic values bit for bit.  Over the whole envelope, the `gram`,
`block` and `assemble` reports carry the same checks at ``gamma`` rotated
in the plane as at ``|gamma|``, and at a negative real ``gamma`` every
report matrix is real.  On ``FORWARD_GRID`` the outputs are compared with
the complex-arithmetic route at ``gamma``.
"""

import cmath
import math

import numpy as np
import pytest

from envelope_summary import ENVELOPE
from oracles import lowering_matrix
from pseudofermion.blocks import (
    POSITIVITY_TOL,
    BlockBasis,
    PositivityError,
    build_block_system,
    realize_basis_cholesky,
    verify_block_system,
)
from pseudofermion.cli import run_assemble, run_block, run_gram
from pseudofermion.overlaps import LEVEL_CAP, gram_block, phase_gauge
from test_blocks import FORWARD_GRID, forward_error, mpmath_reference

EPS = np.finfo(float).eps

# (|gamma|, phi, M) drawn uniformly over the envelope from one seeded generator.
_RNG = np.random.default_rng(1809)
DRAWS = list(
    zip(
        _RNG.uniform(0.05, 0.9, 500),
        _RNG.uniform(0.0, 2.0 * math.pi, 500),
        (int(m) for m in _RNG.integers(1, LEVEL_CAP + 1, 500)),
    )
)

# Matrix fields read through the gauge, with the shift of d by -1 (a) or
# +1 (b) that carries the ladders' own phase.
GAUGED = (
    ("a", -1), ("b", 1), ("N", 0), ("S_h", 0), ("S_e", 0),
    ("sqrt_S_e", 0), ("n_selfadjoint", 0), ("c_matrix", 0),
)


def level(gamma, m):
    """The Cholesky-gauge system at ``(gamma, m)``, or the refusal's message."""
    try:
        return build_block_system(realize_basis_cholesky(gram_block(m, gamma)))
    except PositivityError as exc:
        return str(exc)


def residuals(gamma, m):
    """The residuals at ``(gamma, m)``, or the refusal's message."""
    system = level(gamma, m)
    return system if isinstance(system, str) else verify_block_system(system)


def gauge_weights(gamma, dim, shift=0):
    """``w_d = gamma^d / |gamma|^d`` at ``d = k - j + shift``, ``w_-d = conj(w_d)``.

    Python's complex powers of ``gamma`` and of ``|gamma|``, one weight per
    ``|d|``: the core's ``|gamma|^d`` are complex powers too.
    """
    w = np.array([gamma**d / complex(abs(gamma)) ** d for d in range(dim + 1)])
    w = np.concatenate([w[:0:-1].conj(), w])
    j = np.arange(dim)
    return w[dim + shift + j[None, :] - j[:, None]]


def at(r, phi):
    return complex(r * math.cos(phi), r * math.sin(phi))


def test_draws_cover_the_envelope():
    assert len(set(DRAWS)) >= 500
    assert {m for _, _, m in DRAWS} == set(range(1, LEVEL_CAP + 1))


def test_residuals_depend_on_modulus_only():
    for r, phi, m in DRAWS:
        gamma = at(r, phi)
        assert residuals(gamma, m) == residuals(abs(gamma), m), (gamma, m)


def test_matrices_are_the_modulus_level_in_the_phase_gauge():
    built = 0
    for r, phi, m in DRAWS:
        gamma = at(r, phi)
        system = level(gamma, m)
        if isinstance(system, str):
            continue
        built += 1
        core = level(abs(gamma), m)
        pairs = [(getattr(system, n), getattr(core, n), s) for n, s in GAUGED]
        pairs += [
            (system.basis.h_matrix, core.basis.h_matrix, 0),
            (system.basis.e_matrix, core.basis.e_matrix, 0),
        ]
        for got, modulus, shift in pairs:
            expected = modulus * gauge_weights(gamma, m + 1, shift)
            assert np.all(np.abs(got - expected) <= 4 * EPS * np.abs(expected)), (gamma, m)
        assert np.array_equal(system.anticommutator_diagonal, core.anticommutator_diagonal)
    assert built >= 400


def test_conjugate_deformation_conjugates_the_system():
    for r, phi, m in DRAWS:
        gamma = at(r, phi)
        system, mirror = level(gamma, m), level(gamma.conjugate(), m)
        assert isinstance(system, str) == isinstance(mirror, str)
        if isinstance(system, str):
            continue
        for name, _ in GAUGED:
            assert np.array_equal(getattr(mirror, name), getattr(system, name).conj()), name
        for name in ("h_matrix", "e_matrix"):
            got, mine = getattr(mirror.basis, name), getattr(system.basis, name)
            assert np.array_equal(got, mine.conj()), name


def complex_route(gamma, m):
    """Gram block, basis and ladders in complex arithmetic at ``gamma``.

    The closed-form factor with complex powers, its Gram matrix mirrored
    Hermitian, the dual as the inverse adjoint from `numpy.linalg.inv`, and
    ``a = h D h^-1``, ``b = h D^+ h^-1`` as complex matrix products.
    """
    gamma = complex(gamma)
    s = math.sqrt(1.0 - abs(gamma) ** 2)
    binomial = np.array(
        [[math.comb(n, k) for k in range(LEVEL_CAP + 1)] for n in range(LEVEL_CAP + 1)],
        dtype=float,
    )
    k = np.arange(m + 1)
    rows, cols = k[:, None], k[None, :]
    offset = np.maximum(cols - rows, 0)
    factor = (
        np.sqrt(binomial[cols, rows] * binomial[m - rows, offset])
        * gamma ** offset
        * s ** rows
    )
    upper = np.triu(factor.conj().T @ factor, 1)
    matrix = upper + upper.conj().T + np.diag(np.sum(np.abs(factor) ** 2, axis=0))
    h_inv = np.linalg.inv(factor)
    d_down = lowering_matrix(m + 1)
    return {
        "matrix": matrix,
        "factor": factor,
        "h_matrix": factor,
        "e_matrix": h_inv.conj().T,
        "a": factor @ d_down @ h_inv,
        "b": factor @ d_down.conj().T @ h_inv,
    }


def test_real_deformation_keeps_complex_route_bits():
    # fwd_err of `a` is measured at real gamma; it must not move.
    moduli = sorted({(round(r, 12), m) for r, _, m in DRAWS})[::5] + [(0.5, 20), (0.5, 25)]
    for r, m in moduli:
        gram = gram_block(m, r)
        reference = complex_route(r, m)
        assert np.array_equal(gram.matrix, reference["matrix"])
        assert np.array_equal(gram.factor, reference["factor"])
        system = level(r, m)
        if isinstance(system, str):
            continue
        # The generic route: the public constructor on the given pair.
        generic = build_block_system(BlockBasis(m, reference["h_matrix"], reference["e_matrix"]))
        for name in ("h_matrix", "e_matrix"):
            assert np.array_equal(getattr(system.basis, name), reference[name]), (r, m, name)
            assert np.array_equal(getattr(generic.basis, name), reference[name]), (r, m, name)
        for name in ("a", "b"):
            assert np.array_equal(getattr(system, name), reference[name]), (r, m, name)
            assert np.array_equal(getattr(generic, name), reference[name]), (r, m, name)


def test_gram_block_is_its_modulus_block_in_the_gauge():
    # The one route from |gamma| to gamma: the Gram factor and matrix at
    # gamma are the |gamma| block's, read through `phase_gauge`, bit for bit.
    points = [(at(r, phi), m) for r, phi, m in DRAWS]
    points += [(-r, m) for r, _, m in DRAWS[::5]]
    for gamma, m in points:
        gram, core = gram_block(m, gamma), gram_block(m, abs(gamma))
        assert np.array_equal(gram.factor, phase_gauge(core.factor, gamma)), (gamma, m)
        assert np.array_equal(gram.matrix, phase_gauge(core.matrix, gamma)), (gamma, m)


@pytest.mark.parametrize("phase", [0.0, 0.7, math.pi])
def test_gate_depends_on_modulus_and_level_only(phase):
    # The gate reads the exact least Gram eigenvalue (1 - |gamma|)^M, so it
    # refuses the same 40 envelope points at every phase.
    refused = set()
    for r, m in ENVELOPE:
        gamma = -r if phase == math.pi else r * cmath.exp(1j * phase)
        try:
            realize_basis_cholesky(gram_block(m, gamma))
        except PositivityError:
            refused.add((r, m))
        exact = (1.0 - abs(gamma)) ** m <= POSITIVITY_TOL
        assert ((r, m) in refused) == exact, (gamma, m)
    assert refused == {(r, m) for r, m in ENVELOPE if (1.0 - r) ** m <= POSITIVITY_TOL}
    assert len(refused) == 40


def test_gauge_at_a_tiny_deformation():
    # gamma^d and |gamma|^d underflow to zero from d = 2 on here, which would
    # make 0/0 weights; scaled by one power of two, the weights stay i^d.
    assert np.array_equal(phase_gauge(np.ones((4, 4)), 1e-200j)[0], [1, 1j, -1, -1j])
    report = run_block(1e-200j, 6)
    assert all(np.isfinite(matrix).all() for matrix in report.matrices.values())


# Rotations of gamma: the first three leave |gamma| unchanged bit for bit.
ROTATIONS = (1j, -1, -1j, cmath.exp(0.7j))


def outcome(run, gamma, m):
    """Check names, verdicts, residuals and `gram`'s least eigenvalue, or the refusal."""
    try:
        report = run(gamma, m)
    except ValueError as exc:
        return str(exc)
    checks = [(check.name, check.passed, check.residual) for check in report.checks]
    return checks, report.matrices.get("min_eigenvalue", np.zeros(1)).tolist()


@pytest.mark.parametrize("run", [run_gram, run_block, run_assemble],
                         ids=["gram", "block", "assemble"])
def test_reports_are_independent_of_the_phase(run):
    # Every report at gamma carries the checks of the report at |gamma|.
    for r, m in ENVELOPE:
        references = {}
        for rotation in ROTATIONS:
            gamma = r * rotation
            if abs(gamma) not in references:
                references[abs(gamma)] = outcome(run, abs(gamma), m)
            assert outcome(run, gamma, m) == references[abs(gamma)], (gamma, m)


@pytest.mark.parametrize("r", [0.1, 0.5, 0.7])
@pytest.mark.parametrize("run, size", [(run_gram, 20), (run_block, 20), (run_assemble, 14)],
                         ids=["gram", "block", "assemble"])
def test_reports_at_negative_deformation_are_real(run, size, r):
    # Every weight of the gauge at -r is exactly +-1: each matrix is the one
    # at r times (-1)^d, with d = k - j shifted by -1 on a and +1 on b.
    negative, positive = run(-r, size), run(r, size)
    assert list(negative.matrices) == list(positive.matrices)
    for name, got in negative.matrices.items():
        got, expected = np.atleast_2d(got), np.atleast_2d(positive.matrices[name]).real
        assert not got.imag.any(), name
        if name in ("anticommutator_diagonal", "min_eigenvalue") or "_block_" in name:
            sign = 1.0
        else:
            j, k = np.indices(got.shape)
            shift = {"a": -1, "b": 1}.get(name.rpartition(":")[2], 0)
            sign = (-1.0) ** (k - j + shift)
        assert np.array_equal(got.real, sign * expected), name


def complex_level(gamma, m):
    """Every level matrix by the complex-arithmetic route at ``gamma``."""
    ref = complex_route(gamma, m)
    h, e, a, b = ref["h_matrix"], ref["e_matrix"], ref["a"], ref["b"]
    n_op = b @ a
    s_e = e @ e.conj().T
    vals, vecs = np.linalg.eigh(s_e)
    root = (vecs * np.sqrt(vals)) @ vecs.conj().T
    inv_root = (vecs * (1.0 / np.sqrt(vals))) @ vecs.conj().T
    return {
        **ref,
        "N": n_op,
        "S_h": h @ h.conj().T,
        "S_e": s_e,
        "sqrt_S_e": root,
        "n_selfadjoint": root @ n_op @ inv_root,
        "c_matrix": root @ h,
    }


@pytest.mark.parametrize("gamma, m", FORWARD_GRID)
def test_agrees_with_complex_route(gamma, m):
    system = level(complex(gamma), m)
    reference = complex_level(gamma, m)
    produced = {name: getattr(system, name) for name, _ in GAUGED}
    produced.update(h_matrix=system.basis.h_matrix, e_matrix=system.basis.e_matrix)
    exact = None
    for name, got in produced.items():
        ref = reference[name]
        gap = np.max(np.abs(got - ref)) / max(1.0, np.max(np.abs(ref)))
        if gap <= 1e-12:
            continue
        # Agreement is owed only where the complex route is accurate: the
        # eigendecomposition behind sqrt_S_e, n and c may disagree where the
        # 50-digit values show the complex route off by more than 1e-12.
        assert name in ("sqrt_S_e", "n_selfadjoint", "c_matrix"), (name, gap)
        exact = exact or mpmath_reference(complex(gamma), m)
        theirs = np.max(np.abs(ref - exact[name])) / max(1.0, np.max(np.abs(exact[name])))
        assert theirs > 1e-12, (name, gap, theirs, forward_error(system, exact, name))
