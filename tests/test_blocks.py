import dataclasses
import functools
import math

import numpy as np
import pytest

from pseudofermion import blocks, fixtures
from pseudofermion.blocks import (
    EQUALITY_TOL,
    BlockBasis,
    PositivityError,
    _ladder_shifts,
    anticommutator_reference,
    build_block_system,
    deformed_number_operators,
    dual_basis_by_kernel,
    fixture_basis,
    realize_basis_cholesky,
    relative_residual,
    verify_block_system,
)
from oracles import (
    basis_from_h,
    build_fock_rep,
    cholesky_polar,
    deformed_number_operators_by_level,
    hermitian_sqrt,
    lowering_matrix,
    sym_power,
    synthesize_ladders,
)
from pseudofermion.overlaps import LEVEL_CAP, NCBosonParams, gram_block, phase_gauge, sym_powers
from envelope_summary import ENVELOPE, outcome, relative_error
from test_overlaps import coefficient_matrix

GAMMA_GRID = [0.0, 0.1, 0.5, 0.9, 0.5 + 0.3j]


def cholesky_system(level, gamma):
    return build_block_system(realize_basis_cholesky(gram_block(level, gamma)))


class TestRealizations:
    def test_cholesky_round_trip(self):
        basis = realize_basis_cholesky(gram_block(1, 0.3))
        np.testing.assert_allclose(
            basis.h_matrix.conj().T @ basis.h_matrix,
            [[1.0, 0.3], [0.3, 1.0]],
            atol=1e-12,
            rtol=0,
        )

    def test_cholesky_upper_triangular_positive_diagonal(self):
        basis = realize_basis_cholesky(gram_block(3, 0.4 + 0.2j))
        h = basis.h_matrix
        np.testing.assert_allclose(h, np.triu(h), atol=1e-15, rtol=0)
        assert np.all(np.diag(h).real > 0) and np.all(np.abs(np.diag(h).imag) < 1e-15)

    def test_cholesky_biorthonormal(self):
        basis = realize_basis_cholesky(gram_block(2, 0.5))
        np.testing.assert_allclose(
            basis.e_matrix.conj().T @ basis.h_matrix, np.eye(3), atol=1e-12, rtol=0
        )

    @pytest.mark.parametrize("gamma", [0.5, 0.3 + 0.2j])
    def test_cholesky_core_holds_the_factor(self, gamma):
        # The core keeps the Gram factor itself, uncopied, beside its
        # read-only, C-contiguous inverse adjoint.
        gram = gram_block(4, gamma)
        core = realize_basis_cholesky(gram).core
        assert core["h_matrix"] is gram.core_factor
        e = core["e_matrix"]
        assert e.flags.c_contiguous and not e.flags.writeable
        np.testing.assert_array_equal(e, np.linalg.inv(gram.core_factor).conj().T)

    def test_cholesky_identity_at_zero(self):
        basis = realize_basis_cholesky(gram_block(4, 0.0))
        np.testing.assert_allclose(basis.h_matrix, np.eye(5), atol=1e-15, rtol=0)
        np.testing.assert_allclose(basis.e_matrix, np.eye(5), atol=1e-15, rtol=0)

    def test_cholesky_positivity_error(self):
        with pytest.raises(PositivityError):
            realize_basis_cholesky(gram_block(3, 0.99999))

    def test_fixture_overlaps(self):
        one = fixture_basis(1, 0.4)
        h = one.h_matrix
        assert abs(np.vdot(h[:, 0], h[:, 1]) - 0.4) < 1e-15
        two = fixture_basis(2, 0.4)
        h2 = two.h_matrix
        assert abs(np.vdot(h2[:, 0], h2[:, 2]) - 0.16) < 1e-15
        for basis in (one, two):
            dim = basis.dim
            np.testing.assert_allclose(
                basis.e_matrix.conj().T @ basis.h_matrix,
                np.eye(dim),
                atol=1e-12,
                rtol=0,
            )

    def test_fixture_rejects_bad_input(self):
        with pytest.raises(ValueError):
            fixture_basis(3, 0.4)
        with pytest.raises(ValueError):
            fixture_basis(1, -0.2)
        with pytest.raises(ValueError):
            fixture_basis(1, 0.0)

    @pytest.mark.parametrize("gamma", [math.nan, math.inf, 1e-100, 1e-200, 1e100])
    def test_fixture_rejects_non_finite_and_extreme_gamma(self, gamma):
        # gamma^4 underflows to zero or overflows at the finite values.
        with pytest.raises(ValueError, match="gamma"):
            fixture_basis(1, gamma)
        with pytest.raises(ValueError, match="gamma"):
            fixtures.closed_form_m2(gamma)

    def test_basis_validation(self):
        with pytest.raises(ValueError, match="biorthonormal"):
            BlockBasis(level=1, h_matrix=np.eye(2), e_matrix=2.0 * np.eye(2))
        with pytest.raises(ValueError, match="matrices"):
            BlockBasis(level=2, h_matrix=np.eye(2), e_matrix=np.eye(2))

    def test_basis_needs_a_pair_or_a_core(self):
        # Without either, every later read (repr included) would index None.
        with pytest.raises(ValueError, match="pair or a core at a gamma, got neither$"):
            BlockBasis(2)
        with pytest.raises(ValueError, match="got gamma$"):
            BlockBasis(2, gamma=0.3j)

    def test_basis_refuses_a_pair_with_a_core_or_gamma(self):
        # A pair would otherwise replace the core and drop the gamma it is read at.
        cholesky = realize_basis_cholesky(gram_block(2, 0.3 + 0.4j))
        with pytest.raises(ValueError, match="got h_matrix, e_matrix, core, gamma$"):
            dataclasses.replace(cholesky, gamma=0.3j)
        with pytest.raises(ValueError, match="got h_matrix, e_matrix, gamma$"):
            BlockBasis(2, cholesky.h_matrix, cholesky.e_matrix, gamma=0.3j)

    def test_basis_matrices_read_only(self):
        basis = fixture_basis(1, 0.5)
        with pytest.raises(ValueError):
            basis.h_matrix[0, 0] = 0.0


class TestLadders:
    def test_fixture_level1_matrices(self):
        a, b = synthesize_ladders(fixture_basis(1, 0.7))
        np.testing.assert_allclose(a, [[0.0, 1.0], [0.0, 0.0]], atol=1e-12, rtol=0)
        np.testing.assert_allclose(b, [[1.0, -1.0], [1.0, -1.0]], atol=1e-12, rtol=0)

    def test_fixture_level2_matrices(self):
        for g in (0.2, 0.4, 0.8):
            a, b = synthesize_ladders(fixture_basis(2, g))
            closed = fixtures.closed_form_m2(g)
            np.testing.assert_allclose(a, closed["a"], atol=1e-12, rtol=0)
            np.testing.assert_allclose(b, closed["b"], atol=1e-12, rtol=0)

    def test_orthonormal_basis_gives_standard_ladder(self):
        basis = realize_basis_cholesky(gram_block(3, 0.0))
        a, b = synthesize_ladders(basis)
        np.testing.assert_allclose(a, lowering_matrix(4), atol=1e-14, rtol=0)
        np.testing.assert_allclose(b, lowering_matrix(4).conj().T, atol=1e-14, rtol=0)

    def test_square_root_action(self):
        basis = realize_basis_cholesky(gram_block(4, 0.6))
        a, b = synthesize_ladders(basis)
        h = basis.h_matrix
        for k in range(5):
            down = math.sqrt(k) * h[:, k - 1] if k else np.zeros(5)
            np.testing.assert_allclose(a @ h[:, k], down, atol=1e-12, rtol=0)
            up = math.sqrt(k + 1) * h[:, k + 1] if k < 4 else np.zeros(5)
            np.testing.assert_allclose(b @ h[:, k], up, atol=1e-12, rtol=0)


def assert_shifts_are_products(x):
    # x D and x D^+ by the helper, bit for bit the products with the dense D.
    d = np.diag(np.sqrt(np.arange(1.0, len(x))), 1)
    down, up = _ladder_shifts(x)
    assert np.array_equal(down, x @ d) and np.array_equal(up, x @ d.T)


class TestLadderShifts:
    @pytest.mark.parametrize("modulus", [0.3, 0.7])
    @pytest.mark.parametrize("phase", [0.0, 0.7])
    def test_cores_of_every_level(self, modulus, phase):
        # Every level, the gate's refusals included: e is the inverse adjoint
        # that realize_basis_cholesky forms.  At phase 0.7 they are complex.
        gamma = modulus * complex(math.cos(phase), math.sin(phase))
        for level in range(LEVEL_CAP + 1):
            h = gram_block(level, modulus).core_factor
            e = np.conj(np.linalg.inv(h).T, order="C")
            assert_shifts_are_products(phase_gauge(h, gamma))
            assert_shifts_are_products(phase_gauge(e, gamma))

    def test_complex_fixture_pairs(self):
        for h, e in ((fixtures.fixture_h_m1, fixtures.fixture_e_m1),
                     (fixtures.fixture_h_m2, fixtures.fixture_e_m2)):
            assert_shifts_are_products(h(0.3))
            assert_shifts_are_products(e(0.3))


class TestDualByKernel:
    def test_fixture_duals(self):
        for level, gamma in ((1, 0.3), (1, 0.8), (2, 0.3), (2, 0.8)):
            basis = fixture_basis(level, gamma)
            a, b = synthesize_ladders(basis)
            e = dual_basis_by_kernel(basis.h_matrix, a, b)
            np.testing.assert_allclose(e, basis.e_matrix, atol=1e-12, rtol=0)

    def test_self_dual_at_zero_deformation(self):
        basis = realize_basis_cholesky(gram_block(3, 0.0))
        a, b = synthesize_ladders(basis)
        e = dual_basis_by_kernel(basis.h_matrix, a, b)
        np.testing.assert_allclose(e, basis.h_matrix, atol=1e-12, rtol=0)

    def test_cholesky_duals(self):
        for g in (0.4, 0.9):
            for level in (1, 2, 3, 4):
                basis = realize_basis_cholesky(gram_block(level, g))
                a, b = synthesize_ladders(basis)
                e = dual_basis_by_kernel(basis.h_matrix, a, b)
                np.testing.assert_allclose(e, basis.e_matrix, atol=1e-9, rtol=0)

    def test_rejects_full_rank_adjoint(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            dual_basis_by_kernel(np.eye(3), np.eye(3), np.eye(3))


@functools.lru_cache(maxsize=None)
def mpmath_reference(gamma, level):
    """Cholesky-gauge level operators from a 50-digit mpmath computation.

    Independent of the package: each excitation is expanded over the
    product basis, the Gram matrix ``V^+ V`` is factored as ``L L^+`` and
    ``h = L^+``; then ``a = h D h^-1``, ``S_e = h^-+ h^-1`` with its
    positive root from a Hermitian eigendecomposition,
    ``n = sqrt(S_e) N sqrt(S_e)^-1`` with ``N = h diag(k) h^-1``, and
    ``c = sqrt(S_e) h``.  Returned as complex arrays keyed like the
    `BlockSystem` fields.
    """
    import mpmath

    with mpmath.workdps(50):
        mp = mpmath.mp
        g = mp.mpc(gamma.real, gamma.imag)
        s = mp.sqrt(1 - abs(g) ** 2)
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
        h_inv = mp.inverse(h)
        d = mp.matrix(level + 1, level + 1)
        for k in range(1, level + 1):
            d[k - 1, k] = mp.sqrt(k)
        vals, q = mp.eigh(h_inv.H * h_inv)
        root = q * mp.diag([mp.sqrt(x) for x in vals]) * q.H
        inv_root = q * mp.diag([1 / mp.sqrt(x) for x in vals]) * q.H
        n_op = h * mp.diag(list(range(level + 1))) * h_inv
        ref = {
            "a": h * d * h_inv,
            "sqrt_S_e": root,
            "n_selfadjoint": root * n_op * inv_root,
            "c_matrix": root * h,
        }
        return {key: np.array(m.tolist(), dtype=complex) for key, m in ref.items()}


def forward_error(system, ref, key):
    """``max|produced - exact|`` relative to ``max(1, max|exact|)``."""
    exact = ref[key]
    return np.max(np.abs(getattr(system, key) - exact)) / max(1.0, np.max(np.abs(exact)))


FORWARD_GRID = [(0.5, 20), (0.5, 25), (0.7, 18), (0.3 + 0.2j, 10), (0.9, 10)]
# kappa(S_h) = 1.9e3, 5.9e4 and 6.9e3.
WELL_CONDITIONED = [(0.3 + 0.2j, 10), (0.5, 10), (0.9, 3)]


class TestForwardError:
    @pytest.mark.parametrize("gamma, level", FORWARD_GRID)
    def test_lowering_matches_high_precision(self, gamma, level):
        a = cholesky_system(level, gamma).a
        ref = mpmath_reference(complex(gamma), level)["a"]
        assert np.max(np.abs(a - ref)) <= 1e-10 * np.max(np.abs(ref))

    @pytest.mark.parametrize("gamma, level", FORWARD_GRID)
    def test_sqrt_matches_high_precision(self, gamma, level):
        # The root is formed from a singular value decomposition with
        # whatever singular vector phases LAPACK returns; it must not depend
        # on them.
        system = cholesky_system(level, gamma)
        ref = mpmath_reference(complex(gamma), level)
        assert forward_error(system, ref, "sqrt_S_e") <= 1e-11

    # At the well-conditioned points n and c are held to 1e-12.  Elsewhere
    # only c is, to 1e-11: n is formed as sqrt(S_e) N sqrt(S_e)^-1 and is off
    # by 7.5e-10 at (0.5, 25).
    @pytest.mark.parametrize("gamma, level", WELL_CONDITIONED + [
        point for point in FORWARD_GRID + [(0.8, 13), (0.3, 30)] if point not in WELL_CONDITIONED
    ])
    def test_symmetrized_outputs_match_high_precision(self, gamma, level):
        system = cholesky_system(level, gamma)
        ref = mpmath_reference(complex(gamma), level)
        if (gamma, level) in WELL_CONDITIONED:
            assert forward_error(system, ref, "n_selfadjoint") <= 1e-12
            assert forward_error(system, ref, "c_matrix") <= 1e-12
        else:
            assert forward_error(system, ref, "c_matrix") <= 1e-11


def mpmath_least_gram_eigenvalue(gamma: complex, level: int) -> float:
    """Least eigenvalue of the level Gram matrix ``R^+ R``, in 50 digits.

    ``R`` is the closed-form factor evaluated at the given double ``gamma``;
    the eigenvalues come from mpmath's Hermitian eigensolver, not from the
    closed-form spectrum.
    """
    import mpmath

    with mpmath.workdps(50):
        mp = mpmath.mp
        g = mp.mpc(gamma.real, gamma.imag)
        s = mp.sqrt(1 - abs(g) ** 2)
        r = mp.matrix(level + 1, level + 1)
        for i in range(level + 1):
            for j in range(i, level + 1):
                root = mp.sqrt(mp.binomial(j, i) * mp.binomial(level - i, j - i))
                r[i, j] = root * g ** (j - i) * s**i
        return float(min(mp.eigh(r.H * r, eigvals_only=True)))


class TestPositivityGate:
    # (0.7, 25): eigvalsh of the formed matrix read -1.9e-12 there.
    @pytest.mark.parametrize("gamma, level", FORWARD_GRID + [(0.7, 25)])
    def test_min_eigenvalue_matches_high_precision(self, gamma, level):
        exact = mpmath_least_gram_eigenvalue(complex(gamma), level)
        got = gram_block(level, gamma).min_eigenvalue()
        assert abs(got - exact) <= 1e-13 * exact, (got, exact)


class TestSingularValueRoots:
    """``sqrt_S_e`` and its inverse from the singular values of ``h``."""

    def test_certified_envelope_matches_closed_forms(self):
        # Every certified c and sqrt_S_e is Sym^M of a 2x2 closed form to
        # 1e-11 (worst 1.0e-12 for c).  Every refusal is the Gram gate's: S_e =
        # e e^+ is positive by construction, so no computed eigenvalue of it
        # refuses a level (eigh of it reads -5.0e-6 at (0.7, 22)).
        certified = 0
        for r, m in ENVELOPE:
            system, failing = outcome(r, m)
            if system is None:
                assert failing.startswith(f"gram matrix at level {m} "), (r, m, failing)
            elif not failing:
                certified += 1
                p, u = cholesky_polar(r)
                for name, t in (("c_matrix", u), ("sqrt_S_e", p)):
                    error = relative_error(system.core[name], sym_power(t, m))
                    assert error <= 1e-11, (r, m, name, error)
        assert certified >= 195

    @pytest.mark.parametrize("gamma, level", [(0.5, 6), (0.3 + 0.2j, 12), (0.7, 22)])
    def test_core_holds_the_singular_values_of_h(self, gamma, level):
        # sigma_k^2 are the eigenvalues (1 + r)^(M - k) (1 - r)^k of S_h = h h^+,
        # each to about eps kappa(h) relative.
        sigma = cholesky_system(level, gamma).core["sigma_h"]
        r, k = abs(gamma), np.arange(level + 1)
        np.testing.assert_allclose(sigma**2, (1 + r) ** (level - k) * (1 - r) ** k, rtol=1e-10)

    def test_singular_primal_family_is_refused(self):
        # The pair passes the biorthonormality guard: its defect, 1, is 1e-10
        # of max|e| max|h|.  Its roots would divide by the zero singular value.
        basis = BlockBasis(1, np.diag([1.0, 0.0]), np.diag([1.0, 1e10]))
        message = r"h is singular: least singular value 0\.000e\+00"
        with pytest.raises(PositivityError, match=message):
            build_block_system(basis)


class TestBlockSystem:
    @pytest.mark.parametrize("gamma", GAMMA_GRID)
    @pytest.mark.parametrize("level", range(7))
    def test_invariant_suite(self, gamma, level):
        residuals = verify_block_system(cholesky_system(level, gamma))
        worst = max(residuals, key=residuals.get)
        assert residuals[worst] <= EQUALITY_TOL, (worst, residuals[worst])

    def test_fixture_invariant_suite(self):
        for level in (1, 2):
            for g in (0.2, 0.4, 0.8):
                system = build_block_system(fixture_basis(level, g))
                residuals = verify_block_system(system)
                assert max(residuals.values()) <= EQUALITY_TOL

    def test_nilpotency_order_is_sharp(self):
        system = cholesky_system(3, 0.5)
        assert np.max(np.abs(np.linalg.matrix_power(system.a, 4))) < 1e-12
        assert np.max(np.abs(np.linalg.matrix_power(system.a, 3))) > 0.1

    def test_anticommutator_diagonal(self):
        for level in range(1, 6):
            system = cholesky_system(level, 0.5)
            np.testing.assert_allclose(
                system.anticommutator_diagonal,
                anticommutator_reference(level),
                atol=1e-10,
                rtol=0,
            )

    def test_failed_certificate_is_reported_by_name(self):
        # A dual perturbed within DUAL_TOL is accepted as a basis; the
        # system is still built, and the suite names what breaks.
        cholesky = realize_basis_cholesky(gram_block(3, 0.4))
        e = np.array(cholesky.e_matrix)
        e[0, 1] += 3e-9
        system = build_block_system(BlockBasis(3, cholesky.h_matrix, e))
        residuals = verify_block_system(system)
        failing = {name for name, value in residuals.items() if not value <= EQUALITY_TOL}
        assert {"biorthonormality", "anticommutator_offdiag"} <= failing

    def test_identity_anticommutator_only_at_level_one(self):
        one = cholesky_system(1, 0.5)
        anti = one.a @ one.b + one.b @ one.a
        np.testing.assert_allclose(anti, np.eye(2), atol=1e-12, rtol=0)
        for level in (2, 3, 4):
            system = cholesky_system(level, 0.5)
            anti = system.a @ system.b + system.b @ system.a
            assert np.max(np.abs(anti - np.eye(level + 1))) > 0.5

    def test_sqrt_branch_matches_printed_root(self):
        system = build_block_system(fixture_basis(1, 0.4))
        np.testing.assert_allclose(
            system.sqrt_S_e,
            fixtures.closed_form_m1(0.4)["sqrt_S_e"],
            atol=1e-12,
            rtol=0,
        )

    def test_c_basis_diagonalizes_n(self):
        system = cholesky_system(4, 0.7)
        c = system.c_matrix
        transformed = c.conj().T @ system.n_selfadjoint @ c
        np.testing.assert_allclose(
            transformed, np.diag(np.arange(5.0)), atol=1e-10, rtol=0
        )

    def test_realization_independence(self):
        # same Gram matrix through a unitary change of frame: spectra and
        # the anticommutator diagonal must not move
        rng = np.random.default_rng(7)
        level, gamma = 3, 0.6
        cholesky = cholesky_system(level, gamma)
        q, _ = np.linalg.qr(
            rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        )
        other = build_block_system(basis_from_h(level, q @ cholesky.basis.h_matrix))
        gram = cholesky.basis.h_matrix.conj().T @ cholesky.basis.h_matrix
        gram_other = other.basis.h_matrix.conj().T @ other.basis.h_matrix
        np.testing.assert_allclose(gram_other, gram, atol=1e-12, rtol=0)
        np.testing.assert_allclose(
            np.sort(np.linalg.eigvals(other.N).real),
            np.sort(np.linalg.eigvals(cholesky.N).real),
            atol=1e-10,
            rtol=0,
        )
        np.testing.assert_allclose(
            other.anticommutator_diagonal,
            cholesky.anticommutator_diagonal,
            atol=1e-10,
            rtol=0,
        )
        np.testing.assert_allclose(
            np.linalg.eigvalsh(other.n_selfadjoint),
            np.linalg.eigvalsh(cholesky.n_selfadjoint),
            atol=1e-10,
            rtol=0,
        )


def reference_suite(core, diagonal, level):
    """The invariant suite with every factor norm taken anew, per check.

    ``core`` holds the matrices `verify_block_system` reads, keyed as
    `build_block_system` keys them; ``diagonal`` is the system's
    ``anticommutator_diagonal``.
    """

    def residual(defect, *refs):
        scale = 1.0
        for ref in refs:
            scale *= float(np.max(np.abs(ref)))
        return float(np.max(np.abs(defect))) / max(1.0, scale)

    h, e = core["h_matrix"], core["e_matrix"]
    dim = level + 1
    eye = np.eye(dim)
    ladder = np.diag(np.arange(dim, dtype=float))
    a, b, n_op, s_h, s_e = (core[k] for k in ("a", "b", "N", "S_h", "S_e"))
    root, inv_root = core["sqrt_S_e"], core["inv_sqrt_S_e"]
    herm, c = core["n_selfadjoint"], core["c_matrix"]
    anti, mixed = core["anticommutator"], core["mixed"]
    d_down = lowering_matrix(dim).real
    eig_n = np.sort(np.linalg.eigvalsh(herm))
    return {
        "nilpotency_a": residual(np.linalg.matrix_power(a, dim), *([a] * dim)),
        "nilpotency_b": residual(np.linalg.matrix_power(b, dim), *([b] * dim)),
        "biorthonormality": residual(e.conj().T @ h - eye, e, h),
        "ladder_action_a": residual(a @ h - h @ d_down, a, h),
        "ladder_action_b": residual(b @ h - h @ d_down.conj().T, b, h),
        "spectrum_N": residual(n_op @ h - h @ ladder, n_op, h),
        "spectrum_N_adjoint": residual(n_op.conj().T @ e - e @ ladder, n_op, e),
        "inverse_pair": residual(s_h @ s_e - eye, s_h, s_e),
        "intertwining_e": residual(s_e @ n_op - n_op.conj().T @ s_e, s_e, n_op),
        "intertwining_h": residual(n_op @ s_h - s_h @ n_op.conj().T, s_h, n_op),
        "map_h_to_e": residual(s_e @ h - e, s_e, h),
        "map_e_to_h": residual(s_h @ e - h, s_h, e),
        "resolution_eh": residual(e @ h.conj().T - eye, e, h),
        "resolution_he": residual(h @ e.conj().T - eye, h, e),
        "sqrt_consistency": residual(root @ root - s_e, root, root),
        "n_hermiticity": residual(herm - herm.conj().T, root, n_op, inv_root),
        "n_spectrum": residual(eig_n - np.arange(dim, dtype=float), root, n_op, inv_root),
        "n_eigenbasis": residual(herm @ c - c @ ladder, herm, c),
        "c_orthonormality": residual(c.conj().T @ c - eye, root, h, root, h),
        "anticommutator_offdiag": residual(
            mixed - np.diag(np.real(np.diag(mixed))), e, anti, h
        ),
        "anticommutator_values": residual(
            diagonal - anticommutator_reference(level), e, anti, h,
        ),
    }


class TestSuiteNormsTakenOnce:
    # (0.7, 20) and (0.5, 26) fail some checks: failing residuals must
    # keep their exact values too.
    @pytest.mark.parametrize(
        "gamma, level",
        [(0.5, 0), (0.3 + 0.4j, 1), (0.5, 7), (0.2 + 0.1j, 20), (0.05, 30),
         (0.7, 20), (0.5, 26)],
    )
    def test_matches_per_check_norms_bitwise(self, gamma, level):
        system = cholesky_system(level, gamma)
        reference = reference_suite(system.core, system.anticommutator_diagonal, level)
        assert verify_block_system(system) == reference

    @pytest.mark.parametrize("level", [1, 20, 30])
    def test_one_norm_per_factor(self, level, monkeypatch):
        # 12 factor norms and 21 defect norms, whatever the level.
        system = cholesky_system(level, 0.05)
        calls = []
        max_abs = blocks.max_abs

        def counted(matrix):
            calls.append(matrix)
            return max_abs(matrix)

        monkeypatch.setattr(blocks, "max_abs", counted)
        verify_block_system(system)
        assert len(calls) <= 33

    def test_float_reference_equals_array_reference(self):
        rng = np.random.default_rng(3)
        defect = rng.normal(size=(4, 4)) * 1e-12
        refs = [rng.normal(size=(4, 4)) * s + 1j * rng.normal(size=(4, 4)) for s in (3.0, 0.2, 40.0)]
        norms = [blocks.max_abs(r) for r in refs]
        for picks in ([0], [0, 1], [2, 0, 2, 2], [1, 1, 1, 1, 1, 1]):
            by_array = relative_residual(defect, *(refs[i] for i in picks))
            assert relative_residual(defect, *(norms[i] for i in picks)) == by_array
            mixed = [refs[i] if k % 2 else norms[i] for k, i in enumerate(picks)]
            assert relative_residual(defect, *mixed) == by_array


class TestHermitianSqrt:
    def test_square_root_squares_back(self):
        rng = np.random.default_rng(11)
        raw = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        matrix = raw @ raw.conj().T + 5.0 * np.eye(5)
        root = hermitian_sqrt(matrix)
        np.testing.assert_allclose(root, root.conj().T, atol=1e-12, rtol=0)
        np.testing.assert_allclose(root @ root, matrix, atol=1e-10, rtol=1e-10)
        assert np.all(np.linalg.eigvalsh(root) > 0)

    def test_rejects_indefinite(self):
        with pytest.raises(PositivityError):
            hermitian_sqrt(np.diag([1.0, -1.0]))


def fock_space_number_operators(params, level):
    """``M1``, ``M2`` and their sum on one level, via the full two-mode space.

    Forms the operators as dense matrices on the ``(level + 1)**2``
    truncated Fock space and restricts them to the states ``|level - j, j>``.
    """
    rep = build_fock_rep(max(level, 1))
    gamma = params.gamma
    denom = 1.0 - abs(gamma) ** 2
    a1 = params.alpha_x * rep.a_x + params.alpha_y * rep.a_y
    a2 = params.beta_x * rep.a_x + params.beta_y * rep.a_y
    m1 = (a1.conj().T @ a1 - gamma * (a1.conj().T @ a2)) / denom
    m2 = (a2.conj().T @ a2 - gamma.conjugate() * (a2.conj().T @ a1)) / denom
    sub = [rep.basis_index(level - j, j) for j in range(level + 1)]
    restrict = np.ix_(sub, sub)
    return m1[restrict], m2[restrict], (m1 + m2)[restrict]


# alpha = (cos t, e^{i phi} sin t) puts weight on both product modes, so
# every entry of the 2x2 coefficient matrices is exercised.
NON_CANONICAL = NCBosonParams(
    math.cos(0.4), complex(math.cos(0.7), math.sin(0.7)) * math.sin(0.4), 0.6, 0.8j
)


class TestDeformedNumberOperators:
    @pytest.mark.parametrize("level", [0, 1, 5, 12])
    @pytest.mark.parametrize(
        "params",
        [NCBosonParams.from_gamma(0.5), NCBosonParams.from_gamma(0.3 + 0.2j), NON_CANONICAL],
        ids=["real", "complex", "non_canonical"],
    )
    def test_matches_fock_space_construction(self, params, level):
        ops = deformed_number_operators(params, level)
        for produced, expected in zip(
            (ops.m1, ops.m2, ops.h_total), fock_space_number_operators(params, level)
        ):
            assert np.max(np.abs(produced - expected)) <= 1e-14 * np.max(np.abs(expected))
        assert ops.action_residual <= EQUALITY_TOL
        assert ops.commutator_residual <= EQUALITY_TOL

    def test_reduces_to_mode_counts_at_zero(self):
        params = NCBosonParams.from_gamma(0.0)
        ops = deformed_number_operators(params, 3)
        # columns ordered by second-mode occupation: first-mode count runs
        # 3, 2, 1, 0 down the diagonal
        np.testing.assert_allclose(ops.m1, np.diag([3.0, 2.0, 1.0, 0.0]), atol=1e-12, rtol=0)
        np.testing.assert_allclose(ops.m2, np.diag([0.0, 1.0, 2.0, 3.0]), atol=1e-12, rtol=0)

    def test_total_is_scalar_on_level(self):
        params = NCBosonParams.from_gamma(0.5)
        ops = deformed_number_operators(params, 2)
        np.testing.assert_allclose(ops.h_total, 2.0 * np.eye(3), atol=1e-10, rtol=0)

    def test_mode_spectrum(self):
        params = NCBosonParams.from_gamma(0.5)
        ops = deformed_number_operators(params, 3)
        np.testing.assert_allclose(
            np.sort(np.linalg.eigvals(ops.m1).real), [0.0, 1.0, 2.0, 3.0], atol=1e-9, rtol=0
        )
        assert ops.action_residual <= EQUALITY_TOL
        assert ops.commutator_residual <= EQUALITY_TOL

    def test_complex_deformation(self):
        params = NCBosonParams.from_gamma(0.3 + 0.2j)
        ops = deformed_number_operators(params, 2)
        assert ops.action_residual <= EQUALITY_TOL

    def test_rejects_unit_magnitude(self):
        params = NCBosonParams.from_gamma(1.0 - 1e-13)
        with pytest.raises(ValueError, match="1 - |gamma|"):
            deformed_number_operators(params, 2)

    def test_rejects_negative_level(self):
        with pytest.raises(ValueError, match=rf"\[0, {LEVEL_CAP}\], got -1$"):
            deformed_number_operators(NCBosonParams.from_gamma(0.2), -1)

    @pytest.mark.parametrize("level", [True, 2.0])
    def test_rejects_non_integer_level(self, level):
        with pytest.raises(ValueError, match=rf"level must be an integer, got {level!r}$"):
            deformed_number_operators(NCBosonParams.from_gamma(0.2), level)

    @pytest.mark.parametrize("level", [LEVEL_CAP + 1, LEVEL_CAP + 2])
    def test_rejects_level_above_cap(self, level):
        with pytest.raises(ValueError, match=rf"\[0, {LEVEL_CAP}\], got {level}$"):
            deformed_number_operators(NCBosonParams.from_gamma(0.2), level)


class TestBatchedLevels:
    """The batched pass against the level-by-level loop it replaced."""

    @pytest.mark.parametrize("level", [0, 1, 2, 7, 20, 30])
    @pytest.mark.parametrize(
        "params",
        [NCBosonParams.from_gamma(0.5), NCBosonParams.from_gamma(0.3 + 0.2j), NON_CANONICAL],
        ids=["real", "complex", "non_canonical"],
    )
    def test_matches_level_by_level_oracle(self, params, level):
        ops = deformed_number_operators(params, level)
        ref = deformed_number_operators_by_level(params, level)
        for name in ("m1", "m2", "h_total"):
            assert np.array_equal(getattr(ops, name), getattr(ref, name)), name
        assert ops.action_residual <= EQUALITY_TOL
        assert ops.commutator_residual <= EQUALITY_TOL
        t = coefficient_matrix(params)
        stack = sym_powers(t, level)
        for n in range(level + 1):
            expected = sym_power(t, n)
            defect = np.max(np.abs(stack[n, : n + 1, : n + 1] - expected))
            assert defect <= 1e-14 * max(1.0, np.max(np.abs(expected))), n
            assert not stack[n, n + 1 :].any() and not stack[n, :, n + 1 :].any(), n

    @pytest.mark.parametrize("level", [2, 7, 20])
    @pytest.mark.parametrize(
        "params", [NCBosonParams.from_gamma(0.5), NON_CANONICAL], ids=["real", "non_canonical"]
    )
    def test_inner_level_action_defect_is_caught(self, monkeypatch, params, level):
        inner = level // 2

        def perturbed(t, top):
            stack = sym_powers(t, top)
            stack[inner, 0, inner] += 1e-6
            return stack

        monkeypatch.setattr(blocks, "sym_powers", perturbed)
        with pytest.raises(ValueError, match="deformed number operator action defect"):
            deformed_number_operators(params, level)

    @pytest.mark.parametrize("level", [2, 7, 20])
    @pytest.mark.parametrize(
        "params", [NCBosonParams.from_gamma(0.5), NON_CANONICAL], ids=["real", "non_canonical"]
    )
    def test_inner_level_commutator_defect_is_caught(self, monkeypatch, params, level):
        inner = level // 2
        dsym = blocks.dsym

        def perturbed_k2(k, top):
            stack = dsym(k, top)
            stack[1, inner, 0, inner] += 1e-6
            return stack

        def blank_inner(t, top):
            # The action check reads the same K2 slice; with that level's
            # expansions blanked, only the commutator can see the defect.
            stack = sym_powers(t, top)
            stack[inner] = 0.0
            return stack

        monkeypatch.setattr(blocks, "dsym", perturbed_k2)
        monkeypatch.setattr(blocks, "sym_powers", blank_inner)
        with pytest.raises(ValueError, match="deformed number operators do not commute"):
            deformed_number_operators(params, level)
