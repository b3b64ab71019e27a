import math

import numpy as np
import pytest

from pseudofermion import fixtures
from pseudofermion.blocks import (
    EQUALITY_TOL,
    BasisSource,
    BlockBasis,
    PositivityError,
    anticommutator_reference,
    basis_from_h,
    build_block_system,
    deformed_number_operators,
    dual_basis_by_kernel,
    fixture_basis,
    hermitian_sqrt,
    realize_basis_cholesky,
    synthesize_ladders,
    verify_block_system,
)
from pseudofermion.fock import lowering_matrix
from pseudofermion.overlaps import NCBosonParams, gram_block

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
        assert basis.source is BasisSource.CHOLESKY

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

    def test_basis_validation(self):
        with pytest.raises(ValueError, match="biorthonormal"):
            BlockBasis(level=1, h_matrix=np.eye(2), e_matrix=2.0 * np.eye(2))
        with pytest.raises(ValueError, match="matrices"):
            BlockBasis(level=2, h_matrix=np.eye(2), e_matrix=np.eye(2))

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


def mpmath_lowering(mp, gamma, level):
    """``a = h D h^-1`` in the Cholesky gauge, computed in mpmath.

    Independent of the package: each excitation is expanded over the
    product basis, the Gram matrix ``V^+ V`` is factored as ``L L^+`` and
    ``h = L^+``.
    """
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
    d = mp.matrix(level + 1, level + 1)
    for k in range(1, level + 1):
        d[k - 1, k] = mp.sqrt(k)
    return h * d * mp.inverse(h)


class TestForwardError:
    @pytest.mark.parametrize(
        "gamma, level", [(0.5, 20), (0.5, 25), (0.7, 18), (0.3 + 0.2j, 10), (0.9, 10)]
    )
    def test_lowering_matches_high_precision(self, gamma, level):
        mpmath = pytest.importorskip("mpmath")
        a = cholesky_system(level, gamma).a
        with mpmath.workdps(50):
            ref = mpmath_lowering(mpmath.mp, complex(gamma), level)
            ref = np.array(
                [[complex(ref[i, j]) for j in range(level + 1)] for i in range(level + 1)]
            )
        assert np.max(np.abs(a - ref)) <= 1e-10 * np.max(np.abs(ref))


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
        assert other.basis.source is BasisSource.USER_SUPPLIED
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


class TestDeformedNumberOperators:
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
        with pytest.raises(ValueError):
            deformed_number_operators(NCBosonParams.from_gamma(0.2), -1)
