import math

import numpy as np
import pytest

from oracles import fock_expand_oracle, overlap
from pseudofermion.overlaps import (
    LEVEL_CAP,
    NCBosonParams,
    gram_block,
    sym_power,
)

GAMMA_GRID = [0.2, 0.4, 0.8]
FACTOR_GAMMAS = [0.0, 0.2, 0.8, 0.3 + 0.45j]


def oracle_overlap(n1, n2, k1, k2, params):
    """Independent value from the orthonormal-basis expansion."""
    if n1 + n2 != k1 + k2:
        return 0.0
    left = fock_expand_oracle(n1, n2, params)
    right = fock_expand_oracle(k1, k2, params)
    return complex(np.vdot(left, right))


class TestParams:
    def test_from_gamma_round_trip(self):
        for g in (0.0, 0.5, -0.3, 0.3 + 0.2j, -0.1 - 0.7j):
            params = NCBosonParams.from_gamma(g)
            assert abs(params.gamma - g) < 1e-15

    def test_rejects_non_unit_coefficients(self):
        with pytest.raises(ValueError, match="unit-norm"):
            NCBosonParams(alpha_x=1.0, alpha_y=0.5, beta_x=1.0, beta_y=0.0)

    def test_rejects_dependent_coefficients(self):
        with pytest.raises(ValueError, match="dependent"):
            NCBosonParams(alpha_x=0.6, alpha_y=0.8, beta_x=0.6, beta_y=0.8)

    def test_rejects_unit_gamma(self):
        with pytest.raises(ValueError):
            NCBosonParams.from_gamma(1.0)

    @pytest.mark.parametrize("g", [math.nan, math.inf, complex(0.2, math.nan)])
    def test_rejects_non_finite_gamma(self, g):
        with pytest.raises(ValueError):
            NCBosonParams.from_gamma(g)

    def test_rejects_nan_coefficients(self):
        with pytest.raises(ValueError, match="unit-norm"):
            NCBosonParams(alpha_x=math.nan, alpha_y=0.0, beta_x=0.0, beta_y=1.0)


class TestOverlap:
    def test_printed_values(self):
        for g in GAMMA_GRID:
            assert abs(overlap(1, 0, 0, 1, g) - g) < 1e-15
            assert abs(overlap(2, 0, 0, 2, g) - g**2) < 1e-15
            assert abs(overlap(2, 0, 1, 1, g) - math.sqrt(2.0) * g) < 1e-15
        # mixed pair at gamma = 0.5: 1 + |gamma|^2
        assert abs(overlap(1, 1, 1, 1, 0.5) - 1.25) < 1e-15

    def test_cross_level_exactly_zero(self):
        assert overlap(2, 1, 1, 0, 0.7) == 0.0
        assert overlap(0, 0, 3, 2, 0.7) == 0.0

    def test_norms(self):
        # pure single-mode excitations stay normalized; mixed excitations
        # pick up gamma-dependent norms, 1 + n|gamma|^2 when one mode holds
        # a single quantum
        for g in (0.3, 0.9, 0.4 + 0.4j):
            for n1, n2 in [(0, 0), (1, 0), (0, 3), (5, 0)]:
                assert abs(overlap(n1, n2, n1, n2, g) - 1.0) < 1e-12
            assert abs(overlap(1, 1, 1, 1, g) - (1 + abs(g) ** 2)) < 1e-12
            assert abs(overlap(4, 1, 4, 1, g) - (1 + 4 * abs(g) ** 2)) < 1e-12
        assert abs(overlap(2, 3, 2, 3, 0.3) - 1.5643) < 1e-12

    def test_conjugate_symmetry(self):
        g = 0.3 + 0.45j
        for n1, n2, k1, k2 in [(2, 0, 1, 1), (3, 1, 2, 2), (1, 2, 0, 3)]:
            forward = overlap(n1, n2, k1, k2, g)
            backward = overlap(k1, k2, n1, n2, g)
            assert abs(forward - backward.conjugate()) < 1e-14

    def test_rejects_bad_indices(self):
        with pytest.raises(ValueError, match="negative"):
            overlap(-1, 0, 0, -1, 0.5)
        with pytest.raises(ValueError, match="cap"):
            overlap(LEVEL_CAP + 1, 0, LEVEL_CAP + 1, 0, 0.5)

    @pytest.mark.parametrize("g", GAMMA_GRID + [0.3 + 0.2j])
    def test_recursion_matches_oracle(self, g):
        params = NCBosonParams.from_gamma(g)
        for level in range(6):
            for n2 in range(level + 1):
                for k2 in range(level + 1):
                    n1, k1 = level - n2, level - k2
                    via_recursion = overlap(n1, n2, k1, k2, g)
                    via_oracle = oracle_overlap(n1, n2, k1, k2, params)
                    assert abs(via_recursion - via_oracle) < 1e-10

    def test_oracle_with_generic_coefficients(self):
        # coefficients not of the canonical reduced form
        params = NCBosonParams(alpha_x=0.6, alpha_y=0.8j, beta_x=0.8, beta_y=0.6)
        g = params.gamma
        assert abs(g - (0.48 + 0.48j)) < 1e-15
        for level in range(5):
            for n2 in range(level + 1):
                for k2 in range(level + 1):
                    n1, k1 = level - n2, level - k2
                    assert (
                        abs(
                            overlap(n1, n2, k1, k2, g)
                            - oracle_overlap(n1, n2, k1, k2, params)
                        )
                        < 1e-10
                    )


class TestGramBlock:
    def test_identity_at_zero_deformation(self):
        for level in (0, 1, 4):
            block = gram_block(level, 0.0)
            np.testing.assert_allclose(
                block.matrix, np.eye(level + 1), atol=1e-15, rtol=0
            )

    def test_level1_values(self):
        block = gram_block(1, 0.3)
        np.testing.assert_allclose(
            block.matrix, [[1.0, 0.3], [0.3, 1.0]], atol=1e-15, rtol=0
        )

    def test_hermitian_and_positive(self):
        for g in (0.5, 0.9, 0.4 - 0.3j):
            for level in (1, 3, 5):
                block = gram_block(level, g)
                np.testing.assert_allclose(
                    block.matrix, block.matrix.conj().T, atol=1e-14, rtol=0
                )
                assert block.min_eigenvalue() > 0.0

    def test_min_eigenvalue_shrinks_with_deformation(self):
        minima = [gram_block(2, g).min_eigenvalue() for g in (0.1, 0.3, 0.5, 0.7, 0.9)]
        assert all(b < a for a, b in zip(minima, minima[1:]))
        # level-2 least eigenvalue at gamma = 0.5 is (1 - gamma)^2
        assert abs(minima[2] - 0.25) < 1e-12

    def test_vacuum_norm_is_one(self):
        for g in (0.2, 0.8):
            for level in (1, 2, 5):
                assert abs(gram_block(level, g).matrix[0, 0] - 1.0) < 1e-15

    def test_matrix_is_read_only(self):
        block = gram_block(2, 0.4)
        with pytest.raises(ValueError):
            block.matrix[0, 0] = 9.0

    def test_rejects_negative_level(self):
        with pytest.raises(ValueError):
            gram_block(-1, 0.5)

    def test_rejects_level_above_cap(self):
        with pytest.raises(ValueError, match="cap"):
            gram_block(LEVEL_CAP + 1, 0.5)

    def test_rejects_nan_gamma(self):
        with pytest.raises(ValueError):
            gram_block(3, math.nan)


class TestGramFactor:
    @pytest.mark.parametrize("g", FACTOR_GAMMAS)
    def test_upper_triangular_with_diagonal_s_power(self, g):
        s = math.sqrt(1.0 - abs(g) ** 2)
        for level in range(11):
            factor = gram_block(level, g).factor
            np.testing.assert_array_equal(factor, np.triu(factor))
            np.testing.assert_allclose(
                np.diag(factor), s ** np.arange(level + 1.0), atol=0, rtol=1e-14
            )

    @pytest.mark.parametrize("g", FACTOR_GAMMAS)
    def test_columns_match_expansion_oracle(self, g):
        params = NCBosonParams.from_gamma(g)
        for level in range(11):
            factor = gram_block(level, g).factor
            for j in range(level + 1):
                column = fock_expand_oracle(level - j, j, params)
                gap = np.max(np.abs(factor[:, j] - column))
                assert gap <= 1e-12 * np.max(np.abs(column))

    @pytest.mark.parametrize("g", FACTOR_GAMMAS)
    def test_factor_product_matches_recursion(self, g):
        for level in range(11):
            factor = gram_block(level, g).factor
            recursed = np.array(
                [
                    [overlap(level - j, j, level - k, k, g) for k in range(level + 1)]
                    for j in range(level + 1)
                ]
            )
            gap = np.abs(factor.conj().T @ factor - recursed)
            assert np.all(gap <= 1e-12 * np.maximum(1.0, np.abs(recursed)))

    def test_factor_is_read_only(self):
        block = gram_block(3, 0.4)
        with pytest.raises(ValueError):
            block.factor[0, 0] = 9.0


def coefficient_matrix(params):
    """``T`` of `sym_power`: column q holds the conjugated q-th coefficients."""
    return np.array(
        [[params.alpha_x, params.beta_x], [params.alpha_y, params.beta_y]]
    ).conj()


# alpha = (cos t, e^{i phi} sin t) puts weight on both product modes.
NON_CANONICAL = NCBosonParams(
    math.cos(0.4), complex(math.cos(0.7), math.sin(0.7)) * math.sin(0.4), 0.6, 0.8j
)


class TestSymPower:
    @pytest.mark.parametrize("level", [0, 1, 5, 12, 20, 30])
    @pytest.mark.parametrize(
        "params",
        [NCBosonParams.from_gamma(0.5), NCBosonParams.from_gamma(0.3 + 0.2j), NON_CANONICAL],
        ids=["real", "complex", "non_canonical"],
    )
    def test_matches_expansion_oracle(self, params, level):
        columns = sym_power(coefficient_matrix(params), level)
        expected = np.column_stack(
            [fock_expand_oracle(level - j, j, params) for j in range(level + 1)]
        )
        assert columns.shape == expected.shape
        assert np.max(np.abs(columns - expected)) <= 1e-15 * np.max(np.abs(expected))

    @pytest.mark.parametrize("g", [0.5, 0.3 + 0.2j, 0.9, 0.05])
    def test_canonical_columns_are_gram_factor(self, g):
        t = coefficient_matrix(NCBosonParams.from_gamma(g))
        for level in (0, 1, 5, 12, 20, 30):
            factor = gram_block(level, g).factor
            gap = np.max(np.abs(sym_power(t, level) - factor))
            assert gap <= 1e-15 * np.max(np.abs(factor))

    @pytest.mark.parametrize("level", [-1, LEVEL_CAP + 1])
    def test_rejects_level_out_of_range(self, level):
        with pytest.raises(ValueError, match="level"):
            sym_power(np.eye(2), level)
