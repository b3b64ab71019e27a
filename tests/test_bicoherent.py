import math

import numpy as np
import pytest

from pseudofermion.bicoherent import (
    build_family,
    normalized_legendre,
    resolution_of_identity,
    states_at,
    upper_symbol,
)
from pseudofermion.blocks import fixture_basis, realize_basis_cholesky
from pseudofermion.overlaps import gram_block


def jacobi_offdiagonal(n):
    # three-term recurrence coefficient for orthonormal Legendre polynomials:
    # x P_n = beta_{n-1} P_{n-1} + beta_n P_{n+1}
    return (n + 1) / math.sqrt((2 * n + 1) * (2 * n + 3))


class TestFamilyConstruction:
    @pytest.mark.parametrize("n_states", [1, 2, 3, 4, 5])
    def test_resolution_of_identity(self, n_states):
        family = build_family(n_states)
        operator, residual = resolution_of_identity(family)
        assert residual <= 1e-12
        np.testing.assert_allclose(operator, np.eye(n_states), atol=1e-12, rtol=0)

    def test_single_state(self):
        operator, residual = resolution_of_identity(build_family(1))
        np.testing.assert_allclose(operator, [[1.0]], atol=1e-13, rtol=0)
        assert residual <= 1e-13

    def test_pairing_is_unity(self):
        family = build_family(4)
        e_states, h_states = states_at(family, [-0.9, -0.25, 0.0, 0.5, 0.99])
        # coefficient rows on the orthonormal basis, real
        assert e_states.dtype == h_states.dtype == np.float64
        for e_state, h_state in zip(e_states, h_states):
            assert abs(np.vdot(e_state, h_state) - 1.0) <= 1e-12

    def test_batch_matches_single_points(self):
        family = build_family(3, alpha_fn=lambda x: 0.3 * x)
        e_states, h_states = states_at(family, family.nodes)
        assert e_states.shape == h_states.shape == (family.nodes.size, 3)
        for x, e_row, h_row in zip(family.nodes, e_states, h_states):
            (e_state,), (h_state,) = states_at(family, x)
            np.testing.assert_allclose(e_row, e_state, rtol=1e-14, atol=1e-15)
            np.testing.assert_allclose(h_row, h_state, rtol=1e-14, atol=1e-15)

    def test_dressing_invariance(self):
        plain = build_family(4)
        dressed = build_family(4, alpha_fn=lambda x: 0.3 * x)
        _, r_plain = resolution_of_identity(plain)
        _, r_dressed = resolution_of_identity(dressed)
        assert abs(r_plain - r_dressed) <= 1e-12
        # the normalizing density is independent of the dressing, so the
        # dressed states are the plain ones scaled by e^{+-alpha}
        xs = plain.nodes
        e_plain, h_plain = states_at(plain, xs)
        e_dressed, h_dressed = states_at(dressed, xs)
        np.testing.assert_allclose(
            e_dressed, np.exp(0.3 * xs)[:, None] * e_plain, atol=1e-15, rtol=1e-14
        )
        np.testing.assert_allclose(
            h_dressed, np.exp(-0.3 * xs)[:, None] * h_plain, atol=1e-15, rtol=1e-14
        )

    @pytest.mark.parametrize(
        "basis",
        [
            fixture_basis(1, 0.5),
            fixture_basis(2, 0.4),
            realize_basis_cholesky(gram_block(2, 0.3 + 0.2j)),
        ],
        ids=["fixture-m1", "fixture-m2", "cholesky-m2"],
    )
    def test_level_pair_composes(self, basis):
        # A level's pair (E, H) gives bicoherent states E e(x), H h(x) and
        # maps the quadrature operator R to E R H^+.
        e, h = basis.e_matrix, basis.h_matrix
        family = build_family(basis.dim, alpha_fn=lambda x: 0.3 * x)
        operator, _ = resolution_of_identity(family)
        composed = e @ operator @ h.conj().T
        np.testing.assert_allclose(composed, np.eye(basis.dim), atol=1e-10, rtol=0)
        e_rows, h_rows = states_at(family, 0.2)
        (e_state,), (h_state,) = e_rows @ e.T, h_rows @ h.T
        assert abs(np.vdot(e_state, h_state) - 1.0) <= 1e-12

    def test_odd_state_vanishes_at_origin(self):
        values = normalized_legendre(3)(np.array([0.0]))
        assert abs(values[0, 1]) < 1e-14
        # normalized constant state on [-1, 1]
        assert abs(values[0, 0] - math.sqrt(0.5)) < 1e-14


class TestUpperSymbols:
    def test_constant_symbol(self):
        family = build_family(4)
        np.testing.assert_allclose(
            upper_symbol(family, lambda x: np.ones_like(x)),
            np.eye(4),
            atol=1e-12,
            rtol=0,
        )
        np.testing.assert_allclose(
            upper_symbol(family, lambda x: 2.5), 2.5 * np.eye(4), atol=1e-12, rtol=0
        )

    def test_coordinate_symbol_matches_recurrence(self):
        n = 5
        symbol = upper_symbol(build_family(n), lambda x: x)
        expected = np.zeros((n, n))
        for k in range(n - 1):
            expected[k, k + 1] = expected[k + 1, k] = jacobi_offdiagonal(k)
        np.testing.assert_allclose(symbol, expected, atol=1e-10, rtol=0)
        np.testing.assert_allclose(
            np.diag(symbol, 1),
            [0.577350269189626, 0.516397779494322, 0.507092552837110, 0.503952630678970],
            atol=1e-12,
            rtol=0,
        )

    def test_symbol_hermitian_for_real_function(self):
        symbol = upper_symbol(build_family(5), lambda x: x**2 - 0.25 * x)
        np.testing.assert_allclose(symbol, symbol.conj().T, atol=1e-12, rtol=0)

    def test_symbol_with_dressing_matches_plain(self):
        plain = upper_symbol(build_family(4), lambda x: x)
        dressed = upper_symbol(
            build_family(4, alpha_fn=lambda x: 0.2 * x**2), lambda x: x
        )
        np.testing.assert_allclose(dressed, plain, atol=1e-12, rtol=0)


class TestQuadratureBoundary:
    def test_minimal_exact_order(self):
        # Gauss-Legendre with q nodes integrates degree 2q-1: products of two
        # degree-4 states need q >= 5
        family = build_family(5, quad_order=5)
        _, residual = resolution_of_identity(family)
        assert residual <= 1e-12

    def test_under_resolved_order_rejected(self):
        with pytest.raises(ValueError, match="quadrature"):
            build_family(5, quad_order=4)


class TestValidation:
    def test_rejects_complex_dressing(self):
        with pytest.raises(ValueError, match="real"):
            build_family(3, alpha_fn=lambda x: 1j * x)

    @pytest.mark.parametrize(
        "alpha_fn",
        [
            lambda x: np.full_like(x, np.inf),
            lambda x: np.full_like(x, np.nan),
            lambda x: 1000.0 * x,
        ],
        ids=["inf", "nan", "overflow"],
    )
    def test_rejects_non_finite_normalizer(self, alpha_fn):
        with pytest.raises(ValueError, match="finite and strictly positive"):
            build_family(3, alpha_fn=alpha_fn)

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_rejects_non_finite_symbol(self, value):
        family = build_family(3, quad_order=3)
        with pytest.raises(ValueError, match="finite at every node, got .* at x = 0.0"):
            upper_symbol(family, lambda x: np.where(x == 0.0, value, x))

    @pytest.mark.parametrize(
        "setting",
        [
            {"phi_fn": normalized_legendre(3)},
            {"domain": (0.0, 2.0)},
            {"basis": fixture_basis(2, 0.4)},
        ],
        ids=["phi_fn", "domain", "basis"],
    )
    def test_family_and_interval_are_fixed(self, setting):
        # always the orthonormal Legendre family on [-1, 1], with no vector
        # pair: a level's pair composes with its states (test_level_pair_composes)
        with pytest.raises(TypeError):
            build_family(3, **setting)

    def test_rejects_out_of_domain_evaluation(self):
        family = build_family(3)
        with pytest.raises(ValueError):
            states_at(family, 1.5)

    @pytest.mark.parametrize("xs", [[0.0, -1.5, 0.5], [np.nan]])
    def test_rejects_out_of_domain_point_in_batch(self, xs):
        with pytest.raises(ValueError, match="outside domain"):
            states_at(build_family(3), xs)

    def test_rejects_bad_state_count(self):
        with pytest.raises(ValueError):
            build_family(0)
