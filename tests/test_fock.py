import re

import numpy as np
import pytest

from oracles import (
    build_fock_rep,
    lowering_matrix,
    raising_matrix,
    stacked_vacuum_conditions,
    tall_parity_singular_values,
)
from pseudofermion.fock import (
    KERNEL_TOL,
    _parity_singular_values,
    nogo_joint_kernel,
)


def top_projector(dim):
    vec = np.zeros(dim)
    vec[-1] = 1.0
    return np.outer(vec, vec)


class TestSingleMode:
    def test_lowering_entries(self):
        m = lowering_matrix(4)
        expected = np.zeros((4, 4))
        for k in range(1, 4):
            expected[k - 1, k] = np.sqrt(k)
        np.testing.assert_allclose(m, expected, atol=1e-15, rtol=0)

    def test_adjoint_pair(self):
        np.testing.assert_allclose(
            raising_matrix(5), lowering_matrix(5).conj().T, atol=1e-15, rtol=0
        )

    def test_truncated_commutator(self):
        # [a, a^+] = 1 - dim |top><top| on the truncated space
        for dim in (2, 3, 6):
            a = lowering_matrix(dim)
            comm = a @ a.conj().T - a.conj().T @ a
            np.testing.assert_allclose(
                comm, np.eye(dim) - dim * top_projector(dim), atol=1e-12, rtol=1e-12
            )

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            lowering_matrix(0)


class TestTwoModeRep:
    def test_modes_commute(self):
        rep = build_fock_rep(3)
        zero = rep.a_x @ rep.a_y - rep.a_y @ rep.a_x
        np.testing.assert_allclose(zero, np.zeros_like(zero), atol=1e-15, rtol=0)
        mixed = rep.a_x @ rep.a_y.conj().T - rep.a_y.conj().T @ rep.a_x
        np.testing.assert_allclose(mixed, np.zeros_like(mixed), atol=1e-15, rtol=0)

    def test_number_operator_diagonal(self):
        rep = build_fock_rep(2)
        n_x = rep.a_x.conj().T @ rep.a_x
        for nx in range(3):
            for ny in range(3):
                idx = rep.basis_index(nx, ny)
                assert abs(n_x[idx, idx] - nx) < 1e-15

    def test_basis_index_is_x_major(self):
        rep = build_fock_rep(2)
        assert rep.basis_index(2, 1) == 2 * 3 + 1
        # the flat index agrees with the mode matrices: a_x lowers the major
        # occupation, a_y the minor one
        state = np.zeros(rep.dim)
        state[rep.basis_index(2, 1)] = 1.0
        np.testing.assert_allclose(
            (rep.a_x @ state)[rep.basis_index(1, 1)], np.sqrt(2.0), atol=1e-15, rtol=0
        )
        np.testing.assert_allclose(
            (rep.a_y @ state)[rep.basis_index(2, 0)], 1.0, atol=1e-15, rtol=0
        )

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            build_fock_rep(0)
        with pytest.raises(ValueError):
            build_fock_rep(2).basis_index(0, -1)
        with pytest.raises(ValueError):
            build_fock_rep(2).basis_index(3, 0)


class TestJointKernelScan:
    def test_stack_shape(self):
        rep = build_fock_rep(3)
        stack = stacked_vacuum_conditions(0.7, rep)
        assert stack.shape == (2 * rep.dim, rep.dim)

    def test_undeformed_vacuum_survives(self):
        report = nogo_joint_kernel(0.0, [4, 8])
        assert report.kernel_dimension_estimate == 1
        assert all(s <= 1e-12 for s in report.min_singular_values)

    def test_undeformed_kernel_is_gaussian_vacuum(self):
        # the surviving null vector is the bare two-mode vacuum
        rep = build_fock_rep(6)
        stack = stacked_vacuum_conditions(0.0, rep)
        _, svals, vh = np.linalg.svd(stack)
        null = vh[-1].conj()
        null /= null[rep.basis_index(0, 0)]
        expected = np.zeros(rep.dim, dtype=complex)
        expected[rep.basis_index(0, 0)] = 1.0
        np.testing.assert_allclose(null, expected, atol=1e-12, rtol=0)
        # and the second singular value is far from zero
        assert svals[-2] > 1.0

    @pytest.mark.parametrize("cutoff", [2, 3, 8, 16, 17])
    @pytest.mark.parametrize("theta", [0.0, 0.3, -0.7, 1.9, 1e-3, -2.5])
    def test_scan_matches_dense_stack(self, theta, cutoff):
        # the swap-reduced parity-block scan against the dense complex SVD
        # of the full stack; odd and even cutoffs give parity blocks of
        # unequal and equal width.  Every singular value, not only the
        # smallest, must agree to a backward-stable bound.
        dense = np.linalg.svd(
            stacked_vacuum_conditions(theta, build_fock_rep(cutoff)), compute_uv=False
        )
        svals = np.sort(_parity_singular_values(theta, cutoff))
        assert svals.size == dense.size
        gap = np.max(np.abs(svals - np.sort(dense)))
        assert gap <= 32 * np.finfo(float).eps * dense[0]
        report = nogo_joint_kernel(theta, [cutoff])
        assert abs(report.min_singular_values[0] - dense[-1]) <= 1e-15
        assert report.kernel_dimension_estimate == int(np.sum(dense < KERNEL_TOL))
        if theta == 0.0:
            assert report.min_singular_values[0] <= 1e-12

    @pytest.mark.parametrize("cutoff", [20, 32])
    @pytest.mark.parametrize("theta", [0.0, 1e-3, -1e-3, 0.5, -1.9, 2.5])
    def test_shell_reduction_matches_tall_svd(self, theta, cutoff):
        # the shell-by-shell triangular factors against one dense SVD per
        # tall block, at the cutoffs the scan workload ends on
        tall = np.sort(tall_parity_singular_values(theta, cutoff))
        svals = np.sort(_parity_singular_values(theta, cutoff))
        assert svals.size == tall.size
        assert np.max(np.abs(svals - tall)) <= 32 * np.finfo(float).eps * tall[-1]
        assert abs(svals[0] - tall[0]) <= 1e-15
        assert np.sum(svals < KERNEL_TOL) == np.sum(tall < KERNEL_TOL)

    @pytest.mark.parametrize("cutoff", [2, 3, 16, 17, 32])
    def test_undeformed_minimum_is_exactly_zero(self, cutoff):
        # the vacuum column is exactly zero, and no reflection fills it in
        report = nogo_joint_kernel(0.0, [cutoff])
        assert report.min_singular_values == (0.0,)
        assert report.kernel_dimension_estimate == 1

    @pytest.mark.parametrize("theta", [1e-3, -1e-3, 0.1, -0.1, 0.5, -0.5, 1.9, -1.9])
    def test_floor_matches_closed_form(self, theta):
        # the infinite-cutoff floor |theta| / sqrt(2 (1 + sqrt(1 + theta^2/4)))
        # is reached to rounding by cutoff 32
        floor = abs(theta) / np.sqrt(2.0 * (1.0 + np.sqrt(1.0 + theta**2 / 4.0)))
        sigma = nogo_joint_kernel(theta, [32]).min_singular_values[0]
        assert abs(sigma - floor) <= 1e-15 * floor

    @pytest.mark.parametrize(
        "theta,floor",
        [(0.3, 0.149582), (0.5, 0.248098), (1.0, 0.485868)],
    )
    def test_deformed_floor_values(self, theta, floor):
        report = nogo_joint_kernel(theta, [4, 8, 12, 16])
        assert report.kernel_dimension_estimate == 0
        assert abs(report.min_singular_values[-1] - floor) < 1e-3

    def test_deformed_floor_does_not_decay(self):
        for theta in (0.3, 0.5, 1.0):
            vals = nogo_joint_kernel(theta, [4, 8, 12, 16]).min_singular_values
            diffs = np.diff(vals)
            assert np.all(diffs >= -1e-12)

    def test_floor_grows_with_deformation(self):
        floors = [
            nogo_joint_kernel(theta, [12]).min_singular_values[-1]
            for theta in (0.2, 0.5, 1.0)
        ]
        assert floors[0] < floors[1] < floors[2]

    def test_rejects_bad_cutoffs(self):
        with pytest.raises(ValueError):
            nogo_joint_kernel(0.3, [])
        with pytest.raises(ValueError):
            nogo_joint_kernel(0.3, [1, 4])
        with pytest.raises(ValueError):
            nogo_joint_kernel(0.3, [8, 4])

    @pytest.mark.parametrize("cutoff", [2.9, 4.5, 4.0, True, np.True_, "4"])
    def test_rejects_non_integer_cutoffs(self, cutoff):
        # int() would run 2.9 and 4.5 silently at cutoffs 2 and 4
        with pytest.raises(ValueError, match=re.escape(f"integers, got {cutoff!r}")):
            nogo_joint_kernel(0.5, [cutoff, 8])

    def test_accepts_numpy_integer_cutoffs(self):
        assert nogo_joint_kernel(0.5, np.array([4, 8])) == nogo_joint_kernel(0.5, [4, 8])

    @pytest.mark.parametrize("theta", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_theta(self, theta):
        with pytest.raises(ValueError, match="theta"):
            nogo_joint_kernel(theta, [4])

    def test_threshold_is_fixed(self):
        # the kernel dimension counts singular values below KERNEL_TOL only
        with pytest.raises(TypeError):
            nogo_joint_kernel(0.3, [4], kernel_tol=10.0)
