import re
import sys

import numpy as np
import pytest

from oracles import (
    build_fock_rep,
    lowering_matrix,
    raising_matrix,
    stacked_vacuum_conditions,
    triangle_vacuum_conditions,
    williamson_ladder,
)
from pseudofermion.cli import main, run_nogo
from pseudofermion.fock import (
    KERNEL_TOL,
    MIN_FLOOR,
    _sweep_singular_values,
    closed_form_floor,
    nogo_joint_kernel,
)

# Every theta that the scan tests below sample.
SUITE_THETAS = (
    0.0, 1e-9, -1e-9, 1e-3, -1e-3, 0.1, -0.1, 0.3, 0.5, -0.5, -0.7, 1.0, 1.9, -1.9,
    2.0, -2.0, 2.5, -2.5, 4.0, -4.0, 4.5, -4.5,
)


def ladder_floor(theta):
    # the infinite-cutoff floor, the least value of the Williamson ladder
    return williamson_ladder(theta, 1)[0]


def assert_matches_dense_stack(theta, cutoffs):
    # Every singular value of the sector scan at each cutoff of the sweep, not
    # only the smallest, against the dense complex SVD of the truncated stack,
    # to a backward-stable bound; the report's minima and kernel count too.
    report = nogo_joint_kernel(theta, cutoffs)
    sweep = _sweep_singular_values(theta, cutoffs)
    assert len(sweep) == len(cutoffs)
    for cutoff, values, minimum in zip(cutoffs, sweep, report.min_singular_values):
        dense = np.sort(np.linalg.svd(triangle_vacuum_conditions(theta, cutoff), compute_uv=False))
        svals = np.sort(values)
        assert svals.size == dense.size
        assert np.max(np.abs(svals - dense)) <= 32 * np.finfo(float).eps * dense[-1]
        assert abs(minimum - dense[0]) <= 1e-15
    assert report.kernel_dimension_estimate == int(np.sum(dense < KERNEL_TOL))
    if theta == 0.0:
        assert report.min_singular_values == (0.0,) * len(cutoffs)
        assert report.kernel_dimension_estimate == 1
    return dense


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
        # both conditions on the 10 inputs nx + ny <= 3, at every theta, and
        # all of their outputs, the 15 states nx + ny <= 4
        assert triangle_vacuum_conditions(0.7, 3).shape == (30, 10)
        assert triangle_vacuum_conditions(2.0, 3).shape == (30, 10)
        assert triangle_vacuum_conditions(-2.5, 3).shape == (30, 10)

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

    @pytest.mark.parametrize(
        "theta,cutoff",
        [
            (theta, cutoff)
            for theta in (0.0, 0.3, -0.7, 1.9, 1e-3, -2.5, 4.0, -4.0, 4.5)
            for cutoff in (2, 3, 8, 16, 17)
        ]
        # and at the cutoffs the scan workload ends on
        + [(theta, cutoff) for theta in (0.0, 1e-3, -1e-3, 0.5, -1.9, 2.5) for cutoff in (20, 32)],
    )
    def test_scan_matches_dense_stack(self, theta, cutoff):
        # odd and even cutoffs give the sector m = 0, of J columns, 2J and 2J - 2 rows
        assert_matches_dense_stack(theta, [cutoff])

    @pytest.mark.parametrize("theta", [0.5, -1.9, 2.5, -4.0])
    def test_sweep_matches_dense_stack(self, theta):
        # one sweep's blocks share their SVDs, column count by column count,
        # and the column counts repeat across its cutoffs
        assert_matches_dense_stack(theta, [2, 3, 5, 8, 13, 21, 32])

    @pytest.mark.parametrize(
        "cutoffs", [[2, 3], [3, 5, 7, 9], [5, 9, 13, 17], [2, 3, 5, 8, 13, 21, 32]]
    )
    @pytest.mark.parametrize(
        "theta", [0.0, 1e-9, -1e-9, 0.5, -0.5, 1.9, -1.9, 2.0, -2.0, 2.5, -2.5, 4.0, -4.0]
    )
    def test_sweep_reads_each_cutoff_alone(self, theta, cutoffs):
        # each cutoff's minimum in a sweep is bitwise its minimum alone, and
        # the kernel count is the last cutoff's alone
        report = nogo_joint_kernel(theta, cutoffs)
        alone = [nogo_joint_kernel(theta, [cutoff]) for cutoff in cutoffs]
        assert report.min_singular_values == tuple(r.min_singular_values[0] for r in alone)
        assert report.kernel_dimension_estimate == alone[-1].kernel_dimension_estimate

    @pytest.mark.parametrize("cutoff", [3, 8, 16])
    @pytest.mark.parametrize("theta", [1e-9, -1e-9])
    def test_tiny_deformation_keeps_relative_accuracy(self, theta, cutoff):
        # the minimum 5e-10 is far below eps * sigma_max of the stack; the
        # unsquared sector SVDs keep it to relative accuracy
        dense = assert_matches_dense_stack(theta, [cutoff])
        report = nogo_joint_kernel(theta, [cutoff])
        assert report.kernel_dimension_estimate == 1
        assert abs(report.min_singular_values[0] - dense[0]) <= 1e-6 * dense[0]

    @pytest.mark.parametrize("cutoff", [2, 3, 16, 17, 32])
    def test_undeformed_minimum_is_exactly_zero(self, cutoff):
        # the vacuum column is exactly zero, and the SVD keeps its value zero
        report = nogo_joint_kernel(0.0, [cutoff])
        assert report.min_singular_values == (0.0,)
        assert report.kernel_dimension_estimate == 1

    @pytest.mark.parametrize("theta", [1e-3, -1e-3, 0.1, -0.1, 0.5, -0.5, 1.9, -1.9])
    def test_floor_matches_closed_form(self, theta):
        # the infinite-cutoff floor is reached to rounding by cutoff 32
        floor = ladder_floor(theta)
        sigma = nogo_joint_kernel(theta, [32]).min_singular_values[0]
        assert abs(sigma - floor) <= 1e-15 * floor

    def test_parity_brackets_closed_form(self):
        # cutoffs of both parities lie at or above the infinite-cutoff floor:
        # the restriction brackets it from above, so sweeps of mixed parity
        # compare too
        for theta in np.concatenate([np.linspace(0.1, 2.0, 8), -np.linspace(0.1, 2.0, 8)]):
            floor = ladder_floor(theta)
            cutoffs = list(range(2, 33))
            sigma = nogo_joint_kernel(theta, cutoffs).min_singular_values
            for cutoff, value in zip(cutoffs, sigma):
                assert value >= floor * (1 - 1e-14), (theta, cutoff)

    @pytest.mark.parametrize("theta", SUITE_THETAS)
    def test_minima_bounded_by_floor(self, theta):
        # Courant-Fischer for the restriction to growing input spaces: every
        # minimum at or above the floor, and the minima nonincreasing
        floor = ladder_floor(theta)
        sigma = np.array(nogo_joint_kernel(theta, list(range(2, 33))).min_singular_values)
        assert np.all(sigma >= floor * (1 - 1e-14))
        assert np.all(np.diff(sigma) <= 1e-14 * floor)

    @pytest.mark.parametrize("theta", [t for t in SUITE_THETAS if abs(t) <= 2.5])
    def test_lowest_values_match_williamson_ladder(self, theta):
        # at cutoff 64 the ten smallest singular values meet the closed-form
        # spectrum of the untruncated stack
        lowest = np.sort(_sweep_singular_values(theta, [64])[0])[:10]
        assert np.max(np.abs(lowest - williamson_ladder(theta, 10))) <= 1e-13

    @pytest.mark.parametrize("theta", [*SUITE_THETAS, 1e-150, 30.0, -1e4, 1e6, 1e300, -1e300])
    def test_closed_form_floor_is_the_ladder_floor(self, theta):
        # finite at every finite theta, zero only at theta = 0
        floor = closed_form_floor(theta)
        assert abs(floor - ladder_floor(theta)) <= 4e-16 * floor
        assert (floor > 0.0) == (theta != 0.0)

    @pytest.mark.parametrize("theta", [4.0, -4.0, 4.5, -4.5])
    def test_creation_regime_keeps_no_vacuum(self, theta):
        # at theta = 4 a compression to the triangle would have an exactly zero
        # column, a false vacuum; the restriction reaches the floor from above
        floor = ladder_floor(theta)
        report = nogo_joint_kernel(theta, [4, 8, 16, 32])
        assert report.kernel_dimension_estimate == 0
        assert abs(report.min_singular_values[-1] - floor) <= 1e-10 * floor
        checks = run_nogo(theta, [4, 8, 12, 16]).checks
        assert [check.name for check in checks] == ["floor_bound", "kernel_empty"]
        assert all(check.passed for check in checks)

    def test_creation_regime_is_an_upper_sequence(self):
        # the restriction to growing input spaces: nonincreasing, and never
        # below the floor, which lies above the creation-operator bound
        # sqrt(|theta| - 2)
        for theta in np.concatenate([np.linspace(2.05, 8.0, 8), -np.linspace(2.05, 8.0, 8)]):
            floor = ladder_floor(theta)
            sigma = np.array(nogo_joint_kernel(theta, list(range(2, 25))).min_singular_values)
            assert np.all(np.diff(sigma) <= 1e-14 * sigma[0]), theta
            assert sigma[-1] >= floor * (1 - 1e-14), theta
            assert floor >= np.sqrt(abs(theta) - 2.0), theta

    def test_default_sweep_is_nonincreasing(self):
        # pfl nogo's verdict at its default cutoffs 4 8 12 16: the minima fall
        # toward the floor, and none lies below it
        for theta in np.concatenate([np.linspace(0.1, 2.0, 20), -np.linspace(0.1, 2.0, 20)]):
            sigma = nogo_joint_kernel(theta, [4, 8, 12, 16]).min_singular_values
            assert np.all(np.diff(sigma) <= 1e-14 * ladder_floor(theta)), theta
            report = run_nogo(theta, [4, 8, 12, 16])
            assert [check.name for check in report.checks] == ["floor_bound", "kernel_empty"]
            assert report.all_pass(), theta

    @pytest.mark.parametrize(
        "theta,floor",
        [(0.3, 0.149582), (0.5, 0.248098), (1.0, 0.485868)],
    )
    def test_deformed_floor_values(self, theta, floor):
        report = nogo_joint_kernel(theta, [4, 8, 12, 16])
        assert report.kernel_dimension_estimate == 0
        assert abs(report.min_singular_values[-1] - floor) < 1e-3

    def test_deformed_floor_does_not_decay(self):
        # the minima fall, but never below the closed-form floor
        for theta in (0.3, 0.5, 1.0):
            vals = nogo_joint_kernel(theta, [4, 8, 12, 16]).min_singular_values
            assert np.all(np.array(vals) >= ladder_floor(theta) * (1 - 1e-14))

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

    @pytest.mark.parametrize("theta", [1e-309, -1e-310, 1e-320, 5e-324, 1e-300, 2e-292])
    def test_rejects_floor_below_svd_resolution(self, theta, capsys):
        # Below tiny / eps the SVD's absolute floor, about 6 n^2 tiny, can read
        # a minimum as 0.0: 1e-309 and 1e-320 once failed floor_bound so.
        with pytest.raises(ValueError, match=r"closed-form floor .* below the 1\.002e-292"):
            nogo_joint_kernel(theta, [4, 8])
        assert main(["nogo", f"--theta={theta!r}"]) == 2
        assert capsys.readouterr().err.startswith(f"error: theta = {theta!r} has the closed-form")

    def test_min_floor_is_tiny_over_eps(self):
        assert MIN_FLOOR == sys.float_info.min / sys.float_info.epsilon
        assert closed_form_floor(2e-292) < MIN_FLOOR <= closed_form_floor(2.01e-292)

    @pytest.mark.parametrize("theta", [1e-290, -1e-290, 2.01e-292, -0.0])
    def test_accepts_floor_at_svd_resolution(self, theta):
        # every floor at or above MIN_FLOOR passes, here at cutoffs up to 64
        for cutoffs in ([4, 8, 12, 16], [2, 3], [32, 64]):
            assert run_nogo(theta, cutoffs).all_pass(), (theta, cutoffs)
        assert main(["nogo", f"--theta={theta!r}"]) == 0

    def test_threshold_is_fixed(self):
        # the kernel dimension counts singular values below KERNEL_TOL only
        with pytest.raises(TypeError):
            nogo_joint_kernel(0.3, [4], kernel_tol=10.0)
