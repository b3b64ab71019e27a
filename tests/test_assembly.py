import math

import numpy as np
import pytest

from oracles import direct_sum, e_vector, h_vector, total_dim
from pseudofermion.assembly import assemble, global_resolution_check
from pseudofermion.blocks import max_abs, relative_residual
from pseudofermion.fock import lowering_matrix


def _block_diag(mats, total):
    out = np.zeros((total, total), dtype=complex)
    pos = 0
    for m in mats:
        d = m.shape[0]
        out[pos : pos + d, pos : pos + d] = m
        pos += d
    return out


def dense_assembly(ops):
    """The dense ``total x total`` form of an assembly and of its checks.

    Embeds every block of ``ops`` in the full direct-sum space and computes
    ``A``, ``B``, ``N = B A`` and the action, resolution and intertwining
    residuals from the dense matrices, as the assembly did before it kept
    its operators as blocks.  Test oracle of the blockwise assembly.
    """
    systems = ops.block_systems
    total = sum(s.basis.dim for s in systems)
    big_a = _block_diag([s.a for s in systems], total)
    big_b = _block_diag([s.b for s in systems], total)
    big_n = big_b @ big_a
    s_e = _block_diag([s.S_e for s in systems], total)

    action = 0.0
    for system, off in zip(systems, ops.offsets):
        dim = system.basis.dim
        h_emb = np.zeros((total, dim), dtype=complex)
        e_emb = np.zeros((total, dim), dtype=complex)
        h_emb[off : off + dim, :] = system.basis.h_matrix
        e_emb[off : off + dim, :] = system.basis.e_matrix
        down = lowering_matrix(dim)
        up = down.conj().T
        action = max(
            action,
            relative_residual(big_a @ h_emb - h_emb @ down, big_a, h_emb),
            relative_residual(big_b @ h_emb - h_emb @ up, big_b, h_emb),
            relative_residual(big_a.conj().T @ e_emb - e_emb @ up, big_a, e_emb),
            relative_residual(big_b.conj().T @ e_emb - e_emb @ down, big_b, e_emb),
        )
    dyads = _block_diag(
        [s.basis.e_matrix @ s.basis.h_matrix.conj().T for s in systems], total
    )
    resolution = max_abs(dyads - np.eye(total))
    h_all = _block_diag([s.basis.h_matrix for s in systems], total)
    intertwining = max_abs((s_e @ big_n - big_n.conj().T @ s_e) @ h_all)
    return big_a, big_b, big_n, action, resolution, intertwining


class TestAssemble:
    def test_trivial_tower(self):
        ops = assemble(0.5, 0)
        assert total_dim(ops) == 1
        np.testing.assert_allclose(direct_sum(ops, "a"), [[0.0]], atol=1e-15, rtol=0)
        np.testing.assert_allclose(direct_sum(ops, "b"), [[0.0]], atol=1e-15, rtol=0)
        report = global_resolution_check(ops)
        assert report.resolution_residual <= 1e-12

    def test_block_sizes_and_offsets(self):
        ops = assemble(0.5, 4)
        assert total_dim(ops) == 1 + 2 + 3 + 4 + 5
        assert ops.offsets == (0, 1, 3, 6, 10)
        assert [s.level for s in ops.block_systems] == [0, 1, 2, 3, 4]

    def test_number_operator_action(self):
        ops = assemble(0.5, 3)
        for level in range(4):
            for k in range(level + 1):
                h = h_vector(ops, level, k)
                np.testing.assert_allclose(
                    direct_sum(ops, "N") @ h, k * h, atol=1e-10, rtol=0
                )
                e = e_vector(ops, level, k)
                np.testing.assert_allclose(
                    direct_sum(ops, "N").conj().T @ e, k * e, atol=1e-10, rtol=0
                )
        assert ops.action_residual <= 1e-10

    def test_ladder_action_across_tower(self):
        ops = assemble(0.4, 3)
        for level in range(4):
            for k in range(level + 1):
                h = h_vector(ops, level, k)
                down = math.sqrt(k) * h_vector(ops, level, k - 1) if k else 0.0 * h
                np.testing.assert_allclose(
                    direct_sum(ops, "a") @ h, down, atol=1e-10, rtol=0
                )
                up = (
                    math.sqrt(k + 1) * h_vector(ops, level, k + 1)
                    if k < level
                    else 0.0 * h
                )
                np.testing.assert_allclose(
                    direct_sum(ops, "b") @ h, up, atol=1e-10, rtol=0
                )

    def test_projections(self):
        # A level's projection is the identity on its coordinate slice
        # offsets[M] : offsets[M] + M + 1 and zero elsewhere.
        ops = assemble(0.6, 3)
        projections = []
        for level, off in enumerate(ops.offsets):
            p = np.zeros((total_dim(ops), total_dim(ops)), dtype=complex)
            p[off : off + level + 1, off : off + level + 1] = np.eye(level + 1)
            projections.append(p)
        total = np.zeros((total_dim(ops), total_dim(ops)), dtype=complex)
        big_a = direct_sum(ops, "a")
        for i, p in enumerate(projections):
            np.testing.assert_allclose(p @ p, p, atol=1e-10, rtol=0)
            np.testing.assert_allclose(p, p.conj().T, atol=1e-12, rtol=0)
            np.testing.assert_allclose(p @ big_a, big_a @ p, atol=1e-10, rtol=0)
            for j, q in enumerate(projections):
                if i != j:
                    np.testing.assert_allclose(
                        p @ q, np.zeros_like(p), atol=1e-10, rtol=0
                    )
            total += p
        np.testing.assert_allclose(total, np.eye(total_dim(ops)), atol=1e-10, rtol=0)

    def test_dense_operators_are_block_diagonal(self):
        ops = assemble(0.6, 3)
        for key in ("a", "b", "N"):
            dense = direct_sum(ops, key)
            assert not dense.flags.writeable
            off_block = np.ones(dense.shape, dtype=bool)
            for system, off in zip(ops.block_systems, ops.offsets):
                level = slice(off, off + system.level + 1)
                assert np.array_equal(dense[level, level], getattr(system, key))
                off_block[level, level] = False
            assert not np.any(dense[off_block])

    def test_orthonormal_limit(self):
        ops = assemble(0.0, 3)
        for system in ops.block_systems:
            eye = np.eye(system.basis.dim)
            np.testing.assert_allclose(system.S_h, eye, atol=1e-12, rtol=0)
            np.testing.assert_allclose(system.S_e, eye, atol=1e-12, rtol=0)
        np.testing.assert_allclose(
            direct_sum(ops, "b"), direct_sum(ops, "a").conj().T, atol=1e-12, rtol=0
        )

    def test_vector_range_checks(self):
        ops = assemble(0.5, 2)
        with pytest.raises(ValueError):
            h_vector(ops, 3, 0)
        with pytest.raises(ValueError):
            h_vector(ops, 1, 2)
        with pytest.raises(ValueError):
            e_vector(ops, -1, 0)


class TestResolutionReport:
    @pytest.mark.parametrize("gamma", [0.3, 0.9])
    def test_resolution_of_identity(self, gamma):
        report = global_resolution_check(assemble(gamma, 4))
        assert report.resolution_residual <= 1e-10

    def test_intertwining_on_basis(self):
        report = global_resolution_check(assemble(0.9, 4))
        assert report.intertwining_residual <= 1e-8

    def test_metric_norm_growth(self):
        report = global_resolution_check(assemble(0.5, 6))
        norms = np.asarray(report.s_h_block_norms)
        assert norms.shape == (7,)
        assert np.all(np.diff(norms) > 0)
        np.testing.assert_allclose(norms, 1.5 ** np.arange(7.0), atol=0, rtol=1e-10)
        duals = np.asarray(report.s_e_block_norms)
        np.testing.assert_allclose(duals, 2.0 ** np.arange(7.0), atol=0, rtol=1e-10)

    def test_condition_number_growth(self):
        report = global_resolution_check(assemble(0.9, 4))
        conds = np.asarray(report.s_h_block_conditions)
        np.testing.assert_allclose(conds, 19.0 ** np.arange(5.0), atol=0, rtol=1e-8)


DENSE_GRID = [(g, m) for g in (0.5, 0.3 + 0.2j, 0.9) for m in (0, 4, 12)]


class TestDenseOracle:
    # The ids name the realization: every level is in the Cholesky gauge.
    @pytest.mark.parametrize(
        "gamma, max_level", DENSE_GRID, ids=[f"{g}-{m}-cholesky" for g, m in DENSE_GRID]
    )
    def test_matches_dense_construction(self, gamma, max_level):
        ops = assemble(gamma, max_level)
        report = global_resolution_check(ops)
        big_a, big_b, big_n, action, resolution, intertwining = dense_assembly(ops)
        assert np.array_equal(direct_sum(ops, "a"), big_a)
        assert np.array_equal(direct_sum(ops, "b"), big_b)
        assert max_abs(direct_sum(ops, "N") - big_n) <= 1e-15 * max_abs(big_n)
        # Each pair is one rounding error summed in two orders.  The
        # intertwining residual is absolute, so its floor is one rounding
        # unit of its largest term, max|S_e| max|N| max|h| over the blocks.
        term = max(
            max_abs(s.S_e) * max_abs(s.N) * max_abs(s.basis.h_matrix)
            for s in ops.block_systems
        )
        for blockwise, dense, floor in (
            (ops.action_residual, action, 1e-15),
            (report.resolution_residual, resolution, 1e-15),
            (report.intertwining_residual, intertwining, np.finfo(float).eps * term),
        ):
            assert abs(blockwise - dense) <= 1e-3 * dense or max(blockwise, dense) < floor
