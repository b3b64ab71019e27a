import cmath
import math

import numpy as np
import pytest

from oracles import direct_sum, e_vector, h_vector, lowering_matrix, total_dim
from pseudofermion import assembly
from pseudofermion.assembly import assemble
from pseudofermion.blocks import PositivityError, max_abs, relative_residual
from pseudofermion.cli import run_assemble
from pseudofermion.overlaps import LEVEL_CAP


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
        assert ops.resolution_residual <= 1e-12

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

    @pytest.mark.parametrize("max_level", [True, 2.0, 2.5])
    def test_rejects_non_integer_level(self, max_level):
        with pytest.raises(ValueError, match=f"level must be an integer, got {max_level!r}$"):
            assemble(0.5, max_level)

    @pytest.mark.parametrize("max_level", [-1, LEVEL_CAP + 1])
    def test_rejects_level_out_of_range_before_building(self, max_level, monkeypatch):
        built, real = [], assembly.gram_block
        monkeypatch.setattr(assembly, "gram_block", lambda *args: built.append(args) or real(*args))
        with pytest.raises(ValueError, match=rf"\[0, {LEVEL_CAP}\], got {max_level}$"):
            assemble(0.5, max_level)
        assert built == []

    def test_vector_range_checks(self):
        ops = assemble(0.5, 2)
        with pytest.raises(ValueError):
            h_vector(ops, 3, 0)
        with pytest.raises(ValueError):
            h_vector(ops, 1, 2)
        with pytest.raises(ValueError):
            e_vector(ops, -1, 0)


# Each gamma is an exact modulus rotated by a phase; the certificate reads the
# |gamma| cores alone, so it must not move with the phase.
PHASES = (math.pi / 2, math.pi, -math.pi / 2, 0.7)
CERTIFICATE = ("action_residual", "resolution_residual", "intertwining_residual",
               "s_h_block_norms", "s_e_block_norms", "s_h_block_conditions")


class TestPhaseIndependence:
    @pytest.mark.parametrize("modulus", [0.5, 0.7])
    @pytest.mark.parametrize("max_level", [10, 18, 20])
    def test_certificate_depends_on_modulus_alone(self, modulus, max_level):
        for gamma in (cmath.rect(modulus, phase) for phase in PHASES):
            ops, reference = assemble(gamma, max_level), assemble(abs(gamma), max_level)
            for name in CERTIFICATE:
                assert getattr(ops, name) == getattr(reference, name), (gamma, name)

    def test_report_verdicts_depend_on_modulus_alone(self):
        # The two differ only in the phase, which global_resolution reads as
        # 1.164e-10 (failing) at 0.7i and 2.246e-11 at 0.7 if taken at gamma.
        assert run_assemble(0.7j, 18).checks == run_assemble(0.7, 18).checks


class TestResolutionReport:
    """The resolution, intertwining and metric fields of an assembly."""

    @pytest.mark.parametrize("gamma", [0.3, 0.9])
    def test_resolution_of_identity(self, gamma):
        assert assemble(gamma, 4).resolution_residual <= 1e-10

    def test_intertwining_on_basis(self):
        assert assemble(0.9, 4).intertwining_residual <= 1e-8

    # One modulus at phases 0, pi and off the real axis: the norms are
    # (1 + |gamma|)^M and (1 - |gamma|)^-M, whatever the phase.
    @pytest.mark.parametrize("gamma", [0.5, -0.5, 0.3 + 0.4j, -0.4 - 0.3j])
    def test_metric_norm_growth(self, gamma):
        ops = assemble(gamma, 6)
        r, level = abs(gamma), np.arange(7.0)
        norms = np.asarray(ops.s_h_block_norms)
        assert norms.shape == (7,)
        assert np.all(np.diff(norms) > 0)
        np.testing.assert_allclose(norms, (1 + r) ** level, atol=0, rtol=1e-10)
        duals = np.asarray(ops.s_e_block_norms)
        np.testing.assert_allclose(duals, (1 - r) ** -level, atol=0, rtol=1e-10)

    @pytest.mark.parametrize("gamma", [0.9, -0.9, 0.54 + 0.72j, -0.54 - 0.72j])
    def test_condition_number_growth(self, gamma):
        conds = np.asarray(assemble(gamma, 4).s_h_block_conditions)
        r = abs(gamma)
        expected = ((1 + r) / (1 - r)) ** np.arange(5.0)
        np.testing.assert_allclose(conds, expected, atol=0, rtol=1e-8)


# |gamma| = 0.9 admits levels up to 11: (1 - 0.9)^12 sits on the gate's floor.
DENSE_GRID = [(g, m) for g in (0.5, 0.3 + 0.2j) for m in (0, 4, 12)] + [
    (0.9, m) for m in (0, 4, 11)
] + [(-0.3133 + 0.4438j, 12), (0.1568 + 0.4631j, 12)]


class TestDenseOracle:
    def test_refuses_the_level_on_the_positivity_floor(self):
        # The gate reads the exact least Gram eigenvalue, (1 - 0.9)^12, which
        # rounds to 9.99999999999997e-13, not above POSITIVITY_TOL = 1e-12.
        with pytest.raises(PositivityError, match=r"level 12 .* 1\.000e-12"):
            assemble(0.9, 12)

    # The ids name the realization: every level is in the Cholesky gauge.
    @pytest.mark.parametrize(
        "gamma, max_level", DENSE_GRID, ids=[f"{g}-{m}-cholesky" for g, m in DENSE_GRID]
    )
    def test_matches_dense_construction(self, gamma, max_level):
        ops = assemble(gamma, max_level)
        big_a, big_b, big_n, *_ = dense_assembly(ops)
        assert np.array_equal(direct_sum(ops, "a"), big_a)
        assert np.array_equal(direct_sum(ops, "b"), big_b)
        assert max_abs(direct_sum(ops, "N") - big_n) <= 1e-15 * max_abs(big_n)
        # The residuals are certified on the |gamma| cores, so their dense
        # oracle is the same tower's at |gamma|.
        *_, action, resolution, intertwining = dense_assembly(assemble(abs(gamma), max_level))
        # Each pair is one rounding error summed in two orders.  The
        # intertwining residual is absolute, so its floor is one rounding
        # unit of its largest term, max|S_e| max|N| max|h| over the blocks.
        term = max(
            max_abs(s.S_e) * max_abs(s.N) * max_abs(s.basis.h_matrix)
            for s in ops.block_systems
        )
        for blockwise, dense, floor in (
            (ops.action_residual, action, 1e-15),
            (ops.resolution_residual, resolution, 1e-15),
            (ops.intertwining_residual, intertwining, np.finfo(float).eps * term),
        ):
            assert abs(blockwise - dense) <= 1e-3 * dense or max(blockwise, dense) < floor
