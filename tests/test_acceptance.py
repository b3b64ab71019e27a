"""End-to-end acceptance checks.

Each test covers one advertised guarantee of the package, prints a single
pass/fail line (visible under ``pytest -s``), and fails loudly if the
guarantee is not met at the stated tolerance.  Expected values are either
closed forms or recomputed here through routes independent of the code
being checked.
"""

import math
import time

import numpy as np

from pseudofermion import fixtures
from pseudofermion.assembly import assemble, global_resolution_check
from pseudofermion.bicoherent import (
    build_family,
    resolution_of_identity,
    states_at,
    upper_symbol,
)
from pseudofermion.blocks import (
    build_block_system,
    deformed_number_operators,
    fixture_basis,
    realize_basis_cholesky,
)
from oracles import direct_sum, e_vector, fock_expand_oracle, h_vector, overlap
from pseudofermion.fock import nogo_joint_kernel
from pseudofermion.overlaps import NCBosonParams, gram_block

GAMMA_GRID = (0.2, 0.4, 0.8)


def _verdict(label: str, ok: bool, detail: str) -> bool:
    print(f"{label}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def _fixture_system_deviation(level, gamma):
    system = build_block_system(fixture_basis(level, gamma))
    if level == 1:
        closed = fixtures.closed_form_m1(gamma)
        produced = {
            "a": system.a,
            "b": system.b,
            "N": system.N,
            "S_h": system.S_h,
            "S_e": system.S_e,
            "sqrt_S_e": system.sqrt_S_e,
            "n": system.n_selfadjoint,
            "c": system.c_matrix,
        }
        expected_e = fixtures.fixture_e_m1(gamma)
    else:
        closed = fixtures.closed_form_m2(gamma)
        produced = {
            "a": system.a,
            "b": system.b,
            "N": system.N,
            "S_h": system.S_h,
            "S_e": system.S_e,
        }
        expected_e = fixtures.fixture_e_m2(gamma)
    worst = max(
        np.max(np.abs(produced[key] - closed[key])) for key in produced
    )
    worst = max(worst, np.max(np.abs(system.basis.e_matrix - expected_e)))
    return worst, system


def test_criterion_1_level_one_closed_forms():
    start = time.perf_counter()
    worst = 0.0
    for gamma in GAMMA_GRID:
        deviation, _ = _fixture_system_deviation(1, gamma)
        worst = max(worst, deviation)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 1.0
    assert _verdict(
        "criterion 1 (level-1 closed forms)",
        ok,
        f"worst deviation {worst:.3e}, {elapsed:.3f}s",
    )


def test_criterion_2_level_two_closed_forms():
    start = time.perf_counter()
    worst = 0.0
    for gamma in GAMMA_GRID:
        deviation, system = _fixture_system_deviation(2, gamma)
        worst = max(worst, deviation)
        for ladder in (system.a, system.b):
            worst = max(worst, np.max(np.abs(np.linalg.matrix_power(ladder, 3))))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 1.0
    assert _verdict(
        "criterion 2 (level-2 closed forms, cubes vanish)",
        ok,
        f"worst deviation {worst:.3e}, {elapsed:.3f}s",
    )


def test_criterion_3_overlap_recursion():
    exact_ok = True
    for gamma in GAMMA_GRID:
        exact_ok &= overlap(1, 0, 0, 1, gamma) == gamma
        exact_ok &= overlap(2, 0, 0, 2, gamma) == gamma * gamma
        exact_ok &= abs(overlap(2, 0, 1, 1, gamma) - math.sqrt(2) * gamma) <= 1e-15
    worst = 0.0
    for gamma in GAMMA_GRID:
        params = NCBosonParams.from_gamma(gamma)
        states = [
            (n1, total - n1) for total in range(6) for n1 in range(total + 1)
        ]
        vectors = {pair: fock_expand_oracle(pair[0], pair[1], params) for pair in states}
        for n1, n2 in states:
            for k1, k2 in states:
                recursed = overlap(n1, n2, k1, k2, gamma)
                if n1 + n2 != k1 + k2:
                    expanded = 0.0
                else:
                    expanded = np.vdot(vectors[(n1, n2)], vectors[(k1, k2)])
                worst = max(worst, abs(recursed - expanded))
    ok = exact_ok and worst <= 1e-10
    assert _verdict(
        "criterion 3 (overlap recursion vs expansion oracle)",
        ok,
        f"printed values exact={exact_ok}, worst oracle gap {worst:.3e}",
    )


def test_criterion_4_anticommutator_diagonal():
    worst_diag = 0.0
    worst_off = 0.0
    identity_only_at_one = True
    for level in range(1, 6):
        system = build_block_system(
            realize_basis_cholesky(gram_block(level, 0.5))
        )
        mixed = system.basis.e_matrix.conj().T @ (
            system.a @ system.b + system.b @ system.a
        ) @ system.basis.h_matrix
        expected = np.array([2 * k + 1 for k in range(level)] + [level], dtype=float)
        worst_diag = max(worst_diag, np.max(np.abs(np.diag(mixed) - expected)))
        off = mixed - np.diag(np.diag(mixed))
        worst_off = max(worst_off, np.max(np.abs(off)))
        identity_distance = np.max(np.abs(mixed - np.eye(level + 1)))
        if level == 1:
            identity_only_at_one &= identity_distance <= 1e-10
        else:
            identity_only_at_one &= identity_distance > 0.5
    ok = worst_diag <= 1e-10 and worst_off <= 1e-10 and identity_only_at_one
    assert _verdict(
        "criterion 4 (anticommutator diagonal 1,3,...,2M-1,M)",
        ok,
        f"diag {worst_diag:.3e}, offdiag {worst_off:.3e}, "
        f"identity only at level 1: {identity_only_at_one}",
    )


def test_criterion_5_invariant_suite():
    from pseudofermion.blocks import verify_block_system

    start = time.perf_counter()
    worst = 0.0
    worst_name = ""
    for gamma in (0.0, 0.1, 0.5, 0.9, 0.5 + 0.3j):
        for level in range(7):
            system = build_block_system(
                realize_basis_cholesky(gram_block(level, gamma))
            )
            for name, residual in verify_block_system(system).items():
                if residual > worst:
                    worst, worst_name = residual, f"{name}@M={level},gamma={gamma}"
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 10.0
    assert _verdict(
        "criterion 5 (per-level invariant suite)",
        ok,
        f"worst {worst:.3e} [{worst_name}], {elapsed:.2f}s",
    )


def test_criterion_6_deformed_number_operators():
    worst = 0.0
    spectra_ok = True
    for gamma in (0.0, 0.5):
        params = NCBosonParams.from_gamma(gamma)
        for level in range(1, 4):
            ops = deformed_number_operators(params, level)
            worst = max(worst, ops.action_residual, ops.commutator_residual)
            first = np.sort(np.linalg.eigvals(ops.m1).real)
            spectra_ok &= np.allclose(first, np.arange(level + 1.0), atol=1e-8)
            spectra_ok &= np.allclose(
                ops.h_total, level * np.eye(level + 1), atol=1e-10
            )
    ok = worst <= 1e-10 and spectra_ok
    assert _verdict(
        "criterion 6 (deformed number operator eigen-actions)",
        ok,
        f"worst action/commutator residual {worst:.3e}",
    )


def test_criterion_7_joint_kernel_scan():
    commutative = nogo_joint_kernel(0.0, (4, 8, 12, 16))
    zero_ok = (
        commutative.kernel_dimension_estimate == 1
        and min(commutative.min_singular_values) <= 1e-12
    )
    monotone_ok = True
    floors = {}
    for theta in (0.3, 0.5, 1.0):
        report = nogo_joint_kernel(theta, (4, 8, 12, 16))
        values = np.asarray(report.min_singular_values)
        monotone_ok &= bool(np.all(np.diff(values) >= -1e-12))
        monotone_ok &= report.kernel_dimension_estimate == 0
        floors[theta] = values[-1]
    ok = zero_ok and monotone_ok
    assert _verdict(
        "criterion 7 (vacuum no-go singular value sweep)",
        ok,
        f"theta=0 kernel dim {commutative.kernel_dimension_estimate}, "
        f"floors {' '.join(f'{t}:{v:.4f}' for t, v in floors.items())}",
    )


def test_criterion_8_tower_assembly():
    ops = assemble(0.5, 4)
    worst = 0.0
    for level in range(5):
        for k in range(level + 1):
            h = h_vector(ops, level, k)
            e = e_vector(ops, level, k)
            down_h = math.sqrt(k) * h_vector(ops, level, k - 1) if k else 0.0 * h
            up_h = (
                math.sqrt(k + 1) * h_vector(ops, level, k + 1)
                if k < level
                else 0.0 * h
            )
            up_e = (
                math.sqrt(k + 1) * e_vector(ops, level, k + 1)
                if k < level
                else 0.0 * e
            )
            down_e = math.sqrt(k) * e_vector(ops, level, k - 1) if k else 0.0 * e
            worst = max(
                worst,
                np.max(np.abs(direct_sum(ops, "a") @ h - down_h)),
                np.max(np.abs(direct_sum(ops, "b") @ h - up_h)),
                np.max(np.abs(direct_sum(ops, "a").conj().T @ e - up_e)),
                np.max(np.abs(direct_sum(ops, "b").conj().T @ e - down_e)),
            )
    report = global_resolution_check(ops)
    norms = np.asarray(report.s_h_block_norms)
    growth_ok = bool(np.all(np.diff(norms) > 0))
    ok = worst <= 1e-10 and report.resolution_residual <= 1e-10 and growth_ok
    assert _verdict(
        "criterion 8 (assembly actions, resolution, metric growth)",
        ok,
        f"worst action {worst:.3e}, resolution {report.resolution_residual:.3e}, "
        f"norms strictly increasing: {growth_ok}",
    )


def test_criterion_9_bicoherent_family():
    worst_pairing = 0.0
    worst_resolution = 0.0
    for n_states in range(1, 6):
        family = build_family(n_states)
        for e_state, h_state in zip(*states_at(family, family.nodes)):
            worst_pairing = max(
                worst_pairing, abs(np.vdot(e_state, h_state) - 1.0)
            )
        _, residual = resolution_of_identity(family)
        worst_resolution = max(worst_resolution, residual)

    family = build_family(5)
    constant = upper_symbol(family, lambda x: np.ones_like(x))
    constant_gap = np.max(np.abs(constant - np.eye(5)))
    coordinate = upper_symbol(family, lambda x: x)
    oracle = np.zeros((5, 5))
    for k in range(4):
        oracle[k, k + 1] = oracle[k + 1, k] = (k + 1) / math.sqrt(
            (2 * k + 1) * (2 * k + 3)
        )
    coordinate_gap = np.max(np.abs(coordinate - oracle))
    ok = (
        worst_pairing <= 1e-12
        and worst_resolution <= 1e-10
        and constant_gap <= 1e-10
        and coordinate_gap <= 1e-10
    )
    assert _verdict(
        "criterion 9 (bicoherent pairing, resolution, symbols)",
        ok,
        f"pairing {worst_pairing:.3e}, resolution {worst_resolution:.3e}, "
        f"symbol gaps {constant_gap:.3e}/{coordinate_gap:.3e}",
    )
