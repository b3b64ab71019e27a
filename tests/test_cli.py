import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pseudofermion
from oracles import direct_sum
from pseudofermion import assembly, cli, fixtures, fock
from pseudofermion.assembly import assemble
from pseudofermion.blocks import (
    EQUALITY_TOL,
    build_block_system,
    dual_basis_by_kernel,
    fixture_basis,
    relative_residual,
)
from pseudofermion.cli import (
    FIXTURE_TOL,
    Check,
    ReportDocument,
    deserialize_matrix,
    main,
    parse_expression,
    run_assemble,
    run_bicoherent,
    run_block,
    run_gram,
    run_nogo,
    run_verify_fixtures,
    serialize_matrix,
)


def bits(matrix):
    """The raw 64-bit words of a matrix as complex entries, for bitwise equality."""
    return np.ascontiguousarray(np.atleast_2d(matrix), dtype=complex).view(np.uint64)


class TestSerialization:
    def test_round_trip_is_bit_exact(self):
        rng = np.random.default_rng(3)
        matrix = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rows = json.loads(json.dumps(serialize_matrix(matrix)))
        assert np.array_equal(deserialize_matrix(rows), matrix)

    def test_vector_promoted_to_row(self):
        rows = serialize_matrix(np.array([1.0, 2.0]))
        assert rows == [[[1.0, 0.0], [2.0, 0.0]]]

    def test_scalar_entry_layout(self):
        assert serialize_matrix(np.array([[0.5 - 0.25j]])) == [[[0.5, -0.25]]]

    def test_signed_zeros_and_infinities_round_trip(self):
        matrix = np.array([[complex(1.0, -0.0), complex(-0.0, 2.0)],
                           [complex(np.inf, -np.inf), complex(0.0, 0.0)]])
        rows = json.loads(json.dumps(serialize_matrix(matrix)))
        assert np.array_equal(bits(deserialize_matrix(rows)), bits(matrix))


class TestCheck:
    def test_boundary_residual_passes(self):
        assert Check("edge", 1e-10, 1e-10).passed

    def test_just_over_fails(self):
        assert not Check("edge", 1.0000001e-10, 1e-10).passed

    def test_numpy_scalars_coerced(self):
        check = Check("c", np.float64(0.5), np.float64(1.0))
        payload = check.as_json()
        assert isinstance(payload["residual"], float)
        assert payload["pass"] is True


class TestReportDocument:
    def test_round_trip(self):
        report = run_gram(0.5, 2)
        clone = ReportDocument.from_json(report.to_json())
        assert clone.command == report.command
        assert clone.parameters == report.parameters
        assert [c.as_json() for c in clone.checks] == [
            c.as_json() for c in report.checks
        ]
        for name, matrix in report.matrices.items():
            assert np.array_equal(clone.matrices[name], matrix)

    def test_tampered_flag_rejected(self):
        payload = json.loads(run_gram(0.5, 2).to_json())
        payload["checks"][0]["pass"] = not payload["checks"][0]["pass"]
        with pytest.raises(ValueError, match="violates"):
            ReportDocument.from_json(json.dumps(payload))

    def test_deterministic_output(self):
        assert run_block(0.7, 3).to_json() == run_block(0.7, 3).to_json()

    def test_gram_identity_block(self):
        report = run_gram(0.0, 4)
        assert report.all_pass()
        np.testing.assert_allclose(
            report.matrices["gram"], np.eye(5), atol=1e-14, rtol=0
        )


# One small invocation of each subcommand.
SUBCOMMAND_RUNS = {
    "gram": lambda: run_gram(0.3 + 0.2j, 3),
    "block": lambda: run_block(0.3 + 0.2j, 4),
    "nogo": lambda: run_nogo(0.5, [4, 8]),
    "assemble": lambda: run_assemble(0.3 + 0.2j, 6),
    "bicoherent": lambda: run_bicoherent(6, "0.3*x", 64, "x^2"),
    "verify-fixtures": lambda: run_verify_fixtures(0.4),
}


def pfl1_text(report):
    """A report in the ``pfl-1`` layout: ``indent=2``, matrices built per entry."""
    payload = json.loads(report.to_json())
    payload["matrices"] = {
        name: [[[float(v.real), float(v.imag)] for v in row]
               for row in np.atleast_2d(np.asarray(matrix, dtype=complex))]
        for name, matrix in report.matrices.items()
    }
    payload["version"] = "pfl-1"
    return json.dumps(payload, indent=2)


class TestSchemaPfl2:
    @pytest.mark.parametrize("command", sorted(SUBCOMMAND_RUNS))
    def test_round_trip_bit_exact_and_deterministic(self, command):
        report = SUBCOMMAND_RUNS[command]()
        text = report.to_json()
        assert SUBCOMMAND_RUNS[command]().to_json() == text
        assert "\n" not in text and ", " not in text
        clone = ReportDocument.from_json(text)
        assert clone.command == command and clone.version == "pfl-2"
        assert list(clone.matrices) == list(report.matrices)
        for name, matrix in report.matrices.items():
            assert np.array_equal(bits(clone.matrices[name]), bits(matrix)), name
        assert clone.to_json() == text

    def test_assemble_level_blocks_rebuild_dense_operators(self):
        gamma, max_level = 0.3 + 0.2j, 6
        ops = assemble(gamma, max_level)
        report = ReportDocument.from_json(run_assemble(gamma, max_level).to_json())
        assert not {"A", "B", "N"} & set(report.matrices)
        dim = (max_level + 1) * (max_level + 2) // 2
        for name in ("a", "b", "N"):
            dense = direct_sum(ops, name)
            rebuilt = np.zeros((dim, dim), dtype=complex)
            for level, system in enumerate(ops.block_systems):
                block = report.matrices[f"level{level}:{name}"]
                assert np.array_equal(bits(block), bits(getattr(system, name)))
                off = level * (level + 1) // 2
                rebuilt[off : off + level + 1, off : off + level + 1] = block
            assert np.array_equal(bits(rebuilt), bits(dense))

    def test_assemble_level_twenty_report_is_small(self, tmp_path):
        target = tmp_path / "report.json"
        argv = ["assemble", "--gamma", "0.5", "--max-level", "20", "--out", str(target)]
        assert main(argv) == 1
        assert target.stat().st_size < 400_000
        report = ReportDocument.from_json(target.read_text())
        assert len(report.checks) == 445
        assert [c.name for c in report.checks if not c.passed] == [
            "global_intertwining_on_basis"
        ]
        assert sorted(report.matrices) == sorted(
            [f"level{m}:{k}" for m in range(21) for k in ("a", "b", "N")]
            + ["s_h_block_norms", "s_e_block_norms", "s_h_block_conditions"]
        )

    def test_reads_pfl1_text(self):
        ops = assemble(0.3 + 0.2j, 6)
        report = SUBCOMMAND_RUNS["assemble"]()
        report.matrices = {
            "A": direct_sum(ops, "a"), "B": direct_sum(ops, "b"), "N": direct_sum(ops, "N"),
            **report.matrices,
        }
        clone = ReportDocument.from_json(pfl1_text(report))
        assert clone.version == "pfl-1"
        assert [c.as_json() for c in clone.checks] == [c.as_json() for c in report.checks]
        for name, matrix in report.matrices.items():
            assert np.array_equal(bits(clone.matrices[name]), bits(matrix)), name


class TestParseExpression:
    def test_linear(self):
        fn = parse_expression("0.3*x")
        np.testing.assert_allclose(fn(np.array([2.0, -1.0])), [0.6, -0.3])

    def test_caret_power(self):
        np.testing.assert_allclose(parse_expression("x^2")(np.array([3.0])), [9.0])

    def test_compound(self):
        np.testing.assert_allclose(
            parse_expression("-x/2 + 1")(np.array([4.0])), [-1.0]
        )

    def test_constant_broadcasts(self):
        values = parse_expression("2.5")(np.linspace(-1, 1, 7))
        assert values.shape == (7,)
        np.testing.assert_allclose(values, 2.5)

    @pytest.mark.parametrize(
        "text", ["sin(x)", "__import__('os')", "y", "x @ x", "True", "x**False"]
    )
    def test_rejects_non_arithmetic(self, text):
        with pytest.raises(ValueError):
            parse_expression(text)


class TestExitCodes:
    def test_success(self, capsys):
        assert main(["gram", "--gamma", "0.5", "--level", "2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == "pfl-2"
        assert all(item["pass"] for item in payload["checks"])

    def test_block_fixture_success(self, capsys):
        # The fixture bases are reported by verify-fixtures, with every
        # matrix of their block systems at both levels.
        assert main(["verify-fixtures", "--gamma", "0.4"]) == 0
        report = ReportDocument.from_json(capsys.readouterr().out)
        assert len(report.matrices) == 22
        for level in (1, 2):
            basis = fixture_basis(level, 0.4)
            system = build_block_system(basis)
            for key, matrix in (
                ("h", basis.h_matrix), ("e", basis.e_matrix),
                ("a", system.a), ("b", system.b), ("N", system.N),
                ("S_h", system.S_h), ("S_e", system.S_e), ("sqrt_S_e", system.sqrt_S_e),
                ("n", system.n_selfadjoint), ("c", system.c_matrix),
                ("anticommutator_diagonal", system.anticommutator_diagonal),
            ):
                reported = report.matrices[f"m{level}:{key}"]
                assert np.array_equal(bits(reported), bits(matrix)), (level, key)

    def test_verify_fixtures_success(self, capsys):
        assert main(["verify-fixtures", "--gamma", "0.4"]) == 0
        payload = json.loads(capsys.readouterr().out)
        names = [item["name"] for item in payload["checks"]]
        assert "m1:anticommutator_identity" in names
        assert "m2:anticommutator_apart_from_identity" in names

    def test_parameter_errors(self, capsys):
        assert main(["gram", "--gamma", "1.5", "--level", "2"]) == 2
        assert main(["block", "--gamma", "0.5", "--level", "-1"]) == 2
        assert main(["nogo", "--theta", "0.3", "--cutoffs", "1"]) == 2
        assert main(["nogo", "--theta", "0.3", "--cutoffs", "8", "4"]) == 2
        capsys.readouterr()
        # refused by the library's own validation
        for argv in (
            ["gram", "--gamma", "0.5", "--level", "31"],
            ["assemble", "--gamma", "0.5", "--max-level", "-1"],
            ["assemble", "--gamma", "1.2", "--max-level", "2"],
            ["bicoherent", "--n", "0"],
            ["bicoherent", "--n", "3", "--quad", "0"],
            ["verify-fixtures", "--gamma", "0"],
            ["gram", "--gamma", "nan", "--level", "2"],
            ["verify-fixtures", "--gamma", "nan"],
            ["nogo", "--theta", "inf"],
        ):
            assert main(argv) == 2, argv
            captured = capsys.readouterr()
            assert captured.out == "", argv
            assert captured.err.startswith("error: "), argv

    def test_honest_check_failure(self, monkeypatch, capsys):
        # A spurious zero singular value makes kernel_empty fail without any
        # parameter being invalid.
        singular_values = fock._parity_singular_values

        def with_zero(theta, cutoff):
            return np.append(singular_values(theta, cutoff), 0.0)

        monkeypatch.setattr(fock, "_parity_singular_values", with_zero)
        assert main(["nogo", "--theta", "0.3"]) == 1
        payload = json.loads(capsys.readouterr().out)
        failed = [item for item in payload["checks"] if not item["pass"]]
        assert failed

    def test_nogo_commutative_point(self, capsys):
        assert main(["nogo", "--theta", "0"]) == 0
        payload = json.loads(capsys.readouterr().out)
        names = [item["name"] for item in payload["checks"]]
        assert "kernel_dimension_one" in names
        assert payload["parameters"]["kernel_tol"] == 1e-8

    def test_bicoherent_with_symbol(self, capsys):
        assert main(["bicoherent", "--n", "4", "--symbol", "x"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "upper_symbol" in payload["matrices"]

    def test_assemble(self, capsys):
        assert main(["assemble", "--gamma", "0.5", "--max-level", "3"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "s_h_block_norms" in payload["matrices"]

    def test_failed_ladder_action_exits_one(self, monkeypatch, capsys):
        # A defect in the assembled ladders is a failing check, not a
        # usage error.
        def perturbed(basis):
            system = build_block_system(basis)
            core = {**system.core, "a": system.core["a"] + 1e-6}
            return dataclasses.replace(system, core=core)

        monkeypatch.setattr(assembly, "build_block_system", perturbed)
        assert assemble(0.4, 2).action_residual > EQUALITY_TOL
        assert main(["assemble", "--gamma", "0.4", "--max-level", "2"]) == 1
        payload = json.loads(capsys.readouterr().out)
        failing = {item["name"] for item in payload["checks"] if not item["pass"]}
        assert "ladder_actions" in failing

    @pytest.mark.parametrize("where", ["returned", "climbing"])
    def test_failed_kernel_dual_exits_one(self, where, monkeypatch, capsys):
        # A defect in the kernel-built dual is a failing check, whether it
        # is added to the result or enters through the a^+ climb.
        def perturbed(h_matrix, a, b):
            if where == "climbing":
                return dual_basis_by_kernel(h_matrix, a + 1e-6, b)
            return dual_basis_by_kernel(h_matrix, a, b) + 1e-6

        monkeypatch.setattr(cli, "dual_basis_by_kernel", perturbed)
        assert main(["verify-fixtures", "--gamma", "0.4"]) == 1
        payload = json.loads(capsys.readouterr().out)
        failing = {item["name"] for item in payload["checks"] if not item["pass"]}
        assert "m2:kernel_dual" in failing
        assert failing <= {"m1:kernel_dual", "m2:kernel_dual"}

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        assert (
            main(["gram", "--gamma", "0.2", "--level", "1", "--out", str(target)])
            == 0
        )
        assert capsys.readouterr().out == ""
        document = ReportDocument.from_json(target.read_text())
        assert document.command == "gram"

    def test_mode_option_refused(self, capsys):
        # Every level is realized in the Cholesky gauge; there is no mode.
        for argv in (
            ["block", "--gamma", "0.4", "--level", "1", "--mode", "fixture"],
            ["assemble", "--gamma", "0.4", "--max-level", "2", "--mode", "cholesky"],
            # the joint-kernel threshold is the module constant fock.KERNEL_TOL
            ["nogo", "--theta", "0.3", "--kernel-tol", "nan"],
        ):
            with pytest.raises(SystemExit) as info:
                main(argv)
            assert info.value.code == 2, argv
        capsys.readouterr()

    def test_usage_error_from_argparse(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["gram", "--level", "2"])
        assert info.value.code == 2
        capsys.readouterr()

    def test_complex_gamma_accepted(self, capsys):
        for argv in (
            ["gram", "--gamma", "0.3+0.2i", "--level", "2"],
            # a value that starts with '-' is passed as --opt=value
            ["gram", "--gamma=-0.1-0.6i", "--level", "2"],
            ["bicoherent", "--n", "3", "--alpha=-x"],
        ):
            assert main(argv) == 0, argv
        capsys.readouterr()


def mpmath_fixture_m2(mp, gamma):
    """Level-2 fixture operators ``a, b, N, S_h, S_e`` computed in mpmath.

    Starts from the closed-form primal vectors of `fixtures.fixture_h_m2`
    written out at working precision; ``e = (h^-1)^+``, ``a = h D h^-1`` and
    ``b = h D^+ h^-1`` with ``D`` the level-2 lowering matrix.
    """
    g = mp.mpf(gamma)
    r2 = mp.sqrt(2)
    h = mp.matrix([[g * r2, 1, g / r2], [0, g / r2, 1], [0, 0, 1]])
    d = mp.matrix([[0, 1, 0], [0, 0, r2], [0, 0, 0]])
    h_inv = mp.inverse(h)
    e = h_inv.H
    a = h * d * h_inv
    b = h * d.T * h_inv
    return {"a": a, "b": b, "N": b * a, "S_h": h * h.H, "S_e": e * e.H, "e": e}


class TestVerifyFixturesNilpotency:
    @pytest.mark.parametrize("gamma", [0.01, 0.08, 0.4, 0.77])
    def test_order_is_sum_of_suite_residuals(self, gamma):
        # m{L}:nilpotency_order is taken from the suite's two residuals; it
        # equals the sum of the scaled matrix powers it replaced, bitwise.
        checks = {c.name: c.residual for c in run_verify_fixtures(gamma).checks}
        for level in (1, 2):
            system = build_block_system(fixture_basis(level, gamma))
            powers = sum(
                relative_residual(np.linalg.matrix_power(m, level + 1), *([m] * (level + 1)))
                for m in (system.a, system.b)
            )
            tag = f"m{level}"
            summed = checks[f"{tag}:nilpotency_a"] + checks[f"{tag}:nilpotency_b"]
            assert checks[f"{tag}:nilpotency_order"] == summed == powers


class TestVerifyFixturesSmallGamma:
    """At small gamma the level-2 metric entries grow like gamma^-4."""

    @pytest.mark.parametrize("gamma", [0.05, 0.08])
    def test_level_two_matches_high_precision(self, gamma):
        # The produced and the closed-form matrices both sit within
        # FIXTURE_TOL of the 50-digit answer, relative to its largest entry,
        # and the powers a^3, b^3 of the exact answer vanish; so the
        # scaled *_matches and nilpotency_order checks certify a right
        # answer where their absolute form failed.
        import mpmath
        system = build_block_system(fixture_basis(2, gamma))
        produced = {key: getattr(system, key) for key in ("a", "b", "N", "S_h", "S_e")}
        expected = fixtures.closed_form_m2(gamma)
        with mpmath.workdps(50):
            ref = mpmath_fixture_m2(mpmath.mp, gamma)
            for key in produced:
                exact = np.array(ref[key].tolist(), dtype=complex)
                scale = max(1.0, np.max(np.abs(exact)))
                assert np.max(np.abs(produced[key] - exact)) <= FIXTURE_TOL * scale
                assert np.max(np.abs(expected[key] - exact)) <= FIXTURE_TOL * scale
            for key in ("a", "b"):
                assert mpmath.mnorm(ref[key] ** 3, 1) < mpmath.mpf(10) ** -40

    @pytest.mark.parametrize("gamma", [0.01, 0.02, 0.05])
    def test_kernel_dual_matches_high_precision(self, gamma):
        # The dual built from ker b^+ and repeated a^+ sits within
        # FIXTURE_TOL of the 50-digit dual, relative to its largest entry
        # (~gamma^-2); so m2:kernel_dual is scaled by that entry too.
        import mpmath
        basis = fixture_basis(2, gamma)
        system = build_block_system(basis)
        e_kernel = dual_basis_by_kernel(basis.h_matrix, system.a, system.b)
        with mpmath.workdps(50):
            exact = np.array(mpmath_fixture_m2(mpmath.mp, gamma)["e"].tolist(), dtype=complex)
        assert np.max(np.abs(e_kernel - exact)) <= FIXTURE_TOL * np.max(np.abs(exact))

    @pytest.mark.parametrize("gamma", ["0.002", "0.01", "0.05", "0.08", "0.11"])
    def test_exits_zero(self, gamma, capsys):
        assert main(["verify-fixtures", "--gamma", gamma]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert all(item["pass"] for item in payload["checks"])


class TestVerifyFixturesExtremeGamma:
    """gamma^4 underflows to zero below 2^-255 and overflows above 2^255."""

    @pytest.mark.parametrize("gamma", ["1e-100", "1e-200", "1e100"])
    def test_exits_two(self, gamma, capsys):
        assert main(["verify-fixtures", "--gamma", gamma]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: fixtures require")


class TestThreadDeterminism:
    """Reports do not depend on the BLAS thread count."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["block", "--gamma", "0.7", "--level", "20"],
            ["assemble", "--gamma", "0.3+0.2i", "--max-level", "12"],
        ],
    )
    def test_byte_identical_across_openblas_threads(self, argv):
        src = str(Path(pseudofermion.__file__).resolve().parents[1])
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            run = subprocess.run(
                [sys.executable, "-m", "pseudofermion.cli", *argv],
                env=env, capture_output=True, check=False,
            )
            assert run.stdout and run.returncode in (0, 1), run.stderr
            outputs.append((run.returncode, run.stdout))
        assert outputs[0] == outputs[1]
