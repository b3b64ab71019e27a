import contextlib
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import pseudofermion
from oracles import direct_sum, report_json, serialize_matrix
from pseudofermion import assembly, cli, fixtures, fock
from pseudofermion.assembly import assemble
from pseudofermion.blocks import (
    EQUALITY_TOL,
    BlockSystem,
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


def encoder_cases():
    """Matrices whose text `to_json` must write as `json.dumps` of the oracle layout."""
    rng = np.random.default_rng(37)
    z = rng.normal(size=(7, 5)) + 1j * rng.normal(size=(7, 5))
    return {
        "random_complex": z,
        "random_real": rng.normal(size=(6, 3)) * 10.0 ** rng.integers(-30, 30, size=(6, 3)),
        "signed_zeros": np.array([[0.0, -0.0], [complex(-0.0, 0.0), complex(0.0, -0.0)]]),
        "subnormals": np.array([[5e-324, -5e-324, 2.225073858507201e-308, 1e-310 - 3e-320j]]),
        # repr writes 1e+16 and 1e-05 with an exponent, 1e+15 and 0.0001 without
        "exponents": np.array([[1e16, 1e-05, 1e15, 1e-4, -1e22, 1.5e300, 1.2345678901234568e17]]),
        "vector": np.array([1.0, 2.5j, -3.0]),
        "one_by_one": np.array([[0.5 - 0.25j]]),
        "scalar": np.float64(-7.25),
        "integers": np.array([[1, -2], [3, 4]]),
        "transposed": z.T,
        "strided": z[::2, ::-2],
        "fortran_order": np.asfortranarray(z),
        "no_rows": np.zeros((0, 3)),
        "no_columns": np.zeros((2, 0)),
    }


def matrix_report(matrices, residual=0.25):
    return ReportDocument("encode", {"x": [1.5, -0.0]}, matrices, [Check("c", residual, 1e-10)])


# The largest reports of the digest grid's kind, built once for the module.
LARGEST_RUNS = {
    "bicoherent": lambda: run_bicoherent(90, "0", 256, "x"),
    "assemble": lambda: run_assemble(-0.1 - 0.6j, 20),
    "block": lambda: run_block(0.3 + 0.2j, 26),
}


@pytest.fixture(scope="module")
def largest_reports():
    return {command: run() for command, run in LARGEST_RUNS.items()}


class TestEncoder:
    @pytest.mark.parametrize("case", sorted(encoder_cases()))
    def test_matrix_text_matches_json_dumps(self, case):
        report = matrix_report({"m": encoder_cases()[case], "after": np.eye(2)})
        assert report.to_json() == report_json(report)

    def test_all_cases_in_one_report(self):
        report = matrix_report(encoder_cases())
        text = report.to_json()
        assert text == report_json(report)
        assert "1e+16" in text and "1e-05" in text and "-0.0" in text and "5e-324" in text

    def test_empty_matrices_and_checks(self):
        report = ReportDocument("none", {}, {}, [])
        assert report.to_json() == report_json(report) == (
            '{"command":"none","parameters":{},"matrices":{},"checks":[],"version":"pfl-2"}'
        )

    def test_read_only_phase_gauge_views(self):
        # a level at a complex gamma reads its matrices through the phase gauge
        report = run_block(0.3 + 0.2j, 6)
        assert not any(m.flags.writeable for m in report.matrices.values())
        assert report.to_json() == report_json(report)

    @pytest.mark.parametrize("command", sorted(LARGEST_RUNS))
    def test_largest_reports_match_and_round_trip(self, command, largest_reports):
        report = largest_reports[command]
        text = report.to_json()
        assert text == report_json(report)
        clone = ReportDocument.from_json(text)
        assert list(clone.matrices) == list(report.matrices)
        for name, matrix in report.matrices.items():
            assert np.array_equal(bits(clone.matrices[name]), bits(matrix)), name

    def test_peak_memory_is_a_few_texts(self, largest_reports):
        # Rows go into the text one at a time: no nested lists of floats.
        report = largest_reports["bicoherent"]
        tracemalloc.start()
        try:
            text = report.to_json()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(text) > 400_000
        assert peak <= 4 * len(text)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["matrix", "residual"])
    def test_non_finite_value_raises_as_json_dumps(self, value, where):
        matrix = np.ones((3, 2), dtype=complex)
        if where == "matrix":
            matrix[1, 1] = complex(0.5, value)
        report = matrix_report({"m": matrix}, value if where == "residual" else 0.25)
        with pytest.raises(ValueError) as expected:
            report_json(report)
        with pytest.raises(ValueError) as raised:
            report.to_json()
        assert str(raised.value) == str(expected.value)


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


# One small invocation of each subcommand: its `pfl` argv and its run call.
SUBCOMMAND_RUNS = {
    "gram": ("gram --gamma 0.3+0.2i --level 3", lambda: run_gram(0.3 + 0.2j, 3)),
    "block": ("block --gamma 0.3+0.2i --level 4", lambda: run_block(0.3 + 0.2j, 4)),
    "nogo": ("nogo --theta 0.5 --cutoffs 4 8", lambda: run_nogo(0.5, [4, 8])),
    "assemble": (
        "assemble --gamma 0.3+0.2i --max-level 6", lambda: run_assemble(0.3 + 0.2j, 6)
    ),
    "bicoherent": (
        "bicoherent --n 6 --alpha 0.3*x --quad 64 --symbol x^2",
        lambda: run_bicoherent(6, "0.3*x", 64, "x^2"),
    ),
    "verify-fixtures": ("verify-fixtures --gamma 0.4", lambda: run_verify_fixtures(0.4)),
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
        _, run = SUBCOMMAND_RUNS[command]
        report = run()
        text = report.to_json()
        assert run().to_json() == text
        assert "\n" not in text and ", " not in text
        clone = ReportDocument.from_json(text)
        assert clone.command == command and clone.version == "pfl-2"
        assert list(clone.matrices) == list(report.matrices)
        for name, matrix in report.matrices.items():
            assert np.array_equal(bits(clone.matrices[name]), bits(matrix)), name
        assert clone.to_json() == text

    @pytest.mark.parametrize("command", sorted(SUBCOMMAND_RUNS))
    def test_main_prints_the_run_report(self, command, capsys):
        # each subcommand passes its options to its run function in order
        argv, run = SUBCOMMAND_RUNS[command]
        report = run()
        assert main(argv.split()) == (0 if report.all_pass() else 1)
        assert capsys.readouterr() == (report.to_json() + "\n", "")

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
        report = SUBCOMMAND_RUNS["assemble"][1]()
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


# A value that starts with '-', spaced from its option and joined to it by
# '=', and the exit code of both forms.
DASHED_VALUE_CASES = [
    ("gram --gamma -0.1-0.6i --level 2", "gram --gamma=-0.1-0.6i --level 2", 0),
    ("block --gamma -0.1-0.6i --level 3", "block --gamma=-0.1-0.6i --level 3", 0),
    ("assemble --gamma -0.1-0.6i --max-level 4", "assemble --gamma=-0.1-0.6i --max-level 4", 0),
    # at a theta this close to 0 the floor 5e-10 lies below KERNEL_TOL, and
    # kernel_empty expects the one value there that the closed form has
    ("nogo --theta -1e-9", "nogo --theta=-1e-9", 0),
    ("nogo --theta -0.5 --cutoffs 4 8", "nogo --theta=-0.5 --cutoffs 4 8", 0),
    ("bicoherent --n 4 --alpha -x --symbol -x", "bicoherent --n 4 --alpha=-x --symbol=-x", 0),
    (
        "bicoherent --n 4 --symbol -x^2 --alpha -0.3*x",
        "bicoherent --n 4 --symbol=-x^2 --alpha=-0.3*x",
        0,
    ),
    # a float that argparse does not take for a negative number; the
    # fixtures refuse a negative gamma
    ("verify-fixtures --gamma -1e-5", "verify-fixtures --gamma=-1e-5", 2),
]


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

    @pytest.mark.parametrize("argv", [
        "block --gamma 0.7 --level 22", "block --gamma 0.6 --level 30",
        "assemble --gamma 0.6 --max-level 30",
    ])
    def test_ill_conditioned_level_fails_named_checks(self, argv, capsys):
        # S_e = e e^+ is positive by construction: these levels are built, and
        # they fail named checks instead of being refused.
        assert main(argv.split()) == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        failed = [item["name"] for item in json.loads(captured.out)["checks"] if not item["pass"]]
        assert failed[-1].endswith("n_eigenbasis")

    def test_fixture_refusal_names_the_kernel_dual(self, capsys):
        # The level-2 fixture's e has condition 2e10 here; the null space of
        # b^+ is what float64 cannot resolve, and the refusal says so.
        assert main(["verify-fixtures", "--gamma", "1e-5"]) == 2
        assert capsys.readouterr().err.startswith(
            "error: null space of the adjoint raising matrix is not one-dimensional"
        )

    def test_honest_check_failure(self, monkeypatch, capsys):
        # A spurious zero singular value makes kernel_empty fail without any
        # parameter being invalid.
        block_values = fock._block_singular_values

        def with_zero(theta, cutoff, sector):
            # one more value, 0.0, in every block
            values, block = block_values(theta, cutoff, sector)
            blocks = np.arange(cutoff.size)
            return np.append(values, np.zeros(cutoff.size)), np.append(block, blocks)

        monkeypatch.setattr(fock, "_block_singular_values", with_zero)
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

    @pytest.mark.parametrize(
        "argv",
        [
            "nogo --theta 2 --cutoffs 5 9 13 17",
            "nogo --theta 0.5 --cutoffs 3 4",
            "nogo --theta 1.9 --cutoffs 3 5 7 9",
            "nogo --theta=-1e-9",
            "nogo --theta 4",
            "nogo --theta=-4",
            "nogo --theta 10",
        ],
    )
    def test_nogo_minima_lie_above_the_floor(self, argv, capsys):
        # sweeps that start at an odd cutoff pass too; the report carries the
        # floor beside the minima, which lie at or above it
        assert main(argv.split()) == 0
        report = ReportDocument.from_json(capsys.readouterr().out)
        floor = report.matrices["floor"]
        assert floor.shape == (1, 1)
        assert floor[0, 0] == fock.closed_form_floor(report.parameters["theta"])
        assert np.all(report.matrices["min_singular_values"].real >= floor.real)
        assert [check.name for check in report.checks] == ["floor_bound", "kernel_empty"]

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
            return BlockSystem(system.basis, core, system.anticommutator_diagonal)

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

    @pytest.mark.parametrize("where", ["directory", "missing_parent"])
    def test_unwritable_out_exits_2(self, where, tmp_path, capsys):
        target = tmp_path if where == "directory" else tmp_path / "missing" / "report.json"
        argv = ["gram", "--gamma", "0.5", "--level", "2", "--out", str(target)]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(target) in err

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
            ["gram", "--gamma=-0.1-0.6i", "--level", "2"],
            ["bicoherent", "--n", "3", "--alpha=-x"],
        ):
            assert main(argv) == 0, argv
        capsys.readouterr()

    @pytest.mark.parametrize(
        "spaced,joined,code",
        DASHED_VALUE_CASES,
        ids=[f"{spaced}-{joined}" for spaced, joined, _ in DASHED_VALUE_CASES],
    )
    def test_value_starting_with_dash(self, spaced, joined, code, capsys):
        # a value that starts with '-' follows its option with a space or '='
        assert main(spaced.split()) == code
        report = capsys.readouterr()
        assert main(joined.split()) == code
        assert capsys.readouterr() == report
        if code == 2:
            # parsed, then refused by the library: no report, one error line
            assert report.out == ""
            assert report.err.startswith("error: ") and report.err.count("\n") == 1
        else:
            assert report.err == ""
            assert ReportDocument.from_json(report.out).command == spaced.split()[0]

    def test_dashed_value_options(self):
        # every option of a single value that is not an int
        assert cli._DASHED_VALUE_OPTIONS == {"--gamma", "--theta", "--alpha", "--symbol"}

    @pytest.mark.parametrize(
        "argv", ["gram --gam -0.1-0.6i --level 2", "gram --gam=0.5 --level 2", "nogo --the 0.5"]
    )
    def test_abbreviated_option_refused(self, argv, capsys):
        # options are spelled out in full, with or without a dashed value
        with pytest.raises(SystemExit) as info:
            main(argv.split())
        assert info.value.code == 2
        assert "error: " in capsys.readouterr().err


def refuse_constant(name):
    raise ValueError(f"not JSON: {name}")


class TestStrictJson:
    @pytest.mark.parametrize(
        "argv",
        [
            ["bicoherent", "--n", "2", "--quad", "3", "--symbol=1/x"],
            ["bicoherent", "--n", "2", "--quad", "3", "--alpha=1/x"],
            ["bicoherent", "--n", "3", "--symbol", "1/(x-x)"],
            ["bicoherent", "--n", "3", "--alpha", "0*x/0"],
        ],
    )
    def test_non_finite_function_refused(self, argv, capsys):
        # a symbol or dressing that is not finite at a node is unusable
        # input, refused without a report and without a RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "finite" in captured.err
        assert "Warning" not in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            ["bicoherent", "--n", "6", "--quad", "64", "--alpha=1/x", "--symbol=1/x"],
            ["bicoherent", "--n", "4", "--symbol", "x^2"],
            ["nogo", "--theta", "0.5"],
            ["nogo", "--theta", "1e-9"],
            ["verify-fixtures", "--gamma", "0.01"],
        ],
    )
    def test_reports_parse_strictly(self, argv, capsys):
        # every number a report writes is finite: no NaN or Infinity token
        main(argv)
        payload = json.loads(capsys.readouterr().out, parse_constant=refuse_constant)
        assert payload["command"] == argv[0]

    def test_non_finite_result_exits_2(self, monkeypatch, capsys):
        # a computed NaN is not written: the error names it as non-finite
        block_values = fock._block_singular_values

        def with_nan(theta, cutoff, sector):
            # one more value, NaN, in every block
            values, block = block_values(theta, cutoff, sector)
            blocks = np.arange(cutoff.size)
            return np.append(values, np.full(cutoff.size, np.nan)), np.append(block, blocks)

        monkeypatch.setattr(fock, "_block_singular_values", with_nan)
        assert main(["nogo", "--theta", "0.3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: the nogo report holds a non-finite value")

    def test_non_finite_report_refused(self):
        report = ReportDocument("nogo", {}, {}, [Check("floor", float("nan"), 0.0)])
        with pytest.raises(ValueError):
            report.to_json()
        report = ReportDocument("nogo", {}, {"m": np.array([[np.inf]])}, [])
        with pytest.raises(ValueError):
            report.to_json()


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
            # Its 90 x 256 x 90 quadrature product is the largest of the grid.
            ["bicoherent", "--n", "90", "--quad", "256", "--alpha", "0.1*x^2",
             "--symbol", "x^3"],
        ],
    )
    def test_byte_identical_across_openblas_threads(self, argv):
        outputs = []
        for threads in ("1", "2"):
            run = run_entry(argv, OPENBLAS_NUM_THREADS=threads)
            assert run.stdout and run.returncode in (0, 1), run.stderr
            outputs.append((run.returncode, run.stdout))
        assert outputs[0] == outputs[1]


def run_entry(argv, stdout=subprocess.PIPE, **env):
    """``python -m pseudofermion.cli argv``, the ``pfl`` entry, with ``env`` added."""
    src = str(Path(pseudofermion.__file__).resolve().parents[1])
    env = dict(os.environ, **env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "pseudofermion.cli", *argv],
        env=env, stdout=stdout, stderr=subprocess.PIPE, check=False,
    )


def unwritable(kind):
    """A descriptor that refuses every write: ``/dev/full``, or a pipe with no reader."""
    if kind == "/dev/full":
        return os.open(kind, os.O_WRONLY)
    read_end, write_end = os.pipe()
    os.close(read_end)
    return write_end


GRAM_3 = ["gram", "--gamma", "0.5", "--level", "3"]


class TestSubprocessEntry:
    """`exit_main`, which ends the process without the interpreter's teardown,
    gives what `main` gives in-process: the stdout bytes, the ``--out`` bytes,
    the first stderr line and the exit code."""

    @pytest.mark.parametrize(
        "argv,to_file,code",
        [
            (GRAM_3, False, 0),
            (GRAM_3, True, 0),
            (["assemble", "--gamma", "0.5", "--max-level", "20"], False, 1),
            (["assemble", "--gamma", "0.5", "--max-level", "20"], True, 1),
            (["gram", "--gamma", "1.5", "--level", "3"], False, 2),
            # The largest report of the digest grid, about 230 kB through a pipe.
            (["bicoherent", "--n", "90", "--quad", "256"], False, 0),
        ],
    )
    def test_matches_main(self, argv, to_file, code, tmp_path, capsys):
        target = tmp_path / "report.json"
        argv = [*argv, "--out", str(target)] if to_file else argv

        def outcome(returncode, out, err):
            report = target.read_bytes() if target.exists() else None
            target.unlink(missing_ok=True)
            return returncode, out, report, err.splitlines()[:1]

        expected = outcome(main(argv), *(text.encode() for text in capsys.readouterr()))
        run = run_entry(argv)
        assert outcome(run.returncode, run.stdout, run.stderr) == expected
        assert expected[0] == code
        assert bool(expected[1] or expected[2]) == (code != 2)

    @pytest.mark.parametrize(
        "kind,reason", [("/dev/full", "No space left on device"), ("pipe", "Broken pipe")]
    )
    def test_unwritable_stdout_exits_2(self, kind, reason, capsys):
        # A report that cannot reach stdout is a write error, not a failed check.
        if kind == "/dev/full" and not os.path.exists(kind):
            pytest.skip("no /dev/full")
        handle = open(unwritable(kind), "w")
        with contextlib.redirect_stdout(handle):
            code = main(GRAM_3)
        with contextlib.suppress(OSError):
            handle.close()
        err = capsys.readouterr().err

        fd = unwritable(kind)
        run = run_entry(GRAM_3, stdout=fd)
        os.close(fd)
        assert code == run.returncode == 2
        # One line: no traceback, and no second flush at teardown.
        assert err == run.stderr.decode() == (
            f"error: cannot write the report to stdout ({reason})\n"
        )
