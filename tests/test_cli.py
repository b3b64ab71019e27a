import json

import numpy as np
import pytest

from pseudofermion import fixtures
from pseudofermion.blocks import build_block_system, fixture_basis
from pseudofermion.cli import (
    FIXTURE_TOL,
    Check,
    ReportDocument,
    deserialize_matrix,
    main,
    parse_expression,
    run_block,
    run_gram,
    serialize_matrix,
)


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
        assert run_block(0.7, 3, "cholesky").to_json() == run_block(
            0.7, 3, "cholesky"
        ).to_json()

    def test_gram_identity_block(self):
        report = run_gram(0.0, 4)
        assert report.all_pass()
        np.testing.assert_allclose(
            report.matrices["gram"], np.eye(5), atol=1e-14, rtol=0
        )


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

    @pytest.mark.parametrize("text", ["sin(x)", "__import__('os')", "y", "x @ x"])
    def test_rejects_non_arithmetic(self, text):
        with pytest.raises(ValueError):
            parse_expression(text)


class TestExitCodes:
    def test_success(self, capsys):
        assert main(["gram", "--gamma", "0.5", "--level", "2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == "pfl-1"
        assert all(item["pass"] for item in payload["checks"])

    def test_block_fixture_success(self, capsys):
        assert (
            main(["block", "--gamma", "0.4", "--level", "1", "--mode", "fixture"])
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert {"a", "b", "N", "S_h", "S_e"} <= set(payload["matrices"])

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
        assert (
            main(["block", "--gamma", "0.5i", "--level", "1", "--mode", "fixture"])
            == 2
        )
        capsys.readouterr()
        # refused by the library's own validation
        for argv in (
            ["gram", "--gamma", "0.5", "--level", "31"],
            ["assemble", "--gamma", "0.5", "--max-level", "-1"],
            ["assemble", "--gamma", "0.5", "--mode", "fixture", "--max-level", "3"],
            ["assemble", "--gamma", "1.2", "--max-level", "2"],
            ["bicoherent", "--n", "0"],
            ["bicoherent", "--n", "3", "--quad", "0"],
            ["verify-fixtures", "--gamma", "0"],
            ["gram", "--gamma", "nan", "--level", "2"],
            ["verify-fixtures", "--gamma", "nan"],
            ["nogo", "--theta", "inf"],
            ["nogo", "--theta", "0.3", "--kernel-tol", "nan"],
        ):
            assert main(argv) == 2, argv
            captured = capsys.readouterr()
            assert captured.out == "", argv
            assert captured.err.startswith("error: "), argv

    def test_honest_check_failure(self, capsys):
        # an absurd kernel tolerance makes kernel_empty fail without any
        # parameter being invalid
        assert main(["nogo", "--theta", "0.3", "--kernel-tol", "10"]) == 1
        payload = json.loads(capsys.readouterr().out)
        failed = [item for item in payload["checks"] if not item["pass"]]
        assert failed

    def test_nogo_commutative_point(self, capsys):
        assert main(["nogo", "--theta", "0"]) == 0
        payload = json.loads(capsys.readouterr().out)
        names = [item["name"] for item in payload["checks"]]
        assert "kernel_dimension_one" in names

    def test_bicoherent_with_symbol(self, capsys):
        assert main(["bicoherent", "--n", "4", "--symbol", "x"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "upper_symbol" in payload["matrices"]

    def test_assemble(self, capsys):
        assert main(["assemble", "--gamma", "0.5", "--max-level", "3"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "s_h_block_norms" in payload["matrices"]

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        assert (
            main(["gram", "--gamma", "0.2", "--level", "1", "--out", str(target)])
            == 0
        )
        assert capsys.readouterr().out == ""
        document = ReportDocument.from_json(target.read_text())
        assert document.command == "gram"

    def test_usage_error_from_argparse(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["gram", "--level", "2"])
        assert info.value.code == 2
        capsys.readouterr()

    def test_complex_gamma_accepted(self, capsys):
        assert main(["gram", "--gamma", "0.3+0.2i", "--level", "2"]) == 0
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
    return {"a": a, "b": b, "N": b * a, "S_h": h * h.H, "S_e": e * e.H}


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

    @pytest.mark.parametrize("gamma", ["0.05", "0.08", "0.11"])
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
