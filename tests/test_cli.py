"""End-to-end tests of the command-line interface."""

import json
import subprocess
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose

import edmp.cli
from edmp.cli import main
from edmp.errors import NumericalFailure
from edmp.matio import load_matrix, matrix_to_csv, matrix_to_json, parse_matrix_text
from edmp.model import DistanceMatrix
from edmp.oracle import InstanceSpec, gen_unit_spherical
from conftest import ANTIPODAL, SQUARE, TRIANGLE


@pytest.fixture
def triangle_file(tmp_path):
    path = tmp_path / "triangle.csv"
    path.write_text("\n".join(",".join(str(x) for x in row) for row in TRIANGLE))
    return str(path)


@pytest.fixture
def square_file(tmp_path):
    path = tmp_path / "square.csv"
    path.write_text("\n".join(",".join(str(x) for x in row) for row in SQUARE))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyze:
    def test_triangle(self, capsys, triangle_file):
        code, out, _ = run_cli(capsys, "analyze", triangle_file)
        assert code == 0
        doc = json.loads(out)
        prof = doc["profile"]
        assert prof["embedding_dim"] == 2
        assert prof["unit_spherical"] is True
        assert prof["radius"] == pytest.approx(1.0)
        assert_allclose(prof["w"], [0.5, -0.5, 0.5], atol=1e-10)

    def test_square_regular(self, capsys, square_file):
        code, out, _ = run_cli(capsys, "analyze", square_file)
        doc = json.loads(out)
        assert doc["profile"]["regular"] is True
        assert doc["profile"]["gale_columns"] == 1

    def test_deterministic_output(self, capsys, triangle_file):
        _, first, _ = run_cli(capsys, "analyze", triangle_file)
        _, second, _ = run_cli(capsys, "analyze", triangle_file)
        assert first == second

    def test_malformed_csv_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("0,1\n1,0,2\n")
        code, _, err = run_cli(capsys, "analyze", str(bad))
        assert code == 2 and err

    def test_missing_file_exits_2(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "analyze", str(tmp_path / "nope.csv"))
        assert code == 2

    def test_not_an_edm_exits_3(self, capsys, tmp_path):
        bad = tmp_path / "noedm.csv"
        bad.write_text("0,1,9\n1,0,1\n9,1,0\n")
        code, _, _ = run_cli(capsys, "analyze", str(bad))
        assert code == 3

    def test_env_tolerance_override(self, capsys, triangle_file, monkeypatch):
        monkeypatch.setenv("EDMP_TOL", "1e-7")
        _, out, _ = run_cli(capsys, "analyze", triangle_file)
        tolerances = json.loads(out)["diagnostics"]["tolerances"]
        # EDMP_TOL moves the rank cut alone; the other cutoffs are constants.
        assert tolerances["rank_rel"] == 1e-7
        assert tolerances["psd_abs_scale"] == 1e-9
        assert tolerances["recon_rel"] == 1e-8

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_csv_exits_2(self, capsys, tmp_path, cell):
        bad = tmp_path / "nonfinite.csv"
        bad.write_text(f"0,1,3\n1,0,{cell}\n3,{cell},0\n")
        code, out, err = run_cli(capsys, "analyze", str(bad))
        assert code == 2 and out == ""
        assert err.startswith("error: ")
        assert err.endswith(f"squared distances must be finite, got {cell} at entry (2,3)\n")

    def test_asymmetric_csv_exits_2(self, capsys, tmp_path):
        upper = tmp_path / "upper.csv"
        upper.write_text("\n".join(",".join(str(x) for x in row) for row in np.triu(SQUARE)))
        code, out, err = run_cli(capsys, "analyze", str(upper))
        assert code == 2 and out == ""
        assert err == ("error: invalid matrix content: distance matrix must be symmetric: "
                       "entry (1,3) is 4.0 but (3,1) is 0.0\n")

    def test_scaled_input_with_gale_basis(self, capsys, tmp_path):
        # n=8, r=5 has a two-column Gale basis; 1e12 m^2 is the same shape in mm^2.
        d = gen_unit_spherical(InstanceSpec(n=8, r=5, seed=0))
        path = tmp_path / "scaled.csv"
        path.write_text(matrix_to_csv(DistanceMatrix(1e12 * d.d)))
        code, out, err = run_cli(capsys, "analyze", str(path))
        assert code == 0 and err == ""
        prof = json.loads(out)["profile"]
        assert prof["embedding_dim"] == 5 and prof["gale_columns"] == 2
        assert prof["radius"] == pytest.approx(1e6, rel=1e-12)

    @pytest.mark.parametrize("scale", [1e-310, 1e-200, 1e160, 1e307])
    def test_out_of_range_scale_exits_2(self, capsys, tmp_path, scale):
        # Subnormal entries and entries whose squares overflow are rejected by
        # name before any factorization, with no numpy warning.
        path = tmp_path / "scaled.csv"
        path.write_text("\n".join(",".join(str(x) for x in row) for row in scale * SQUARE))
        code, out, err = run_cli(capsys, "analyze", str(path))
        assert code == 2 and out == ""
        assert err == (f"error: invalid matrix content: largest squared distance {4.0 * scale} "
                       "at entry (1,3) is outside [1e-150, 1e150] in magnitude\n")

    @pytest.mark.parametrize("scale", [1e-150, 1e150])
    def test_scale_range_edges_are_accepted(self, capsys, tmp_path, scale):
        # SQUARE / 4 has largest entry 1, so the largest entry sits on the edge.
        path = tmp_path / "edge.csv"
        path.write_text("\n".join(",".join(str(x) for x in row)
                                  for row in scale * (SQUARE / 4.0)))
        code, out, err = run_cli(capsys, "analyze", str(path))
        assert code == 0 and err == ""
        prof = json.loads(out)["profile"]
        assert prof["embedding_dim"] == 2
        assert prof["radius"] == pytest.approx(0.5 * np.sqrt(scale), rel=1e-12)

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_env_tolerance_exits_2(self, capsys, triangle_file, monkeypatch,
                                              value):
        monkeypatch.setenv("EDMP_TOL", value)
        code, out, err = run_cli(capsys, "analyze", triangle_file)
        assert code == 2 and out == ""
        assert err.startswith(f"error: invalid EDMP_TOL value '{value}'")
        assert f"rank_rel={value}" in err


class TestEntry:
    def test_triangle_pair(self, capsys, triangle_file):
        code, out, _ = run_cli(capsys, "entry", triangle_file, "--k", "1", "--l", "2")
        assert code == 0
        entry = json.loads(out)["entry"]
        assert entry["case"] == "PairUnit"
        assert entry["t_eq"]["kind"] == "pair"
        assert_allclose(entry["t_eq"]["values"], [0.0, 3.0], atol=1e-9)
        assert_allclose([entry["t_leq"]["lo"], entry["t_leq"]["hi"]], [0.0, 3.0],
                        atol=1e-9)
        assert entry["cross_check"]["max_rel_closed_vs_oracle"] <= 1e-8

    def test_antipodal_singleton(self, capsys, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text(matrix_to_csv(parse_matrix_text(
            "\n".join(",".join(str(x) for x in row) for row in ANTIPODAL))))
        code, out, _ = run_cli(capsys, "entry", str(path), "--k", "1", "--l", "2")
        entry = json.loads(out)["entry"]
        assert entry["case"] == "SingletonUnit"
        assert_allclose([entry["yielding_interval"]["lo"],
                         entry["yielding_interval"]["hi"]], [-4.0, 2.0], atol=1e-9)

    def test_square_trivial(self, capsys, square_file):
        _, out, _ = run_cli(capsys, "entry", square_file, "--k", "1", "--l", "2")
        entry = json.loads(out)["entry"]
        assert entry["case"] == "TleqTrivial"
        assert entry["t_leq"] == {"lo": 0.0, "hi": 0.0}

    def test_index_out_of_range_exits_5(self, capsys, triangle_file):
        code, _, _ = run_cli(capsys, "entry", triangle_file, "--k", "1", "--l", "7")
        assert code == 5
        code, _, _ = run_cli(capsys, "entry", triangle_file, "--k", "2", "--l", "2")
        assert code == 5
        code, _, _ = run_cli(capsys, "entry", triangle_file, "--k", "0", "--l", "2")
        assert code == 5

    def test_not_unit_spherical_exits_4(self, capsys, tmp_path):
        scaled = tmp_path / "big.csv"
        scaled.write_text("\n".join(",".join(str(4 * x) for x in row) for row in TRIANGLE))
        code, _, _ = run_cli(capsys, "entry", str(scaled), "--k", "1", "--l", "2")
        assert code == 4

    def test_degenerate_thetas_serialized_by_name(self, capsys, square_file):
        # Antiparallel dual rows: both closed-form endpoints are unbounded,
        # but the entry report still succeeds through theta_c.
        code, out, _ = run_cli(capsys, "entry", square_file, "--k", "1", "--l", "3")
        assert code == 0
        entry = json.loads(out)["entry"]
        assert entry["theta_upper"] == {"degenerate": True,
                                        "error": "DegenerateDenominator"}
        assert entry["case"] == "ContinuumUnit"

    def test_degenerate_classification_reported(self, capsys, triangle_file,
                                                 monkeypatch):
        from edmp import DegenerateDenominator
        import edmp.cli as cli_mod

        def boom(prof, entry):
            raise DegenerateDenominator("synthetic")

        monkeypatch.setattr(cli_mod, "classify", boom)
        code, out, _ = run_cli(capsys, "entry", triangle_file, "--k", "1", "--l", "2")
        assert code == 0
        entry = json.loads(out)["entry"]
        assert entry["degenerate"] is True
        assert entry["error"] == "DegenerateDenominator"


class TestSweep:
    HEADER = "t,is_edm,is_spherical,radius_sq_closed_form,radius_sq_oracle,in_t_leq,in_t_eq"

    def test_header_and_unperturbed_row(self, capsys, triangle_file):
        code, out, _ = run_cli(capsys, "sweep", triangle_file,
                               "--k", "1", "--l", "3", "--num", "25", "--margin", "1")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == self.HEADER
        rows = [line.split(",") for line in lines[1:]]

        def row_at(target):
            best = min(rows, key=lambda cells: abs(float(cells[0]) - target))
            assert abs(float(best[0]) - target) <= 1e-9
            return best

        # Grid [-4, 2] with 25 points lands on -3 and 0 (up to rounding).
        assert row_at(0.0)[6] == "true"
        at_minus3 = row_at(-3.0)
        assert_allclose(float(at_minus3[4]), 0.25, atol=1e-8)
        assert at_minus3[6] == "false"

    def test_closed_form_vs_oracle_inside(self, capsys, triangle_file):
        _, out, _ = run_cli(capsys, "sweep", triangle_file,
                            "--k", "1", "--l", "2", "--num", "33", "--margin", "0.25")
        for line in out.strip().splitlines()[1:]:
            cells = line.split(",")
            if cells[5] == "true" and cells[3] and cells[4]:
                assert abs(float(cells[3]) - float(cells[4])) <= 1e-8

    def test_constant_case_leaves_closed_form_blank(self, capsys, square_file):
        _, out, _ = run_cli(capsys, "sweep", square_file,
                            "--k", "1", "--l", "3", "--num", "9", "--margin", "0.5")
        for line in out.strip().splitlines()[1:]:
            assert line.split(",")[3] == ""

    def test_bad_num_exits_2(self, capsys, triangle_file):
        code, _, _ = run_cli(capsys, "sweep", triangle_file,
                             "--k", "1", "--l", "2", "--num", "1")
        assert code == 2

    @pytest.mark.parametrize("margin", ["-1", "-0.25", "-1e-300"])
    def test_negative_margin_exits_2(self, capsys, triangle_file, margin):
        code, _, err = run_cli(capsys, "sweep", triangle_file,
                               "--k", "1", "--l", "2", "--margin", margin)
        assert code == 2
        assert "--margin must be nonnegative" in err


class TestVerify:
    def test_small_run_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--count", "5", "--seed", "11")
        assert code == 0
        assert "result: PASS" in out
        assert "first failing seed: none" in out

    def test_deterministic_summary(self, capsys):
        _, first, _ = run_cli(capsys, "verify", "--count", "4", "--seed", "11")
        _, second, _ = run_cli(capsys, "verify", "--count", "4", "--seed", "11")
        assert first == second

    def test_injected_failure_exits_1(self, capsys, radius_off_one):
        code, out, _ = run_cli(capsys, "verify", "--count", "1", "--seed", "11")
        assert code == 1
        assert "result: FAIL" in out


class TestGen:
    def test_round_trip_csv(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "gen", "--n", "5", "--r", "3", "--seed", "4")
        assert code == 0
        path = tmp_path / "gen.csv"
        path.write_text(out)
        d = load_matrix(path)
        rendered = matrix_to_csv(d)
        reparsed = parse_matrix_text(rendered)
        assert np.array_equal(d.d, reparsed.d)

    def test_round_trip_json_bit_exact(self, capsys):
        _, out, _ = run_cli(capsys, "gen", "--n", "5", "--r", "3", "--seed", "4",
                            "--format", "json")
        d = parse_matrix_text(out)
        again = parse_matrix_text(matrix_to_json(d))
        assert np.array_equal(d.d, again.d)

    def test_gen_then_analyze(self, capsys, tmp_path):
        _, out, _ = run_cli(capsys, "gen", "--n", "4", "--r", "2",
                            "--structure", "parallel-gale", "--k", "1", "--l", "3",
                            "--seed", "42")
        path = tmp_path / "g.csv"
        path.write_text(out)
        code, out2, _ = run_cli(capsys, "analyze", str(path))
        assert code == 0
        assert json.loads(out2)["profile"]["unit_spherical"] is True
        code, out3, _ = run_cli(capsys, "entry", str(path), "--k", "1", "--l", "3")
        assert json.loads(out3)["entry"]["yielding"] is True

    def test_infeasible_exits_6(self, capsys):
        code, _, _ = run_cli(capsys, "gen", "--n", "3", "--r", "3")
        assert code == 6
        code, _, _ = run_cli(capsys, "gen", "--n", "5", "--r", "2",
                             "--structure", "parallel-gale", "--k", "1", "--l", "2")
        assert code == 6

    @pytest.mark.parametrize("pair, message", [
        (["--k", "1"], "--k and --l must be given together"),
        (["--l", "2"], "--k and --l must be given together"),
        (["--k", "2", "--l", "2"], "diagonal entries cannot be perturbed"),
    ], ids=["k-without-l", "l-without-k", "diagonal"])
    def test_bad_entry_exits_6(self, capsys, pair, message):
        code, out, err = run_cli(capsys, "gen", "--n", "5", "--r", "4", *pair)
        assert code == 6
        assert out == ""
        assert message in err

    def test_numerical_failure_exits_7(self, capsys, monkeypatch):
        def no_convergence(spec, tol):
            raise NumericalFailure(f"instance generation did not converge for {spec}")

        monkeypatch.setattr(edmp.cli, "gen_unit_spherical", no_convergence)
        code, out, err = run_cli(capsys, "gen", "--n", "4", "--r", "3")
        assert code == 7
        assert out == ""
        assert "did not converge" in err

    def test_comment_header_carries_spec(self, capsys):
        _, out, _ = run_cli(capsys, "gen", "--n", "4", "--r", "3", "--seed", "9")
        first = out.splitlines()[0]
        assert first.startswith("#") and "--seed 9" in first


def test_console_module_entry_point(triangle_file):
    proc = subprocess.run(
        [sys.executable, "-m", "edmp.cli", "analyze", triangle_file],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["profile"]["unit_spherical"] is True
