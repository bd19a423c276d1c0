import json
import math

import pytest

from pcalc.cli import main

KHALIL = ["--family", "khalil", "--alpha", "0.5"]


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv("PCALC_TOL", raising=False)


def run(capsys, argv):
    code = main(argv)
    cap = capsys.readouterr()
    return code, cap.out, cap.err


class TestDeriv:
    def test_json_schema(self, capsys):
        code, out, err = run(capsys, ["deriv", *KHALIL, "--f", "t^2", "--t", "4"])
        assert code == 0 and err == ""
        doc = json.loads(out)
        assert set(doc) == {"command", "inputs", "result", "diagnostics"}
        assert doc["command"] == "deriv"
        assert doc["result"]["limit"] == pytest.approx(16.0, rel=1e-7)
        assert doc["result"]["formula"] == pytest.approx(16.0, rel=1e-12)
        assert doc["result"]["converged"] is True
        assert doc["diagnostics"]["side"] == "both"
        assert doc["diagnostics"]["formula_error"] is None
        assert doc["inputs"]["family"] == "khalil alpha=0.5"

    def test_formula_unavailable_is_reported(self, capsys):
        code, out, _ = run(capsys, ["deriv", *KHALIL, "--f", "corpus:abs", "--t", "1"])
        assert code == 0
        doc = json.loads(out)
        assert doc["result"]["formula"] is None
        assert doc["diagnostics"]["formula_error"]
        assert doc["result"]["limit"] == pytest.approx(1.0, rel=1e-6)

    def test_one_sided(self, capsys):
        code, out, _ = run(capsys, ["deriv", "--family", "power", "--alpha", "2",
                                    "--f", "corpus:abs", "--t", "0", "--side", "right"])
        assert code == 0
        doc = json.loads(out)
        assert doc["diagnostics"]["side"] == "right"
        assert abs(doc["result"]["limit"]) < 1e-8

    def test_csv_override(self, capsys):
        code, out, _ = run(capsys, ["deriv", *KHALIL, "--f", "t^2", "--t", "4",
                                    "--format", "csv"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "limit,formula,error_estimate,converged"
        assert len(lines) == 2
        assert lines[1].endswith(",true")


class TestIntegralCommands:
    def test_integral(self, capsys):
        code, out, _ = run(capsys, ["integral", *KHALIL, "--f", "1",
                                    "--a", "0", "--b", "4"])
        assert code == 0
        doc = json.loads(out)
        assert doc["result"]["value"] == pytest.approx(4.0, abs=1e-8)
        assert doc["result"]["graded"] is True

    def test_ftc_both_directions(self, capsys):
        for direction in ("forward", "backward"):
            code, out, _ = run(capsys, ["ftc", *KHALIL, "--direction", direction,
                                        "--f", "corpus:sin", "--a", "0", "--b", "2"])
            assert code == 0
            doc = json.loads(out)
            assert abs(doc["result"]["residual"]) < 1e-5
            assert doc["inputs"]["direction"] == direction

    def test_ibp(self, capsys):
        code, out, _ = run(capsys, ["ibp", *KHALIL, "--f", "t^2", "--g", "sin(t)",
                                    "--a", "0.5", "--b", "2"])
        assert code == 0
        doc = json.loads(out)
        assert abs(doc["result"]["residual"]) < 1e-6


class TestMeanValueCommands:
    def test_mvt(self, capsys):
        code, out, _ = run(capsys, ["mvt", *KHALIL, "--f", "t^2",
                                    "--a", "1", "--b", "2"])
        assert code == 0
        doc = json.loads(out)
        assert doc["result"]["c"] == pytest.approx(1.5, abs=1e-7)
        assert doc["result"]["k"] == pytest.approx(math.sqrt(1.5), rel=1e-6)
        assert doc["result"]["degenerate"] is False
        assert len(doc["result"]["bracket"]) == 2

    def test_mvt_two_function_form(self, capsys):
        code, out, _ = run(capsys, ["mvt", *KHALIL, "--f", "t", "--g", "sqrt(t)",
                                    "--a", "1", "--b", "2"])
        assert code == 0
        doc = json.loads(out)
        # c = 1/(4 (sqrt2 - 1)^2)  [tools/oracles.py]
        assert doc["result"]["c"] == pytest.approx(1.457106781186548, abs=1e-7)
        assert doc["result"]["k"] == pytest.approx(0.5, abs=1e-7)

    def test_mvt_csv_flattens_bracket(self, capsys):
        code, out, _ = run(capsys, ["mvt", *KHALIL, "--f", "t^2",
                                    "--a", "1", "--b", "2", "--format", "csv"])
        assert code == 0
        assert out.splitlines()[0] == "c,k,residual,bracket_lo,bracket_hi,degenerate"

    def test_rolle(self, capsys):
        code, out, _ = run(capsys, ["rolle", *KHALIL, "--f", "sin(pi*t)",
                                    "--a", "1", "--b", "2"])
        assert code == 0
        doc = json.loads(out)
        assert doc["result"]["c"] == pytest.approx(1.5, abs=1e-7)

    def test_maxprinciple(self, capsys):
        code, out, _ = run(capsys, ["maxprinciple", *KHALIL, "--f", "sin(pi*t)",
                                    "--a", "0.2", "--b", "1"])
        assert code == 0
        doc = json.loads(out)
        r = doc["result"]
        assert r["c"] == pytest.approx(0.5, abs=1e-5)
        assert r["interior"] is True
        assert r["vanishes"] is True
        assert r["left_decreasing"] is True
        assert r["right_increasing"] is True


class TestHypothesis:
    def test_default_epsilons(self, capsys):
        code, out, _ = run(capsys, ["hypothesis", *KHALIL, "--t", "1"])
        assert code == 0
        doc = json.loads(out)
        assert doc["result"]["verdict_plus"] is True
        assert doc["result"]["verdict_minus"] is True
        assert len(doc["result"]["records"]) == 7

    def test_power_minus_side_blank_in_csv(self, capsys):
        code, out, _ = run(capsys, ["hypothesis", "--family", "power", "--alpha", "2",
                                    "--t", "0.5", "--format", "csv"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "epsilon,h_plus,h_minus"
        assert all(line.endswith(",") for line in lines[1:])

    def test_custom_epsilons(self, capsys):
        code, out, _ = run(capsys, ["hypothesis", *KHALIL, "--t", "1",
                                    "--epsilons", "1e-3,1e-5"])
        assert code == 0
        assert len(json.loads(out)["result"]["records"]) == 2

    def test_malformed_epsilons(self, capsys):
        code, _, err = run(capsys, ["hypothesis", *KHALIL, "--t", "1",
                                    "--epsilons", "a,b"])
        assert code == 1
        assert "comma-separated" in err


class TestRiccati:
    ARGS = ["riccati", *KHALIL, "--q", "0", "--u0", "1", "--T", "0.05"]

    def test_csv_default_with_certificate_preamble(self, capsys):
        code, out, _ = run(capsys, self.ARGS)
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("# {")
        cert = json.loads(lines[0][2:])
        assert cert["feasible"] is True
        assert cert["k"] == pytest.approx(0.894427, abs=1e-5)
        assert lines[1] == "t,u"
        assert len(lines) == 2 + 65
        first = lines[2].split(",")
        assert float(first[0]) == 0.0
        assert float(first[1]) == 1.0

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, [*self.ARGS, "--format", "json", "--n", "32"])
        assert code == 0
        doc = json.loads(out)
        r = doc["result"]
        assert len(r["grid"]) == 33 and len(r["u"]) == 33
        assert r["certificate"]["feasible"] is True
        assert r["override"] is False
        assert r["u"][-1] == pytest.approx(0.6909830056250526, abs=1e-7)
        assert len(doc["diagnostics"]["updates"]) == r["iterations"]

    def test_infeasible_exits_2(self, capsys):
        code, _, err = run(capsys, ["riccati", *KHALIL, "--q", "0",
                                    "--u0", "1", "--T", "10"])
        assert code == 2
        assert "override" in err

    def test_infeasible_json_error_document(self, capsys):
        code, _, err = run(capsys, ["riccati", *KHALIL, "--q", "0", "--u0", "1",
                                    "--T", "10", "--format", "json"])
        assert code == 2
        doc = json.loads(err)
        assert doc["error"]["type"] == "InfeasibleCertificateError"
        assert "override" in doc["error"]["message"]


class TestWeierstrass:
    ARGS = ["weierstrass", "--a", "41", "--b", "0.9", "--alpha", "2", "--x", "0"]

    def test_csv_default(self, capsys):
        code, out, _ = run(capsys, [*self.ARGS, "--m", "3"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "m,alpha_m,t_m,h_m,quotient,lower_bound"
        assert len(lines) == 4
        first = lines[1].split(",")
        assert first[0] == "1" and first[1] == "0"
        # [tools/oracles.py]
        assert float(first[4]) == pytest.approx(115.2750243133491, rel=1e-5)
        assert float(first[5]) == pytest.approx(4.087676032694150, rel=1e-8)

    def test_json_keeps_exact_remainders(self, capsys):
        code, out, _ = run(capsys, [*self.ARGS[:-2], "--x", "1/3", "--m", "2",
                                    "--format", "json"])
        assert code == 0
        doc = json.loads(out)
        steps = doc["result"]["steps"]
        assert len(steps) == 2
        assert isinstance(steps[0]["t_m"], str)  # exact rational survives
        assert doc["diagnostics"]["condition"] is True
        assert doc["diagnostics"]["growth"] == pytest.approx(5.762811813689564)

    def test_growth_violation_is_usage_error(self, capsys):
        code, _, err = run(capsys, ["weierstrass", "--a", "9", "--b", "0.9",
                                    "--alpha", "2", "--x", "0"])
        assert code == 1
        assert "growth condition" in err


class TestPolygon:
    @pytest.fixture
    def vertices_file(self, tmp_path):
        path = tmp_path / "verts.csv"
        path.write_text("# comment line\n0,0\n\n1,1\n2,0\n")
        return str(path)

    def test_scan_at_vertices(self, capsys, vertices_file):
        code, out, _ = run(capsys, ["polygon", "--family", "power", "--alpha", "2",
                                    "--vertices", vertices_file])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "t,value,error_estimate,converged"
        assert len(lines) == 4
        for line in lines[1:]:
            cells = line.split(",")
            assert abs(float(cells[1])) < 1e-8
            assert cells[3] == "true"

    def test_grid_override(self, capsys, vertices_file):
        code, out, _ = run(capsys, ["polygon", "--family", "power", "--alpha", "2",
                                    "--vertices", vertices_file, "--grid", "0.5,1.5"])
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 3
        assert float(lines[1].split(",")[0]) == 0.5

    def test_bad_vertex_row(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0,0\n1,2,3\n")
        code, _, err = run(capsys, ["polygon", "--family", "power", "--alpha", "2",
                                    "--vertices", str(path)])
        assert code == 1
        assert ":2:" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, ["polygon", "--family", "power", "--alpha", "2",
                                    "--vertices", "/nonexistent/v.csv"])
        assert code == 1
        assert "cannot read" in err

    def test_needs_vanishing_multiplier(self, capsys, vertices_file):
        code, _, err = run(capsys, ["polygon", *KHALIL,
                                    "--vertices", vertices_file, "--grid", "1.0"])
        assert code == 1
        assert "multiplier" in err


class TestCompare:
    def test_matching_families(self, capsys):
        code, out, _ = run(capsys, ["compare", *KHALIL,
                                    "--family2", "katugampola", "--alpha2", "0.5",
                                    "--f", "t^2", "--t", "1.5"])
        assert code == 0
        doc = json.loads(out)
        r = doc["result"]
        assert r["abs_diff"] < 1e-7
        assert r["expected_ratio"] == pytest.approx(1.0)
        assert r["converged_1"] is True and r["converged_2"] is True

    def test_gfd_ratio(self, capsys):
        code, out, _ = run(capsys, ["compare", "--family", "gfd", "--alpha", "0.5",
                                    "--beta", "1.5", "--family2", "khalil",
                                    "--alpha2", "0.5", "--f", "corpus:exp",
                                    "--t", "1.2"])
        assert code == 0
        r = json.loads(out)["result"]
        # gamma(1.5)/gamma(2.0)  [tools/oracles.py]
        assert r["expected_ratio"] == pytest.approx(0.8862269254527580, rel=1e-12)
        assert r["ratio"] == pytest.approx(r["expected_ratio"], rel=1e-6)

    def test_nonfinite_ratio_serializes(self, capsys):
        code, out, _ = run(capsys, ["compare", "--family", "power", "--alpha", "2",
                                    "--family2", "power", "--alpha2", "2",
                                    "--f", "corpus:sin", "--t", "0.3"])
        assert code == 0
        r = json.loads(out)["result"]
        assert r["ratio"] == "nan"  # 0/0 goes through the non-finite encoder


class TestTolerance:
    def test_out_of_range_flag(self, capsys):
        for bad in ("0.5", "1e-13"):
            code, _, err = run(capsys, ["deriv", *KHALIL, "--f", "t", "--t", "1",
                                        "--tol", bad])
            assert code == 1
            assert "tolerance must lie" in err

    def test_env_fallback(self, capsys, monkeypatch):
        monkeypatch.setenv("PCALC_TOL", "1e-6")
        code, out, _ = run(capsys, ["deriv", *KHALIL, "--f", "t^2", "--t", "4"])
        assert code == 0
        assert json.loads(out)["diagnostics"]["tol"] == 1e-6

    def test_env_malformed(self, capsys, monkeypatch):
        monkeypatch.setenv("PCALC_TOL", "plenty")
        code, _, err = run(capsys, ["deriv", *KHALIL, "--f", "t^2", "--t", "4"])
        assert code == 1
        assert "not a number" in err

    def test_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("PCALC_TOL", "plenty")
        code, out, _ = run(capsys, ["deriv", *KHALIL, "--f", "t^2", "--t", "4",
                                    "--tol", "1e-7"])
        assert code == 0
        assert json.loads(out)["diagnostics"]["tol"] == 1e-7


class TestUsageFailures:
    CASES = (
        ["deriv", *KHALIL, "--f", "t +", "--t", "1"],
        ["deriv", *KHALIL, "--f", "corpus:nosuch", "--t", "1"],
        ["deriv", "--family", "bogus", "--f", "t", "--t", "1"],
        ["deriv", "--family", "custom", "--f", "t", "--t", "1"],
        ["deriv", *KHALIL, "--p", "t+h", "--f", "t", "--t", "1"],
        ["deriv", "--family", "khalil", "--f", "t", "--t", "1"],
        ["deriv", *KHALIL, "--f", "t"],
        ["nosuchcommand"],
        [],
    )

    def test_exit_code_1_with_message(self, capsys):
        for argv in self.CASES:
            code, out, err = run(capsys, argv)
            assert code == 1, argv
            assert err.startswith("error:"), argv
            assert out == ""

    def test_endpoint_outside_domain_is_usage(self, capsys):
        code, _, err = run(capsys, ["integral", *KHALIL, "--f", "t",
                                    "--a", "-1", "--b", "1"])
        assert code == 1
        assert "domain" in err

    def test_evaluation_failure_exits_2(self, capsys):
        # integrand leaves its own domain mid-interval
        code, _, err = run(capsys, ["integral", *KHALIL, "--f", "ln(t-2)",
                                    "--a", "0.5", "--b", "1"])
        assert code == 2
        doc = json.loads(err)
        assert doc["error"]["type"] == "EvaluationError"
        assert "domain error" in doc["error"]["message"]


class TestOutputHandling:
    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "out.json"
        code, out, _ = run(capsys, ["deriv", *KHALIL, "--f", "t^2", "--t", "4",
                                    "--output", str(target)])
        assert code == 0
        assert out == ""
        doc = json.loads(target.read_text())
        assert doc["command"] == "deriv"

    def test_unwritable_output_is_usage_error(self, capsys, tmp_path):
        target = tmp_path / "missing" / "x.json"
        code, out, err = run(capsys, ["deriv", *KHALIL, "--f", "t^2", "--t", "4",
                                      "--output", str(target)])
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: cannot write {target}: ")
        assert "Traceback" not in err

    def test_byte_identical_reruns(self, capsys):
        argv = ["riccati", *KHALIL, "--q", "0", "--u0", "1", "--T", "0.05"]
        _, first, _ = run(capsys, argv)
        _, second, _ = run(capsys, argv)
        assert first == second
        argv = ["deriv", *KHALIL, "--f", "corpus:gauss", "--t", "0.8"]
        _, first, _ = run(capsys, argv)
        _, second, _ = run(capsys, argv)
        assert first == second
