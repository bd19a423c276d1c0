import io
import json
import math
import re
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pcalc.cli import main

KHALIL = ["--family", "khalil", "--alpha", "0.5"]
WEIERSTRASS = ["--a", "41", "--b", "0.9", "--alpha", "2"]


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

    @pytest.mark.parametrize("text, message", [
        ("0,0\n1,y\n", "{path}:2: non-numeric vertex '1,y'"),
        ("# one vertex\n0,0\n\n", "{path}: need at least two vertices"),
    ])
    def test_vertex_file_errors(self, capsys, tmp_path, text, message):
        path = tmp_path / "verts.csv"
        path.write_text(text)
        code, out, err = run(capsys, ["polygon", "--family", "power", "--alpha", "2",
                                      "--vertices", str(path)])
        assert (code, out) == (1, "")
        assert err == "error: " + message.format(path=path) + "\n"

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
        ["deriv", *KHALIL, "--f", "(" * 400 + "t" + ")" * 400, "--t", "1"],
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


    def test_subnormal_interval_exits_2(self, capsys):
        # the endpoint probes underflow; this printed a ValueError traceback
        code, _, err = run(capsys, ["integral", *KHALIL, "--f", "1",
                                    "--a", "0", "--b", "1e-321"])
        assert code == 2
        doc = json.loads(err)
        assert doc["error"]["type"] == "QuadratureError"
        assert "below float resolution" in doc["error"]["message"]

    def test_graded_quadrature_failure_names_x(self, capsys):
        # the pole at 0.5 is reached through the graded substitution
        # x = u^m; the reported location must be x, not u
        code, _, err = run(capsys, ["integral", *KHALIL, "--f", "1/(t-0.5)",
                                    "--a", "0", "--b", "1"])
        assert code == 2
        doc = json.loads(err)
        assert doc["error"]["type"] == "QuadratureError"
        near = float(doc["error"]["message"].split("near x=")[1].split()[0])
        assert near == pytest.approx(0.5, abs=1e-6)


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


# --- the command surface -----------------------------------------------------

# the expected --help texts at 80 columns, each headed by "==== pcalc ARGV"
_HELP_CHUNKS = re.split(r"^==== pcalc (.*)\n", (Path(__file__).parent / "cli_help_80.txt")
                        .read_text(encoding="utf-8"), flags=re.M)[1:]
HELP = dict(zip(_HELP_CHUNKS[::2], _HELP_CHUNKS[1::2]))
POWER = ["--family", "power", "--alpha", "2"]


class TestSurface:
    # what a change to how the commands are declared could silently reorder:
    # per command, the argv tail, the keys of inputs, result and diagnostics,
    # the CSV header, and the keys of one nested record where there is one
    SURFACE = {
        "deriv": ([*KHALIL, "--f", "t^2", "--t", "4"], "family f t",
                  "limit formula error_estimate converged", "side levels formula_error tol",
                  "limit,formula,error_estimate,converged"),
        "integral": ([*KHALIL, "--f", "1", "--a", "0", "--b", "4"], "family f a b",
                     "value error_estimate subdivisions graded", "tol",
                     "value,error_estimate,subdivisions,graded"),
        "ftc": ([*KHALIL, "--f", "t^2", "--a", "0", "--b", "2"], "family direction f a b",
                "residual", "tol", "residual"),
        "ibp": ([*KHALIL, "--f", "t^2", "--g", "sin(t)", "--a", "0.5", "--b", "2"],
                "family f g a b", "residual", "tol", "residual"),
        "mvt": ([*KHALIL, "--f", "t^2", "--a", "1", "--b", "2"], "family f g a b",
                "c k residual bracket degenerate", "tol",
                "c,k,residual,bracket_lo,bracket_hi,degenerate"),
        "rolle": ([*KHALIL, "--f", "sin(pi*t)", "--a", "1", "--b", "2"], "family f a b",
                  "c k residual bracket degenerate", "tol",
                  "c,k,residual,bracket_lo,bracket_hi,degenerate"),
        "maxprinciple": ([*KHALIL, "--f", "sin(pi*t)", "--a", "0.2", "--b", "1"],
                         "family f a b", "c f_at_c derivative derivative_error vanishes "
                         "interior left_decreasing right_increasing", "tol",
                         "c,f_at_c,derivative,derivative_error,vanishes,interior,"
                         "left_decreasing,right_increasing"),
        "hypothesis": ([*POWER, "--t", "0.5"], "family t", "verdict_plus verdict_minus records",
                       "tol", "epsilon,h_plus,h_minus"),
        "riccati": ([*KHALIL, "--q", "t", "--u0", "1", "--T", "0.05", "--n", "16"],
                    "family q u0 T n", "certificate iterations final_delta residual "
                    "max_iterate_norm override grid u", "tol updates", "t,u"),
        "weierstrass": (["--a", "41", "--b", "0.9", "--alpha", "2", "--x", "1/3", "--m", "2"],
                        "a b alpha x m", "steps", "tol growth threshold condition",
                        "m,alpha_m,t_m,h_m,quotient,lower_bound"),
        "polygon": ([*POWER, "--vertices", "v.csv"], "family vertices grid side", "points",
                    "tol", "t,value,error_estimate,converged"),
        "compare": ([*KHALIL, "--family2", "katugampola", "--alpha2", "0.5", "--f", "t^2",
                     "--t", "1.5"], "family_1 family_2 f t", "value_1 value_2 abs_diff "
                    "ratio expected_ratio converged_1 converged_2", "tol",
                    "value_1,value_2,abs_diff,ratio,expected_ratio,converged_1,converged_2"),
    }
    NESTED = {  # result key -> keys of its (first) record
        "hypothesis": ("records", "epsilon h_plus h_minus"),
        "riccati": ("certificate", "feasible b k l1_norm q_inf margin"),
        "weierstrass": ("steps", "m alpha_m t_m t_m_float h_m quotient lower_bound"),
        "polygon": ("points", "t value error_estimate converged"),
    }

    def test_help_covers_every_command(self):
        assert list(HELP) == ["--help"] + [f"{c} --help" for c in self.SURFACE]

    @pytest.mark.parametrize("argv", list(HELP))
    def test_help_text(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("COLUMNS", "80")
        code, out, err = run(capsys, argv.split())
        assert (code, err) == (0, "")
        assert out == HELP[argv]

    @pytest.mark.parametrize("command", list(SURFACE))
    def test_key_order_and_csv_header(self, capsys, monkeypatch, tmp_path, command):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "v.csv").write_text("0,0\n1,1\n2,0\n")
        tail, inputs, result, diagnostics, header = self.SURFACE[command]
        code, out, _ = run(capsys, [command, *tail, "--format", "json"])
        assert code == 0
        doc = json.loads(out)
        assert list(doc) == ["command", "inputs", "result", "diagnostics"]
        assert list(doc["inputs"]) == inputs.split()
        assert list(doc["result"]) == result.split()
        assert list(doc["diagnostics"]) == diagnostics.split()
        if command in self.NESTED:
            key, keys = self.NESTED[command]
            record = doc["result"][key]
            assert list(record[0] if isinstance(record, list) else record) == keys.split()
        code, out, _ = run(capsys, [command, *tail, "--format", "csv"])
        assert code == 0
        lines = out.splitlines()
        assert lines[1 if command == "riccati" else 0] == header


class TestCommandLookup:
    # arguments go onto the subparser of the first token that is not an
    # option; the top-level parser has no option that takes a value, so a
    # token before the command is the command argparse reads, and refuses

    def test_short_help(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        assert run(capsys, ["-h"]) == (0, HELP["--help"], "")

    @pytest.mark.parametrize("head", [["--"], ["--tol", "1e-6"], ["-5"]])
    def test_a_token_before_the_command(self, capsys, head):
        code, out, err = run(capsys, [*head, "deriv", *KHALIL, "--f", "t^2", "--t", "4"])
        assert (code, out) == (1, "")
        assert err.startswith(f"error: argument command: invalid choice: '{head[-1]}' "
                              "(choose from 'deriv', 'integral', ")

    def test_an_option_before_the_command(self, capsys):
        argv = ["--format", "deriv", "deriv", *KHALIL, "--f", "t", "--t", "1"]
        code, out, err = run(capsys, argv)
        assert (code, out, err) == (1, "", "error: unrecognized arguments: --format deriv\n")


# --- fuzzing ---------------------------------------------------------------

# Each flag draws from a fixed pool: mostly legal values, one time in eight a
# hostile one (malformed or non-finite numbers, negatives, empty strings,
# garbled or deep expressions).  Sizes stay small (--n, --m, short
# intervals); the slowest run seen, ftc on exp(exp(t)) over [1, 3], takes
# about 5 s, every other one well under a second.
_BAD_NUMBERS = ("-1", "-0", "1e-300", "nan", "inf", "-inf", "", "abc",
                "1/3", "0x10", "1e999", " 2", "--")
_BAD_EXPRS = ("ln(t)", "1/t", "sqrt(t-2)", "gamma(t)", "t^t^t", "exp(exp(t))",
              "corpus:nosuch", "y", "t +", "((t", "", "2*", "\u00e9", "t t", "1e999*t",
              "(" * 150 + "t" + ")" * 150, "t" + "+t" * 150, "-" * 120 + "t")
_NUMBER = (("0", "0.5", "1", "2", "0.25", "1.5", "3"), _BAD_NUMBERS)
_EXPR = (("t", "t^2", "sin(t)", "abs(t-1)", "exp(-(t^2))", "t^3-t", "cos(t)", "1",
          "corpus:gauss", "corpus:abs"), _BAD_EXPRS)
_INT = (("16", "17", "32"), ("2", "0", "-3", "2.5", "", "x", "1e3"))
_SIDE = (("both", "left", "right"), ("up", ""))
_FAMILIES = (  # legal family flags
    ("--family", "khalil", "--alpha", "0.5"), ("--family", "katugampola", "--alpha", "0.3"),
    ("--family", "gfd", "--alpha", "0.5", "--beta", "1.5"),
    ("--family", "nderiv", "--alpha", "0.5"), ("--family", "nderiv", "--alpha", "1", "--F", "t+1"),
    ("--family", "cosine", "--alpha", "0.8"), ("--family", "power", "--alpha", "2"),
    ("--family", "custom", "--p", "t + h*t"), ("--family", "custom", "--p", "t*exp(h)"),
)
_FAMILY = {  # single flags, mixed freely, hostile values included
    "--family": (("khalil", "gfd", "custom", "power"), ("bogus", "")),
    "--alpha": (("0.5", "1.5"), _BAD_NUMBERS),
    "--beta": (("1.5",), _BAD_NUMBERS + ("1e300",)),
    "--F": (("t + 1", "t^alpha"), _BAD_EXPRS),
    "--p": (("t + h", "t + h*alpha"), ("t + abs(h)", "h", "t + y") + _BAD_EXPRS),
}
_COMMON = {"--format": (("json", "csv"), ("xml",)),
           "--output": (("{out}",), ("{missing}", "")),
           "--tol": (("1e-6", "1e-8", "1e-12"), _BAD_NUMBERS),
           "--help": ((None,), ())}
_INTERVAL = {"--f": _EXPR, "--a": (("0", "0.5", "1"), _BAD_NUMBERS),
             "--b": (("1.5", "2", "3"), _BAD_NUMBERS)}
# per subcommand: the flags usually given, then the ones sometimes added
_COMMANDS = {
    "deriv": ({"--f": _EXPR, "--t": _NUMBER}, {"--side": _SIDE}),
    "integral": (_INTERVAL, {}),
    "ftc": (_INTERVAL,
            {"--direction": (("forward", "backward"), ("sideways",))}),
    "ibp": ({**_INTERVAL, "--g": _EXPR}, {}),
    "mvt": (_INTERVAL, {"--g": _EXPR}),
    "rolle": (_INTERVAL, {}),
    "maxprinciple": (_INTERVAL, {}),
    "hypothesis": ({"--t": _NUMBER},
                   {"--epsilons": (("0.1,0.01", "1e-3"), ("0.01,0.1", "a,b", "", "-1"))}),
    "riccati": ({"--q": _EXPR, "--u0": (_NUMBER[0], _BAD_NUMBERS + ("1e300",)),
                 "--T": (("0.05", "0.1", "0.5"), _BAD_NUMBERS)},
                {"--n": _INT, "--override": ((None,), ()), "--start": _NUMBER}),
    "weierstrass": ({"--a": (("3", "41", "5"), _INT[1]), "--b": (("0.9", "0.5"), _BAD_NUMBERS),
                     "--alpha": (("2", "1.5"), _BAD_NUMBERS),
                     "--x": (("1/3", "0.25", "0"), ("1/0", "x", "-1/2", "", "nan", "1e400"))},
                    {"--m": (("0", "3", "5"), ("-1", "x", "2.5"))}),
    "polygon": ({"--vertices": (("{vertices}",), ("{badvertices}", "{missing}", ""))},
                {"--grid": (("0.5,1", "0.5,1.5"), ("", "a", "nan")), "--side": _SIDE}),
    "compare": ({"--f": _EXPR, "--t": _NUMBER}, {}),
}


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(_COMMANDS) + ["bogus", "--help"]))
    usual, extra = _COMMANDS.get(command, ({}, {}))
    if command not in ("weierstrass", "bogus", "--help"):  # commands that take a family
        extra = {**extra, **_FAMILY}
        if command == "compare":
            extra.update({flag + "2": pool for flag, pool in _FAMILY.items()})
    pools = {**usual, **extra, **_COMMON}
    flags = [flag for flag in usual if draw(st.integers(0, 9))]  # mostly all present
    flags += draw(st.lists(st.sampled_from(sorted({**extra, **_COMMON})), max_size=2))
    argv = [command]
    if "--family" in extra and draw(st.integers(0, 3)):
        argv += draw(st.sampled_from(_FAMILIES))
        if command == "compare":
            argv += [a + "2" if a.startswith("--") else a
                     for a in draw(st.sampled_from(_FAMILIES))]
    for flag in flags:
        ok, bad = pools[flag]
        value = draw(st.sampled_from(bad if bad and not draw(st.integers(0, 7)) else ok))
        argv += [flag] if value is None else [flag, value]
    return argv


@pytest.fixture(scope="module")
def fuzz_paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    (root / "v.csv").write_text("0,0\n1,1\n2,0\n")
    (root / "bad.csv").write_text("0,0\n1,x\n")
    return {"out": str(root / "out.txt"), "missing": str(root / "no" / "x.txt"),
            "vertices": str(root / "v.csv"), "badvertices": str(root / "bad.csv")}


def run_quiet(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


class TestFuzz:
    @given(_argv())
    @settings(max_examples=150, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_every_argv_ends_in_a_documented_outcome(self, fuzz_paths, argv):
        argv = [a.format(**fuzz_paths) if a.startswith("{") else a for a in argv]
        code, _, err = run_quiet(argv)
        assert code in (0, 1, 2), argv
        if code == 1:
            assert err.startswith("error: "), argv
        if code == 2:
            assert err, argv

    # inputs the fuzzer found: each used to escape as a traceback or a
    # numpy RuntimeWarning, or to end in the wrong exit code
    FOUND = (
        (["--help"], 0),
        (["deriv", "--help"], 0),
        (["maxprinciple", *KHALIL, "--f", "sin(t)", "--a", "1", "--b", "inf"], 1),
        (["ftc", "--family", "gfd", "--alpha", "0.5", "--beta", "1e300",
          "--f", "sin(t)", "--a", "0", "--b", "3"], 1),
        (["riccati", "--family", "khalil", "--alpha", "1.5", "--q", "t^2",
          "--u0", "1", "--T", "1e-300"], 1),
        (["riccati", *KHALIL, "--q", "corpus:gauss", "--u0", "1e300", "--T", "0.1"], 2),
        (["riccati", *KHALIL, "--q", "0", "--u0", "1e300", "--T", "0.1", "--override"], 2),
        (["riccati", *KHALIL, "--q", "0", "--u0", "1", "--T", "0.05", "--start", "nan"], 1),
        (["hypothesis", *KHALIL, "--t", "1", "--epsilons", ","], 1),
        (["hypothesis", *KHALIL, "--t", "1", "--epsilons", "1e-2,nan"], 1),
        (["hypothesis", *KHALIL, "--t", "1", "--epsilons", "inf"], 1),
        (["deriv", "--family", "custom", "--p", "t + h*t^(1-alpha)", "--alpha", "nan",
          "--f", "t^2", "--t", "2"], 1),
        (["weierstrass", *WEIERSTRASS, "--x", "1/3", "--m", "300"], 1),
        (["weierstrass", *WEIERSTRASS, "--x", "1e5000"], 1),
        (["weierstrass", *WEIERSTRASS, "--x", "1e10000000"], 1),
        (["weierstrass", "--a", str(10 ** 400 + 1), "--b", "0.9", "--alpha", "2",
          "--x", "1/3"], 1),
        (["weierstrass", "--a", str(10 ** 63 + 1), "--b", "0.1", "--alpha", "1.01",
          "--x", "1/3", "--m", "5"], 1),
    )

    @pytest.mark.parametrize("argv, code", FOUND)
    def test_found_inputs(self, argv, code):
        got, out, err = run_quiet(argv)
        assert got == code
        assert "Traceback" not in err and "Warning" not in err
        if code == 0:
            assert out.startswith("usage: pcalc")
        else:
            assert err.startswith("error: ") or json.loads(err)["error"]
