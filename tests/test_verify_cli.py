"""Verification report plumbing and the command line front end."""

import json

import pytest

from delpezzo5 import cli, dp5
from delpezzo5.hilbert import HilbertPolynomial
from delpezzo5.verify import (CheckResult, VerificationReport, emit_json,
                              emit_text, parse_json, run_suite)


class TestReports:

    def test_linear_algebra_suite_passes(self):
        rep = run_suite("section-2")
        assert rep.status == "pass"
        assert len(rep.checks) == 2
        assert all(c.status == "pass" for c in rep.checks)

    def test_property_suite_runs_at_least_a_hundred_cases(self):
        rep = run_suite("properties")
        assert rep.status == "pass"
        assert len(rep.checks) == 6
        total = 0
        for c in rep.checks:
            assert c.actual.endswith("cases passed")
            total += int(c.actual.split()[0])
        assert total >= 100

    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError):
            run_suite("section-99")

    @pytest.mark.parametrize("degree", [0, -1])
    def test_vacuous_check_degree_rejected(self, degree):
        # hilbert-oracle promises 7 sections in degree 1; an empty or
        # degree-0 window would pass it without looking
        with pytest.raises(ValueError, match="check degree"):
            run_suite("section-3", check_degree=degree)

    def test_census_crash_is_a_failed_check(self, monkeypatch):
        def broken(model):
            raise RuntimeError("census unavailable")

        monkeypatch.setattr(dp5, "enumerate_fixed_quartics", broken)
        rep = run_suite("section-4")
        assert rep.status == "fail"
        assert len(rep.checks) == 5
        assert all(c.status == "fail" and "census unavailable" in c.actual
                   for c in rep.checks)

    def test_rnc_verdict_comes_from_the_check_dict(self, monkeypatch):
        # every piece of evidence looks right, but the check dict says no
        def rejected(model):
            return {"determinantal_equal": True, "hilbert": HilbertPolynomial([1, 4]),
                    "torus_fixed": True, "span": 4, "on_threefold": True,
                    "tangent_ambient": 31, "tangent_relative": 8, "passed": False}

        def no_census(model):
            raise RuntimeError("census not needed here")

        monkeypatch.setattr(dp5, "rnc_check", rejected)
        monkeypatch.setattr(dp5, "enumerate_fixed_quartics", no_census)
        status = {c.id: c.status for c in run_suite("section-5").checks}
        assert status["rnc-determinantal"] == "fail"
        assert status["rnc-tangent"] == "warn"

    def test_json_round_trip(self):
        rep = run_suite("section-2")
        again = parse_json(emit_json(rep))
        assert again.suite == rep.suite
        assert again.status == rep.status
        assert [c.id for c in again.checks] == [c.id for c in rep.checks]
        assert [c.actual for c in again.checks] == [c.actual for c in rep.checks]

    def test_text_output_is_deterministic(self):
        # timings are excluded from the text rendering on purpose
        assert emit_text(run_suite("section-2")) == emit_text(run_suite("section-2"))

    def test_empty_report(self):
        rep = VerificationReport(suite="empty", checks=[])
        assert rep.status == "pass"
        assert json.loads(emit_json(rep))["checks"] == []

    def test_warn_status_does_not_fail_the_suite(self):
        rep = VerificationReport(suite="synthetic", checks=[
            CheckResult("a", "something holds", "pass", "1", "1", 0.0),
            CheckResult("b", "something is reported", "warn", "reported", "31", 0.0),
        ])
        assert rep.status == "pass"
        text = emit_text(rep)
        assert "WARN" in text
        round_tripped = parse_json(emit_json(rep))
        assert round_tripped.checks[1].status == "warn"

    def test_fail_status_fails_the_suite(self):
        rep = VerificationReport(suite="synthetic", checks=[
            CheckResult("a", "something holds", "fail", "1", "2", 0.0),
        ])
        assert rep.status == "fail"


X5_TEXT = """\
ring: a6, a4, a2, a0, am2, am4, am6
weights: 6, 4, 2, 0, -2, -4, -6
gens:
3*a2^2 - 4*a4*a0 + a6*am2
2*a2*a0 - 3*a4*am2 + a6*am4
8*a0^2 - 9*a2*am2 + a6*am6
2*a0*am2 - 3*a2*am4 + a4*am6
3*am2^2 - 4*a0*am4 + a2*am6
"""

LINE_TEXT = """\
ring: a6, a4, a2, a0, am2, am4, am6
weights: 6, 4, 2, 0, -2, -4, -6
gens:
a2
a0
am2
am4
am6
"""


@pytest.fixture()
def x5_file(tmp_path):
    path = tmp_path / "x5.txt"
    path.write_text(X5_TEXT)
    return str(path)


@pytest.fixture()
def line_file(tmp_path):
    path = tmp_path / "l0.txt"
    path.write_text(LINE_TEXT)
    return str(path)


class TestCLI:

    def test_suite_exit_code(self, capsys):
        assert cli.main(["suite", "section-2"]) == 0
        out = capsys.readouterr().out
        assert "suite section-2: pass" in out

    def test_suite_json(self, capsys):
        assert cli.main(["suite", "section-2", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "pass"

    def test_global_flags_accepted_on_either_side(self, capsys):
        assert cli.main(["--format", "json", "suite", "section-2"]) == 0
        before = json.loads(capsys.readouterr().out)
        assert cli.main(["suite", "section-2", "--format", "json"]) == 0
        after = json.loads(capsys.readouterr().out)
        assert before["status"] == after["status"] == "pass"

    def test_gb(self, x5_file, capsys):
        assert cli.main(["gb", x5_file]) == 0
        out = capsys.readouterr().out
        assert out.startswith("ring: a6, a4, a2, a0, am2, am4, am6")
        assert "gens:" in out

    def test_gb_json(self, x5_file, capsys):
        assert cli.main(["gb", x5_file, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ring"] == ["a6", "a4", "a2", "a0", "am2", "am4", "am6"]
        assert len(payload["gens"]) == 5

    def test_hp(self, x5_file, capsys):
        assert cli.main(["hp", x5_file]) == 0
        out = capsys.readouterr().out
        assert "5/6*m^3" in out

    def test_hp_reports_curve_invariants_for_linear_polynomials(
            self, line_file, capsys):
        assert cli.main(["hp", line_file]) == 0
        out = capsys.readouterr().out
        assert "m + 1" in out
        assert "(degree, genus) = (1, 0)" in out

    def test_quotient(self, tmp_path, capsys):
        path = tmp_path / "i.txt"
        path.write_text("ring: x, y\nweights: 1, 1\ngens:\nx^2\nx*y\n")
        divisor = tmp_path / "d.txt"
        divisor.write_text("ring: x, y\nweights: 1, 1\ngens:\nx\n")
        assert cli.main(["quotient", str(path), str(divisor)]) == 0
        out = capsys.readouterr().out
        # (x^2, x*y) : (x) = (x, y)
        assert out.splitlines()[-2:] == ["x", "y"]

    def test_zero_divisor_is_a_note(self, tmp_path, capsys):
        path = tmp_path / "i.txt"
        path.write_text("ring: x, y\ngens:\nx^2\nx*y\n")
        zero = tmp_path / "z.txt"
        zero.write_text("ring: x, y\ngens:\n0\n")
        assert cli.main(["quotient", str(path), str(zero)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.splitlines()[0] == \
            "# quotient by the zero ideal is the unit ideal"
        assert captured.out.splitlines()[-1] == "1"
        assert cli.main(["saturate", str(path), str(zero), "--format", "json"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        payload = json.loads(captured.out)
        assert payload["gens"] == ["1"]
        assert "saturation by the zero ideal is the unit ideal" in payload["notes"]

    def test_one_variable_ring(self, tmp_path, capsys):
        path = tmp_path / "i.txt"
        path.write_text("ring: x\ngens:\nx^2\n")
        assert cli.main(["saturate", str(path)]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "1"
        divisor = tmp_path / "x.txt"
        divisor.write_text("ring: x\ngens:\nx\n")
        assert cli.main(["quotient", str(path), str(divisor)]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "x"

    def test_saturate_defaults_to_the_irrelevant_ideal(self, tmp_path, capsys):
        path = tmp_path / "i.txt"
        path.write_text("ring: x, y, z\nweights: 1, 1, 1\ngens:\nx^2\nx*y\nx*z\n")
        assert cli.main(["saturate", str(path)]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[-1].strip() == "x"

    def test_eliminate(self, tmp_path, capsys):
        path = tmp_path / "i.txt"
        path.write_text("ring: x, y\ngens:\ny - x^2\nx^4 - 1\n")
        assert cli.main(["eliminate", str(path), "--vars", "x"]) == 0
        out = capsys.readouterr().out
        assert "ring: y" in out
        assert "y^2 - 1" in out

    def test_compare_equal_exit_zero(self, x5_file, tmp_path, capsys):
        other = tmp_path / "same.txt"
        other.write_text(X5_TEXT)
        assert cli.main(["compare", x5_file, str(other)]) == 0
        assert "equal" in capsys.readouterr().out

    def test_compare_strict_containment_exit_one(self, x5_file, line_file, capsys):
        assert cli.main(["compare", x5_file, line_file]) == 1
        assert "subset" in capsys.readouterr().out

    def test_tangent(self, line_file, x5_file, capsys):
        assert cli.main(["tangent", line_file, "--within", x5_file]) == 0
        out = capsys.readouterr().out
        assert "ambient" in out and "10" in out
        assert "relative" in out and "2" in out

    def test_fixed_lines(self, capsys):
        assert cli.main(["fixed", "--degree", "1"]) == 0
        out = capsys.readouterr().out
        assert out.count("ring:") == 3

    def test_fixed_json(self, capsys):
        assert cli.main(["fixed", "--degree", "2", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["curves"]) == 5

    def test_residual(self, capsys):
        assert cli.main(["residual", "--line", "l0", "--pick", "0,4"]) == 0
        out = capsys.readouterr().out
        assert "4*m + 1" in out

    def test_residual_line_component_note(self, capsys):
        assert cli.main(["residual", "--line", "l0", "--pick", "0,3"]) == 0
        assert "component" in capsys.readouterr().out

    def test_missing_file_exit_two(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.txt")
        assert cli.main(["gb", missing]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_vacuous_check_degree_exit_two(self, capsys):
        assert cli.main(["suite", "all", "--check-degree", "-3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: check degree")

    def test_bad_pick_exit_two(self, capsys):
        assert cli.main(["residual", "--line", "l0", "--pick", "0,7"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_malformed_ideal_file_exit_two(self, tmp_path, capsys):
        good = tmp_path / "good.txt"
        good.write_text("ring: x, y\ngens:\nx*y\n")
        bad = [
            "gens:\nx + y\n",                                      # no ring line
            "ring: x, y\ngens:\n1/0*x\n",                         # zero denominator
            "ring: x, y\ngens:\nx*z\n",                           # unknown variable
            "ring: x, y\ngens:\nx y\n",                           # missing '*'
            "ring: x\nring: x, y\ngens:\nx\n",                   # repeated ring line
            "ring: x, y\nweights: 1, 2\nweights: 2, 1\ngens:\nx\n",  # repeated weights
        ]
        for k, text in enumerate(bad):
            path = tmp_path / f"bad{k}.txt"
            path.write_text(text)
            for argv in (["gb", str(path)], ["compare", str(path), str(good)]):
                assert cli.main(argv) == 2, (argv[0], text)
                assert capsys.readouterr().err.startswith("error:")
        assert cli.main(["eliminate", str(good), "--vars", "z"]) == 2
        assert capsys.readouterr().err.startswith("error:")
