import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bassinv import cli, groebner, singularity
from bassinv.errors import UsageError
from bassinv.groebner import MonomialOrder
from bassinv.invariants import DuBoisTable
from bassinv.polynomials import parse, substitute_parameter

from conftest import REPO, VARS, WAHL_GRAPH, WAHL_FAMILY

GRAPH = str(WAHL_GRAPH)


def run_ok(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    assert code == 0, out
    return out


def run_json(capsys, *argv):
    return json.loads(run_ok(capsys, *argv, "--json"))


def run_err(capsys, *argv):
    code = cli.main(list(argv))
    err = capsys.readouterr().err
    return code, err


class TestAnalyze:
    def test_example_43(self, capsys):
        doc = run_json(capsys, "analyze", "z^2+y^3+x^10", "--graph", GRAPH)
        prof = doc["profile"]
        assert prof["milnor"] == 18 and prof["tjurina"] == 18
        assert prof["weights"] == [3, 10, 15] and prof["p_g"] == 1
        entries = {(c["p"], c["q"]): c for c in doc["table"]["entries"]}
        assert entries[(0, 1)]["value"] == 1
        assert entries[(1, 1)]["value"] == 1
        assert entries[(1, 0)]["value"] == 17
        assert entries[(2, 0)]["value"] == 17
        assert doc["table"]["chi"]["1"]["value"] == 16

    def test_a1(self, capsys):
        out = run_ok(capsys, "analyze", "x^2+y^2+z^2")
        assert "milnor number (mu):   1" in out
        assert "tjurina number (tau): 1" in out
        assert "weights (1, 1, 1)" in out

    def test_not_isolated_exit_2(self, capsys):
        code, err = run_err(capsys, "analyze", "x*y")
        assert code == 2 and "NotIsolated" in err

    def test_zero_polynomial_exit_2(self, capsys):
        # f = 0 has the zero matrix as multipliers and no basis
        code, err = run_err(capsys, "analyze", "0")
        assert code == 2 and "NotIsolatedError" in err

    def test_not_isolated_with_linear_multipliers_exit_2(self, capsys):
        # f has linear Jacobian multipliers, read only after certification
        code, err = run_err(capsys, "analyze", "(x+y)^2*z^2")
        assert code == 2 and "NotIsolated" in err

    def test_translated_singularity_exit_2(self, capsys):
        code, err = run_err(capsys, "analyze", "(x-1)^2+y^2+z^2")
        assert code == 2 and "SingularLocus" in err

    def test_smooth_reports_and_exits_0(self, capsys):
        code = cli.main(["analyze", "x"])
        out = capsys.readouterr().out
        assert code == 0 and "smooth" in out

    def test_parse_error_exit_3(self, capsys):
        code, err = run_err(capsys, "analyze", "z^^2")
        assert code == 3 and "syntax" in err

    def test_constant_power_past_the_bit_bound_exit_3(self, capsys):
        code, err = run_err(capsys, "analyze", "1" * 5000 + "^" + "1" * 5000)
        assert code == 3 and "syntax error at position 5001" in err

    def test_sum_power_past_the_expansion_bound_exit_3(self, capsys):
        code, err = run_err(capsys, "analyze", "(x+1)^4000+y^2+z^2")
        assert code == 3 and "syntax error at position 6" in err

    def test_unknown_variable_exit_3(self, capsys):
        code, err = run_err(capsys, "analyze", "x+w")
        assert code == 3

    def test_non_graded_with_graph_notes_family(self, capsys):
        out = run_ok(capsys, "analyze", "z^2+y^3+x^10+x^7*y",
                     "--graph", GRAPH)
        assert "use the family command" in out

    def test_unknown_order_exit_4(self, capsys):
        code, err = run_err(capsys, "analyze", "x^2+y^2+z^2",
                            "--order", "deglex")
        assert code == 4 and "invalid choice: 'deglex'" in err

    def test_lex_order_same_numbers(self, capsys):
        doc = run_json(capsys, "analyze", "z^2+y^3+x^10", "--order", "lex")
        assert doc["profile"]["milnor"] == 18

    @pytest.mark.parametrize("argv,lazard", [
        (["analyze", "z^2+y^3+x^10+x^7*y"], False),
        (["bass", WAHL_FAMILY, "--values", "0,1,2", "--graph", GRAPH,
          "--assume-chi-invariant"], False),
        (["analyze", "x^3+y^4+z^5+x*y*z"], True),
    ], ids=["analyze", "bass", "lazard"])
    def test_lex_option_reaches_no_lex_basis(self, capsys, monkeypatch,
                                             argv, lazard):
        # --order selects nothing: every basis the engine builds is in
        # grevlex, or in the weighted order of the Lazard basis, which the
        # Wahl fibers do not need (their mu comes from the principal part)
        # and T_{3,4,5} does
        orders = set()

        def recording(real):
            def run(generators, order, *args, **kwargs):
                orders.add(order)
                return real(generators, order, *args, **kwargs)
            return run

        for name in ("buchberger", "jacobian_basis"):
            monkeypatch.setattr(singularity, name,
                                recording(getattr(groebner, name)))
        run_ok(capsys, *argv, "--order", "lex")
        assert orders == {MonomialOrder.grevlex()} | (
            {MonomialOrder.weighted((2, 1, 1, 1))} if lazard else set())

    def test_staircase_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("BASSINV_MAX_STAIRCASE", "5")
        code, err = run_err(capsys, "analyze", "z^2+y^3+x^10")
        assert code == 5 and "BASSINV_MAX_STAIRCASE" in err

    def test_staircase_cap_bounds_mu(self, capsys, monkeypatch):
        # the deformed fiber: tau = 16 fits a cap of 17, mu = 18 does not
        monkeypatch.setenv("BASSINV_MAX_STAIRCASE", "17")
        code, err = run_err(capsys, "analyze", "z^2+y^3+x^10+x^7*y")
        assert code == 5 and "enumeration cap (17)" in err
        monkeypatch.setenv("BASSINV_MAX_STAIRCASE", "18")
        out = run_ok(capsys, "analyze", "z^2+y^3+x^10+x^7*y")
        assert "milnor number (mu):   18" in out
        assert "tjurina number (tau): 16" in out

    @pytest.mark.parametrize("raw", ["abc", "1e5", "10 000"])
    def test_malformed_staircase_cap_exit_4(self, capsys, monkeypatch, raw):
        monkeypatch.setenv("BASSINV_MAX_STAIRCASE", raw)
        code, err = run_err(capsys, "analyze", "z^2+y^3+x^10")
        assert code == 4
        assert "UsageError" in err and "BASSINV_MAX_STAIRCASE" in err
        assert repr(raw) in err

    @pytest.mark.parametrize("exponent", [2 ** 31 - 1, 2 ** 31])
    def test_huge_exponent_hits_the_staircase_cap(self, capsys, monkeypatch,
                                                  exponent):
        monkeypatch.delenv("BASSINV_MAX_STAIRCASE", raising=False)
        code, err = run_err(capsys, "analyze", f"x^{exponent}+y^2+z^2")
        assert code == 5
        assert err == ("error [StaircaseLimitError]: staircase exceeds the "
                       "enumeration cap (100000); raise BASSINV_MAX_STAIRCASE "
                       "to allow larger quotients\n")

    @pytest.mark.parametrize("json_view", [False, True], ids=["text", "json"])
    @pytest.mark.parametrize("text,coefficient", [
        ("2^20000*x^2+y^2+z^2", 2 ** 20000),
        ("1" * 5000 + "*x^2+y^2+z^2", (10 ** 5000 - 1) // 9),
    ], ids=["power", "literal"])
    def test_coefficient_past_the_digit_limit(self, capsys,
                                              default_digit_limit, text,
                                              coefficient, json_view):
        out = run_ok(capsys, "analyze", text, *["--json"] * json_view)
        if hasattr(sys, "set_int_max_str_digits"):
            sys.set_int_max_str_digits(0)  # to spell the expected digits
        assert f"{coefficient}*x^2 + y^2 + z^2" in out

    @pytest.mark.parametrize("json_view", [False, True], ids=["text", "json"])
    def test_library_run_past_the_digit_limit(self, default_digit_limit,
                                              json_view):
        # cli.run, unlike cli.main, leaves the interpreter's limit alone;
        # the printed polynomial parses back to the input
        text = "2^20000*x^2+y^2+z^2"
        out = cli.run(["analyze", text, *["--json"] * json_view])
        if json_view:
            printed = json.loads(out)["profile"]["polynomial"]
        else:
            printed = out.splitlines()[0].removeprefix("polynomial: ")
        assert parse(printed, VARS) == parse(text, VARS)

    def test_malformed_staircase_cap_on_a_smooth_input_exit_4(self, capsys,
                                                             monkeypatch):
        # the cap is read before the smooth report, as when the unit
        # ideal's empty staircase was enumerated
        monkeypatch.setenv("BASSINV_MAX_STAIRCASE", "abc")
        code, err = run_err(capsys, "analyze", "x+y+z^2")
        assert code == 4 and "UsageError" in err

    @pytest.mark.parametrize("text", [
        "x*y", "x^2*y^2+x^5*y+x^7", "z^2+y^3+x^10+x^7*y",
    ], ids=["euler-not-isolated", "certification-not-isolated",
            "certification"])
    def test_malformed_staircase_cap_exit_4_on_both_routes(self, capsys,
                                                           monkeypatch, text):
        # the cap is read before any basis, so no rejection comes first
        monkeypatch.setenv("BASSINV_MAX_STAIRCASE", "abc")
        code, err = run_err(capsys, "analyze", text)
        assert code == 4 and "UsageError" in err

    @pytest.mark.parametrize("text", ["z^2+y^3+x^10", "x+y^2+z^2"])
    def test_closed_stdout_exits_1_without_traceback(self, text):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "bassinv.cli", "analyze", text],
                stdout=write_end, stderr=subprocess.PIPE, text=True,
                env={**os.environ, "PYTHONPATH": str(REPO / "src")})
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (1, "")


class TestFamily:
    def test_wahl_family(self, capsys):
        doc = run_json(capsys, "family", WAHL_FAMILY, "--values", "0,1",
                       "--graph", GRAPH, "--assume-chi-invariant")
        assert doc["graded_fiber"] == "0"
        fibers = {f["value"]: f for f in doc["fibers"]}
        assert fibers["0"]["graded"] and not fibers["1"]["graded"]
        t1 = {(c["p"], c["q"]): c for c in fibers["1"]["table"]["entries"]}
        assert t1[(1, 1)] == {**t1[(1, 1)], "kind": "exact", "value": 0}
        assert t1[(0, 1)]["value"] == 1
        assert t1[(1, 0)]["value"] == 16

    def test_every_nonzero_fiber_identical(self, capsys):
        # each fiber is analyzed here on its own, so the comparison does not
        # rest on the CLI's reuse of one nonzero fiber's profile
        doc = run_json(capsys, "family", WAHL_FAMILY,
                       "--values", "0,1,2,1/2,-1/3", "--graph", GRAPH,
                       "--assume-chi-invariant")
        family = parse(WAHL_FAMILY, VARS + ("t",))
        nonzero = [f for f in doc["fibers"] if f["value"] != "0"]
        assert len(nonzero) == 4
        for fiber in nonzero:
            own = singularity.analyze(substitute_parameter(
                family, "t", Fraction(fiber["value"])))
            assert (own.tjurina, own.milnor, own.weights) == (16, 18, None)
            assert fiber["profile"] == cli._profile_json(own)
        assert all(f["table"] == nonzero[0]["table"] for f in nonzero)

    @pytest.mark.parametrize("form", ["space", "equals", "abbreviated"])
    @pytest.mark.parametrize("values", ["-1/3,0", "-1,0,1", "-2,1/2,0"])
    def test_negative_values(self, capsys, form, values):
        flag = {"space": ["--values", values],
                "equals": [f"--values={values}"],
                "abbreviated": ["--val", values]}[form]
        doc = run_json(capsys, "family", WAHL_FAMILY, *flag,
                       "--assume-chi-invariant")
        expected = sorted(Fraction(v) for v in values.split(","))
        assert [f["value"] for f in doc["fibers"]] == list(map(str, expected))

    def test_missing_flag_exit_4(self, capsys):
        code, err = run_err(capsys, "family", WAHL_FAMILY, "--values", "0,1")
        assert code == 4 and "assume-chi-invariant" in err

    def test_missing_values_exit_4(self, capsys):
        code, _ = run_err(capsys, "family", WAHL_FAMILY,
                          "--assume-chi-invariant")
        assert code == 4

    def test_parameter_free_polynomial_exit_4(self, capsys):
        code, _ = run_err(capsys, "family", "z^2+y^3+x^10", "--values", "0,1",
                          "--assume-chi-invariant")
        assert code == 4

    def test_parameter_naming_a_variable_exit_4(self, capsys):
        code, err = run_err(capsys, "family", "z^2+y^3+x^10+x^7*y",
                            "--values", "0,1", "--parameter", "x",
                            "--assume-chi-invariant")
        assert code == 4 and "--parameter" in err

    def test_empty_parameter_exit_4(self, capsys):
        code, err = run_err(capsys, "family", WAHL_FAMILY, "--values", "0,1",
                            "--parameter", "", "--assume-chi-invariant")
        assert code == 4 and "--parameter" in err

    def test_no_graded_fiber_exit_5(self, capsys):
        code, err = run_err(capsys, "family", WAHL_FAMILY, "--values", "1,2",
                            "--graph", GRAPH, "--assume-chi-invariant")
        assert code == 5 and "quasi-homogeneous" in err

    def test_bad_value_exit_4(self, capsys):
        code, _ = run_err(capsys, "family", WAHL_FAMILY, "--values", "0,oops",
                          "--assume-chi-invariant")
        assert code == 4

    @pytest.mark.parametrize("command", ["family", "bass"])
    @pytest.mark.parametrize("value", ["1e10000000", "1e-10000000",
                                       "0,-2E+1_000_000"])
    def test_huge_decimal_exponent_exit_4_at_once(self, capsys, command,
                                                  value):
        # Fraction would build 10^|e| first: 1e10000000 alone takes seconds
        start = time.perf_counter()
        code, err = run_err(capsys, command, WAHL_FAMILY, "--values", value,
                            "--graph", GRAPH, "--assume-chi-invariant")
        assert time.perf_counter() - start < 1
        assert code == 4
        assert "bad rational" in err and "power of 10 exceeds" in err

    def test_decimal_exponent_bound(self):
        # |e|*log2(10) <= 2^20, the parser's bound on a coefficient power
        assert cli._parse_values("1e5,0.5,-1/3,2.5E-3") == sorted(
            map(Fraction, ("1e5", "0.5", "-1/3", "2.5E-3")))
        assert cli._parse_values("1e315652,-1e-315652") == [
            Fraction(-1, 10 ** 315652), Fraction(10 ** 315652)]
        for text in ("1e315653", "1e-315653", "1e" + "9" * 5000):
            with pytest.raises(UsageError, match="bad rational"):
                cli._parse_values(text)

    def test_without_graph_reports_profiles_only(self, capsys):
        doc = run_json(capsys, "family", WAHL_FAMILY, "--values", "0,1",
                       "--assume-chi-invariant")
        assert "note" in doc
        assert all("table" not in f for f in doc["fibers"])


class TestBass:
    def test_theorem_41(self, capsys):
        out = run_ok(capsys, "bass", WAHL_FAMILY, "--values", "0,1",
                     "--graph", GRAPH, "--assume-chi-invariant")
        assert "NEGATIVE answer" in out
        assert "K_0(R) ⊕ stF[s,t]" in out
        assert "criterion not met" in out  # the graded fiber's verdict

    def test_verdict_json(self, capsys):
        doc = run_json(capsys, "bass", WAHL_FAMILY, "--values", "0,1",
                       "--graph", GRAPH, "--assume-chi-invariant")
        verdicts = {f["value"]: f["verdict"] for f in doc["fibers"]}
        assert verdicts["1"]["answer_to_bass"] == "negative"
        assert verdicts["1"]["nk0_vanishes"] == "yes"
        assert verdicts["1"]["nk_minus1_rank"] == {"kind": "exact", "value": 1}
        assert verdicts["0"]["nk0_vanishes"] == "no"

    def test_single_graded_input(self, capsys, tmp_path):
        a1_graph = tmp_path / "a1.json"
        a1_graph.write_text(json.dumps({
            "vertices": [{"id": 1, "genus": 0, "self_intersection": -2}],
            "edges": [],
        }))
        doc = run_json(capsys, "bass", "x^2+y^2+z^2", "--graph", str(a1_graph))
        assert doc["verdict"]["answer_to_bass"] == "not_a_counterexample"
        assert doc["verdict"]["nk_minus1_rank"] == {"kind": "exact", "value": 0}

    def test_single_non_graded_input_exit_5(self, capsys):
        code, err = run_err(capsys, "bass", "z^2+y^3+x^10+x^7*y",
                            "--graph", GRAPH)
        assert code == 5 and "quasi-homogeneous" in err

    def test_requires_graph_exit_4(self, capsys):
        code, err = run_err(capsys, "bass", WAHL_FAMILY, "--values", "0,1",
                            "--assume-chi-invariant")
        assert code == 4 and "--graph" in err

    def test_refuses_indefinite_graph(self, capsys, tmp_path):
        code, err = run_err(capsys, "bass", WAHL_FAMILY, "--values", "0,1",
                            "--graph", _indefinite_graph(tmp_path),
                            "--assume-chi-invariant")
        assert code == 5 and "negative definite" in err

    # the single-input path refuses with the family path's messages
    def test_single_input_requires_graph_exit_4(self, capsys):
        assert run_err(capsys, "bass", "z^2+y^3+x^10") == (4, _NO_GRAPH)
        assert run_err(capsys, "bass", WAHL_FAMILY, "--values", "0,1",
                       "--assume-chi-invariant") == (4, _NO_GRAPH)

    def test_single_input_refuses_indefinite_graph(self, capsys, tmp_path):
        bad = _indefinite_graph(tmp_path)
        assert run_err(capsys, "bass", "z^2+y^3+x^10", "--graph", bad) == \
            (5, _INDEFINITE)
        assert run_err(capsys, "bass", WAHL_FAMILY, "--values", "0,1",
                       "--graph", bad, "--assume-chi-invariant") == \
            (5, _INDEFINITE)

    def test_single_input_checks_weights_before_the_graph(self, capsys,
                                                          tmp_path):
        for extra in ([], ["--graph", _indefinite_graph(tmp_path)]):
            code, err = run_err(capsys, "bass", "z^2+y^3+x^10+x^7*y", *extra)
            assert code == 5 and "NoGradedFiberError" in err

    def test_family_checks_the_graded_fiber_before_definiteness(
            self, capsys, tmp_path):
        code, err = run_err(capsys, "bass", "x^2+y^2+z^3+t*x^2*y",
                            "--values", "1,2", "--graph",
                            _indefinite_graph(tmp_path),
                            "--assume-chi-invariant")
        assert code == 5 and "NoGradedFiberError" in err

    def test_values_without_flag_exit_4(self, capsys):
        assert run_err(capsys, "bass", WAHL_FAMILY, "--values", "0,1",
                       "--graph", GRAPH) == (
            4, "error [UsageError]: bass on a family needs "
               "--assume-chi-invariant\n")


_NO_GRAPH = ("error [UsageError]: --graph is required for the bass verdict "
             "(it supplies g and l)\n")
_INDEFINITE = ("error [InconsistentInputsError]: the intersection matrix is "
               "not negative definite; refusing to derive a Bass verdict "
               "from it\n")


def _indefinite_graph(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "vertices": [{"id": 1, "genus": 0, "self_intersection": -1},
                     {"id": 2, "genus": 0, "self_intersection": -1}],
        "edges": [[1, 2], [1, 2]],
    }))
    return str(bad)


def _family_args(*argv):
    return cli._build_parser().parse_args(
        ["family", *argv, "--assume-chi-invariant"])


class TestFiberTransport:
    """Fibers at nonzero values of a scaling family share one analysis."""

    @pytest.fixture
    def analyze_calls(self, monkeypatch):
        calls = []
        real = singularity.analyze

        def counting(f, order=None):
            calls.append(f)
            return real(f, order)

        monkeypatch.setattr(singularity, "analyze", counting)
        return calls

    @pytest.mark.parametrize("order", ["grevlex", "lex"])
    @pytest.mark.parametrize("family, values", [
        (WAHL_FAMILY, "-2,-1/3,0,1/2,1,7/5"),
        ("x^2+y^3+t*z^5", "-3,1/2,1,5"),        # graded nonzero fibers
        ("x^2+y^3+t*z^7+z^5", "-1,0,1/2,3"),    # weight -12 on t
    ])
    def test_transported_profiles_equal_analysis(self, analyze_calls,
                                                 family, values, order):
        args = _family_args(family, f"--values={values}", "--order", order)
        _, vals, profiles, _, _, _ = cli._analyze_family(args, False)
        assert len(analyze_calls) == (0 in vals) + 1
        F = parse(family, VARS + ("t",))
        monomial_order = getattr(MonomialOrder, order)()
        for v, profile in zip(vals, profiles):
            fiber = substitute_parameter(F, "t", v)
            assert profile == singularity.analyze(fiber, monomial_order)

    @pytest.mark.parametrize("family, p_g", [("x^2+y^3+t*z^5", 0),
                                             ("x^2+y^3+t*z^7", 1)])
    def test_graded_nonzero_fibers_carry_p_g(self, analyze_calls, family,
                                             p_g):
        args = _family_args(family, "--values=-1,2,5/3")
        _, _, profiles, graded_index, _, _ = cli._analyze_family(args, False)
        assert len(analyze_calls) == 1 and graded_index == 0
        assert [p.p_g for p in profiles] == [p_g] * 3
        assert profiles[0].weights is not None
        assert profiles[1].weights == profiles[0].weights

    def test_wahl_bass_makes_two_analyses(self, capsys, analyze_calls):
        run_ok(capsys, "bass", WAHL_FAMILY,
               "--values", "-2,-1/3,0,1/2,1,2,3,7/5", "--graph", GRAPH,
               "--assume-chi-invariant")
        assert len(analyze_calls) == 2

    def test_wahl_bass_buchberger_calls(self, capsys, monkeypatch):
        # the one analyzed nonzero fiber takes its certification basis of
        # (f) + J, 4 generators, and for mu a run on the 3 partials of its
        # principal part that stops at pure-power leads; t = 0 is graded,
        # and its only basis is such a run on its own 3 partials.  A
        # jacobian_basis run counts as one on f, when it is included, and
        # the partials.
        calls = []
        real, real_jacobian = groebner.buchberger, groebner.jacobian_basis

        def counting(*args, **kwargs):
            calls.append((len(args[0]), kwargs.get("until_finite", False)))
            return real(*args, **kwargs)

        def counting_jacobian(f, *args, with_f, **kwargs):
            calls.append((len(f.variables) + with_f,
                          kwargs.get("until_finite", False)))
            return real_jacobian(f, *args, with_f=with_f, **kwargs)

        for module in (groebner, singularity):
            monkeypatch.setattr(module, "buchberger", counting)
            monkeypatch.setattr(module, "jacobian_basis", counting_jacobian)
        run_ok(capsys, "bass", WAHL_FAMILY,
               "--values", "-2,-1/3,0,1/2,1,2,3,7/5", "--graph", GRAPH,
               "--assume-chi-invariant")
        assert calls == [(4, False), (3, True), (3, True)]

    def test_uncertified_family_analyzes_every_fiber(self, capsys,
                                                     analyze_calls):
        run_ok(capsys, "family", "x^3+y^3+z^3+t*x*y*z", "--values", "0,1,2",
               "--assume-chi-invariant")
        assert len(analyze_calls) == 3

    def test_first_smooth_fiber_is_reported(self, capsys):
        code, err = run_err(capsys, "family", "x+t*y^2", "--values=1,2",
                            "--assume-chi-invariant")
        assert code == 5 and "fiber t = 1 is smooth" in err

    def test_non_isolated_zero_fiber_after_nonzero_one(self, capsys):
        code, err = run_err(capsys, "family", "x^2+y^2+t*z^2",
                            "--values=-1,0,1", "--assume-chi-invariant")
        assert code == 2 and "NotIsolatedError" in err

    @pytest.mark.parametrize("suffix, extra", [("txt", []),
                                               ("json", ["--json"])])
    def test_eight_fiber_transcripts(self, capsys, suffix, extra):
        golden = (REPO / "fixtures" / "golden" /
                  f"wahl_bass_8fibers.{suffix}").read_text()
        out = run_ok(capsys, "bass", WAHL_FAMILY,
                     "--values=-2,-1/3,0,1/2,1,2,3,7/5", "--graph", GRAPH,
                     "--assume-chi-invariant", *extra)
        assert out.replace(GRAPH, "fixtures/wahl_resolution.json") == golden


WAHL_PRINCIPAL = "z^2+y^3+x^10"


class TestGradedGenusReuse:
    """Every table takes the graded fiber's p_g; a fiber must be graded with
    that p_g, or differ from the graded fiber only in terms of weighted
    degree above its degree."""

    @pytest.mark.parametrize("command", ["bass", "family"])
    @pytest.mark.parametrize("family, term, degree, bound", [
        # principal part x^2+y^3+z^11 at t = 1: mu 20, p_g 1, not 24 and 2
        ("x^2+y^3+z^13+t*z^11", "z^11", 66, 78),
        (WAHL_PRINCIPAL + "+t*x^2*y", "x^2*y", 16, 30),
        (WAHL_PRINCIPAL + "+t*x^5", "x^5", 15, 30),
        (WAHL_PRINCIPAL + "+t*x^7", "x^7", 21, 30),
        # a low term whose coefficient alone differs, and one that is gone
        (WAHL_PRINCIPAL + "+t*x^7*y+t*z^2", "z^2", 30, 30),
        (WAHL_PRINCIPAL + "+t*x^7*y-t*x^10+t^2*x^11", "x^10", 30, 30),
    ])
    def test_low_terms_refused(self, capsys, command, family, term, degree,
                               bound):
        code, err = run_err(capsys, command, family, "--values", "0,1",
                            "--graph", GRAPH, "--assume-chi-invariant")
        assert code == 5
        assert err.startswith("error [InconsistentInputsError]: fiber t = 1: "
                              "reusing the graded fiber's p_g")
        assert (f"the term {term} of its difference from the graded fiber "
                f"t = 0 has weighted degree {degree}, not above {bound}"
                in err)

    def test_low_term_without_graph_builds_no_table(self, capsys):
        # without a graph no table reuses p_g, so the profiles are reported
        doc = run_json(capsys, "family", "x^2+y^3+z^13+t*z^11",
                       "--values", "0,1", "--assume-chi-invariant")
        assert [(f["profile"]["milnor"], f["profile"].get("p_g"))
                for f in doc["fibers"]] == [(24, 2), (20, None)]

    def test_higher_terms_pass(self, capsys):
        # t*z^7 has degree 42 > 30 over x^2+y^3+z^5 (weights (15, 10, 6))
        doc = run_json(capsys, "family", "x^2+y^3+t*z^7+z^5",
                       "--values", "-1,0,2", "--graph", GRAPH,
                       "--assume-chi-invariant")
        assert [f["graded"] for f in doc["fibers"]] == [False, True, False]
        assert all(f["table"]["inputs"]["p_g"] == 0 for f in doc["fibers"])

    def test_graded_fibers_with_the_same_p_g_pass(self, capsys):
        # every fiber of x^2+y^3+t*z^7 at t != 0 is graded with p_g = 1,
        # though t*z^7 has exactly the degree d
        doc = run_json(capsys, "family", "x^2+y^3+t*z^7",
                       "--values", "-1,2,5/3", "--graph", GRAPH,
                       "--assume-chi-invariant")
        assert all(f["profile"]["p_g"] == f["table"]["inputs"]["p_g"] == 1
                   for f in doc["fibers"])


class TestGraphCommand:
    def test_fixture(self, capsys):
        doc = run_json(capsys, "graph", GRAPH)
        assert doc["g"] == 0 and doc["l"] == 0
        assert doc["negative_definite"] is True
        assert len(doc["intersection_matrix"]) == 7

    @pytest.mark.parametrize("extra", [[], ["--json"]], ids=["text", "json"])
    def test_path_starting_with_a_brace(self, capsys, tmp_path, monkeypatch,
                                        extra):
        (tmp_path / "{w}.json").write_bytes(WAHL_GRAPH.read_bytes())
        monkeypatch.chdir(tmp_path)
        copy = run_ok(capsys, "graph", "{w}.json", *extra)
        fixture = run_ok(capsys, "graph", GRAPH, *extra)
        assert copy != fixture
        assert copy.replace("{w}.json", GRAPH) == fixture

    def test_bad_file_exit_3(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"vertices": [{"id": 1}]}')
        code, _ = run_err(capsys, "graph", str(bad))
        assert code == 3

    def test_non_utf8_file_exit_3(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff\xfe{")
        code, err = run_err(capsys, "graph", str(bad))
        assert code == 3
        assert err.startswith("error [GraphFormatError]: graph file is not "
                              "UTF-8: ")

    def test_boolean_genus_exit_3(self, capsys, tmp_path):
        bad = tmp_path / "bool.json"
        bad.write_text('{"vertices": [{"id": 1, "genus": true, '
                       '"self_intersection": -2}]}')
        code, err = run_err(capsys, "graph", str(bad))
        assert code == 3 and "GraphFormatError" in err


class TestDeterminismAndConsistency:
    def test_byte_identical_runs(self):
        argv = ["bass", WAHL_FAMILY, "--values", "0,1", "--graph", GRAPH,
                "--assume-chi-invariant"]
        assert cli.run(argv) == cli.run(argv)
        assert cli.run(argv + ["--json"]) == cli.run(argv + ["--json"])

    def test_text_and_json_numbers_agree(self, capsys):
        argv = ["analyze", "z^2+y^3+x^10", "--graph", GRAPH]
        text = run_ok(capsys, *argv)
        doc = run_json(capsys, *argv)
        assert f"milnor number (mu):   {doc['profile']['milnor']}" in text
        assert f"tjurina number (tau): {doc['profile']['tjurina']}" in text
        # grid cells: non-dot numbers of the q-rows must match the JSON table
        entries = {(c["p"], c["q"]): c for c in doc["table"]["entries"]}
        for line in text.splitlines():
            m = re.match(r"\s+q=\s*(-?\d) \|(.*)", line)
            if not m:
                continue
            q = int(m.group(1))
            cells = m.group(2).split()
            for p, cell in enumerate(cells):
                entry = entries[(p, q)]
                if cell == "·":
                    assert entry["forced_zero"] and entry["value"] == 0
                else:
                    assert entry["value"] == int(cell)

    def test_golden_example_43(self, capsys):
        golden = (REPO / "fixtures" / "golden" /
                  "example43_analyze.txt").read_text()
        out = run_ok(capsys, "analyze", "z^2+y^3+x^10", "--graph", GRAPH)
        assert out.replace(GRAPH, "fixtures/wahl_resolution.json") == golden

    def test_golden_theorem_41(self, capsys):
        golden = (REPO / "fixtures" / "golden" / "thm41_bass.txt").read_text()
        out = run_ok(capsys, "bass", WAHL_FAMILY, "--values", "0,1",
                     "--graph", GRAPH, "--assume-chi-invariant")
        assert out.replace(GRAPH, "fixtures/wahl_resolution.json") == golden

    def test_reused_parser_matches_a_fresh_one(self):
        # the parser is built once per process: a failed parse and other
        # commands before a run must not change how it reads its arguments
        runs = [["analyze", "z^2+y^3+x^10", "--graph", GRAPH],
                ["family", WAHL_FAMILY, "--values", "-1/3,0,1",
                 "--graph", GRAPH, "--assume-chi-invariant"],
                ["analyze", "z^2+y^3+x^10+x^7*y", "--json"]]
        with pytest.raises(UsageError):
            cli.run(["analyze"])
        reused = [cli.run(argv) for argv in runs]
        assert cli._build_parser() is cli._build_parser()
        fresh = []
        for argv in runs:
            cli._build_parser.cache_clear()
            fresh.append(cli.run(argv))
        assert reused == fresh

    def test_family_fixture_file_matches_flag_form(self):
        assert WAHL_FAMILY == "z^2+y^3+x^10+t*x^7*y"


_REL_GRAPH = "fixtures/wahl_resolution.json"
_EIGHT_FIBERS = ["bass", WAHL_FAMILY, "--values=-2,-1/3,0,1/2,1,2,3,7/5",
                 "--graph", _REL_GRAPH, "--assume-chi-invariant"]

# (id, argv, sha256 of stdout in text, sha256 of stdout with --json), run
# from the repository root; each run exits 0 and prints the same bytes
# under grevlex and lex.  Recorded before the commands rendered only the
# view they print.
_VIEW_DIGESTS = [
    ("analyze-graded", ["analyze", "z^2+y^3+x^10"],
     "ff77f163640b931591ee5076337d6faab42de33492cd9bdfc5173f0698884f06",
     "06e6d22ac1a50524efd83d0e76c25d0f0a89e42e7cca6d0841a0c0c5a44a6005"),
    ("analyze-graded-graph",
     ["analyze", "z^2+y^3+x^10", "--graph", _REL_GRAPH],
     "5f47faf2ee031e0a2cc1aab3f9559f03e20d9305bbf9a5c53ac22b6db1084ebd",
     "efc718bc9756c6cad9debac216c77f9febcc7fa1cb37244c77abb25ee1163405"),
    ("analyze-linear", ["analyze", "(x+y)^2+z^3+y^5"],
     "4f49eaae84016663c09dc499a11373e33a84380bac38ec0c5a89ecce41887a68",
     "d4eab9dd1e8786cffd2bc25a37914c40be812118d85b98951db6111fcdca0f60"),
    ("analyze-linear-graph",
     ["analyze", "(x+y)^2+z^3+y^5", "--graph", _REL_GRAPH],
     "fb3caee7759dddcb84900824bf9f469a0449387dcad239d8de9debeca8f973cd",
     "93e3851dc417016a837de4b6a22ff79736e46ad3611c47d962ec8bd34e46624b"),
    ("analyze-nonqh", ["analyze", "z^2+y^3+x^10+x^7*y"],
     "ab38b487747de309eeae2c42d551311cb006938209816967cc17af0188049986",
     "8a399c877ff5f203ff1f70ed7d224381cac42b1fa5ef445d548f752e72d8daf2"),
    ("analyze-nonqh-graph",
     ["analyze", "z^2+y^3+x^10+x^7*y", "--graph", _REL_GRAPH],
     "aec4eea9a6f3265094a0825ae3a4edaf7bc62c4ffcc90821255ed9e40165e1dd",
     "95c037f90842e931a3b07a485c273e7d91866573d5fc722d741c717e0fbdc46b"),
    ("family", ["family", WAHL_FAMILY, "--values=-1/3,0,1",
                "--assume-chi-invariant"],
     "984433c695232c53b8a09cfd2d9064df3d23c286d723974be640621458a63ac9",
     "bbdc91abc086447bcc8b7b62659b4ab15a8c0646a85ce695cd1214c8459ff9f2"),
    ("family-graph", ["family", WAHL_FAMILY, "--values=-1/3,0,1",
                      "--graph", _REL_GRAPH, "--assume-chi-invariant"],
     "7c266179ab48a9b37c1514012c49f1e6ec17d8ffd18edf35d7fabc97732429f6",
     "0a46923c25f5af412d61dbab2ac86e36a92aaefeb93036dbc689d69ee1f1a11b"),
    ("graph", ["graph", _REL_GRAPH],
     "ab64cd3e948e913b802f9243e1439ccb87f46ff1122281f14de67f05430dc824",
     "e0e88977ba3a5be7ab8b90fae3f76c2416d335bb60c2a87cc747668a2fa7c49c"),
    ("bass-single", ["bass", "z^2+y^3+x^10", "--graph", _REL_GRAPH],
     "a3d3085b2d6c641555ae3f96586e275f8f02e5356839b436e1eb8e88bf8ad15f",
     "1079b9e0d47583d778714ef8eb26b70d205d18c0f83002630a131ad6a453c35d"),
    ("bass-8fibers", _EIGHT_FIBERS,
     "12e279ddcbbe60a5854d57e030f537112dddbb89e33b11beee36d61bb5af1d44",
     "c8198496ed50363908189d18e889f1c76cdd9445a22f2c05b3bf5db534110cc7"),
]


class TestViews:
    @pytest.mark.parametrize("order", ["grevlex", "lex"])
    @pytest.mark.parametrize("view", ["text", "json"])
    @pytest.mark.parametrize("argv, text_sha, json_sha",
                             [case[1:] for case in _VIEW_DIGESTS],
                             ids=[case[0] for case in _VIEW_DIGESTS])
    def test_stdout_digest(self, capsys, monkeypatch, argv, text_sha,
                           json_sha, view, order):
        monkeypatch.chdir(REPO)
        extra = ["--json"] if view == "json" else []
        code = cli.main([*argv, "--order", order, *extra])
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert (code, digest) == (0, json_sha if extra else text_sha)

    @pytest.mark.parametrize("json_view", [False, True],
                             ids=["text", "json"])
    @pytest.mark.parametrize("argv", [
        _EIGHT_FIBERS,
        ["bass", "z^2+y^3+x^10", "--graph", _REL_GRAPH],
        ["family", WAHL_FAMILY, "--values=-1/3,0,1", "--graph", _REL_GRAPH,
         "--assume-chi-invariant"],
        ["analyze", "z^2+y^3+x^10", "--graph", _REL_GRAPH],
        ["analyze", "z^2+y^3+x^10+x^7*y", "--graph", _REL_GRAPH],
        ["graph", _REL_GRAPH],
    ], ids=["bass-8fibers", "bass-single", "family", "analyze-graded",
            "analyze-nonqh", "graph"])
    def test_only_the_printed_view_is_built(self, capsys, monkeypatch, argv,
                                            json_view):
        def refuse(*args):
            raise AssertionError("built the view that is not printed")

        if json_view:
            unused = ("_profile_text", "_graph_text", "_verdict_text")
            monkeypatch.setattr(DuBoisTable, "render_text", refuse)
        else:
            unused = ("_profile_json", "_graph_json", "_verdict_json")
            monkeypatch.setattr(DuBoisTable, "to_json", refuse)
        for name in unused:
            monkeypatch.setattr(cli, name, refuse)
        monkeypatch.chdir(REPO)
        code = cli.main(argv + ["--json"] * json_view)
        assert code == 0 and capsys.readouterr().out


    @pytest.mark.parametrize("json_view", [False, True],
                             ids=["text", "json"])
    def test_each_distinct_table_is_rendered_once(self, capsys, monkeypatch,
                                                  json_view):
        # the 7 nonzero fibers share one table, t = 0 has the other
        name = "to_json" if json_view else "render_text"
        real = getattr(DuBoisTable, name)
        rendered = []

        def counting(table):
            rendered.append(table)
            return real(table)

        def refuse(*args, **kwargs):
            raise AssertionError("ran the pure-Python JSON encoder")

        monkeypatch.setattr(DuBoisTable, name, counting)
        monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
        with pytest.raises(AssertionError):
            json.dumps({}, indent=2)
        monkeypatch.chdir(REPO)
        code = cli.main(_EIGHT_FIBERS + ["--json"] * json_view)
        assert code == 0 and capsys.readouterr().out
        assert len(rendered) == len(set(rendered)) == 2


# JSON trees, empty containers and top-level scalars included; strings mix
# the characters that need escapes, the structural ones and non-ASCII text
_JSON_TEXT = st.text(st.sampled_from('"\\{}[],: \n\t\x00\x1f\x7fé≅⊕\u2028')
                     | st.characters())
_JSON_LEAVES = (_JSON_TEXT | st.integers()
                | st.sampled_from([2**64, -2**64 - 1, 10**40, -1, 0])
                | st.booleans() | st.none() | st.floats())
_JSON_TREES = st.recursive(
    _JSON_LEAVES,
    lambda children: (st.lists(children, max_size=5)
                      | st.lists(children, max_size=3).map(tuple)
                      | st.dictionaries(_JSON_TEXT, children, max_size=5)),
    max_leaves=20)


class TestDumps:
    @settings(max_examples=200, deadline=None)
    @given(_JSON_TREES)
    def test_matches_the_indented_stdlib_encoder(self, doc):
        assert cli._dumps(doc) == json.dumps(doc, indent=2, sort_keys=True,
                                             ensure_ascii=False)

    def test_shared_container_is_written_once_per_level(self, monkeypatch):
        # a table shared by two fibers at one level, and again at another:
        # its rows are written once per level, and the bytes do not change
        table = {"name": "t", "rows": [[1, 2], [3, 4]]}
        doc = {"fibers": [{"table": table}, {"table": table}], "top": table}
        calls = Counter()
        real = cli._dumps

        def counting(value, *args):
            calls[id(value)] += 1
            return real(value, *args)

        monkeypatch.setattr(cli, "_dumps", counting)
        assert cli._dumps(doc) == json.dumps(doc, indent=2, sort_keys=True,
                                             ensure_ascii=False)
        assert calls[id(table)] == 3 and calls[id(table["rows"])] == 2

    def test_golden_document(self):
        golden = (REPO / "fixtures" / "golden" /
                  "wahl_bass_8fibers.json").read_text()
        assert cli._dumps(json.loads(golden)) + "\n" == golden

    @pytest.mark.parametrize("doc", [
        {1: "a"}, {"a": [{"b": 1, 2: 3}]}, [object()], {"a": {1, 2}},
        b"bytes", Fraction(1, 2)])
    def test_non_string_key_or_unserialisable_value_raises(self, doc):
        with pytest.raises(TypeError):
            cli._dumps(doc)


def _readme_commands():
    readme = (REPO / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1]
    block = block.split("```", 1)[0].replace("\\\n", " ")
    return [shlex.split(line) for line in block.splitlines()
            if line.startswith("bassinv ")]


def test_readme_has_usage_commands():
    assert len(_readme_commands()) >= 4


@pytest.mark.parametrize("argv", _readme_commands(), ids=" ".join)
def test_readme_command_runs(capsys, monkeypatch, argv):
    monkeypatch.chdir(REPO)
    assert cli.main(argv[1:]) == 0, capsys.readouterr().err
