import json
import re

from bassinv import cli

from conftest import REPO, WAHL_GRAPH, WAHL_FAMILY

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

    def test_unknown_variable_exit_3(self, capsys):
        code, err = run_err(capsys, "analyze", "x+w")
        assert code == 3

    def test_non_graded_with_graph_notes_family(self, capsys):
        out = run_ok(capsys, "analyze", "z^2+y^3+x^10+x^7*y",
                     "--graph", GRAPH)
        assert "use the family command" in out

    def test_lex_order_same_numbers(self, capsys):
        doc = run_json(capsys, "analyze", "z^2+y^3+x^10", "--order", "lex")
        assert doc["profile"]["milnor"] == 18

    def test_staircase_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("BASSINV_MAX_STAIRCASE", "5")
        code, err = run_err(capsys, "analyze", "z^2+y^3+x^10")
        assert code == 5 and "BASSINV_MAX_STAIRCASE" in err


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
        doc = run_json(capsys, "family", WAHL_FAMILY,
                       "--values", "0,1,2,1/2", "--graph", GRAPH,
                       "--assume-chi-invariant")
        tables = [f["table"] for f in doc["fibers"] if f["value"] != "0"]
        assert len(tables) == 3
        assert tables[0] == tables[1] == tables[2]
        assert all(f["profile"]["tjurina"] == 16
                   for f in doc["fibers"] if f["value"] != "0")

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
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "vertices": [{"id": 1, "genus": 0, "self_intersection": -1},
                         {"id": 2, "genus": 0, "self_intersection": -1}],
            "edges": [[1, 2], [1, 2]],
        }))
        code, err = run_err(capsys, "bass", WAHL_FAMILY, "--values", "0,1",
                            "--graph", str(bad), "--assume-chi-invariant")
        assert code == 5 and "negative definite" in err


class TestGraphCommand:
    def test_fixture(self, capsys):
        doc = run_json(capsys, "graph", GRAPH)
        assert doc["g"] == 0 and doc["l"] == 0
        assert doc["negative_definite"] is True
        assert len(doc["intersection_matrix"]) == 7

    def test_bad_file_exit_3(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"vertices": [{"id": 1}]}')
        code, _ = run_err(capsys, "graph", str(bad))
        assert code == 3


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

    def test_family_fixture_file_matches_flag_form(self):
        assert WAHL_FAMILY == "z^2+y^3+x^10+t*x^7*y"
