"""Tests of the benchmark itself:  python3 -m pytest -q perfbench

The traced run's counters (calls, monomials, *_ratio) must repeat exactly
across two runs and across kernel backends; the oracles must reject wrong
answers; the untraced result line must carry exactly the end-to-end
metrics BENCHMARK.json names; and without the engine the benchmark must
fail without a result.
"""

import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import oracles
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload, trace, seed=7, env=None, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
        env={**os.environ, **(env or {})})
    return proc


def result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def counters(res):
    return {name: m["value"] for name, m in res["metrics"].items()
            if m["unit"] != "s" and name != "trace.wall_ratio"}


@pytest.fixture(scope="module")
def traced_runs():
    return {w: [result(bench(w, 1)) for _ in range(2)]
            for w in workloads.WORKLOADS}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_counters_repeat_across_runs(traced_runs, workload):
    first, second = traced_runs[workload]
    assert first["correct"] and second["correct"]
    assert counters(first) and counters(first) == counters(second)


@pytest.mark.skipif(
    subprocess.run([sys.executable, "-c", "import bassinv._core_cy"],
                   env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                   capture_output=True).returncode != 0,
    reason="compiled kernel not built")
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_counters_repeat_across_backends(workload):
    runs = {name: result(bench(workload, 1, env={"BASSINV_KERNEL": name}))
            for name in ("py", "cy")}
    assert all(r["correct"] for r in runs.values())
    assert counters(runs["py"]) == counters(runs["cy"])


def test_end_to_end_names_match_spec():
    untraced = result(bench("wahl-bass", 0))
    assert untraced["correct"]
    assert set(untraced["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        assert untraced["metrics"][m["name"]]["unit"] == m["unit"]


def test_no_engine_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("wahl-bass", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_jobs_depend_only_on_seed():
    family = (ROOT / workloads.FAMILY_FILE).read_text().strip()
    for w in workloads.WORKLOADS:
        assert workloads.jobs_for(w, 3, family) == workloads.jobs_for(w, 3, family)
        assert workloads.jobs_for(w, 3, family) != workloads.jobs_for(w, 4, family)


def test_oracles_reject_wrong_answers():
    golden = (ROOT / "fixtures/golden/thm41_bass.txt").read_text().rstrip("\n")
    job = workloads.Job("thm41", (), "wahl", {"values": [0, 1], "json": False})
    assert oracles.check(job, golden, ROOT) == []
    for wrong in (golden.replace("tjurina number (tau): 16",
                                 "tjurina number (tau): 17"),
                  golden.replace("q= 1 |  1  0", "q= 1 |  1  ?"),
                  golden.replace("NEGATIVE answer", "not a counterexample"),
                  golden.replace("fiber t = 1:", "fiber t = 2:")):
        assert oracles.check(job, wrong, ROOT)

    job = workloads.Job("a", (), "form", {"mu": 64, "p_g": 10,
                                          "quasi_homogeneous": True})
    right = {"milnor": 64, "tjurina": 64, "quasi_homogeneous": True,
             "p_g": 10}
    assert oracles.check(job, json.dumps({"profile": right}), ROOT) == []
    for field, value in (("milnor", 63), ("tjurina", 65), ("p_g", 9),
                         ("quasi_homogeneous", False)):
        doc = {"profile": {**right, field: value}}
        assert oracles.check(job, json.dumps(doc), ROOT)
    assert oracles.check(job, "not json", ROOT)


def test_closed_forms():
    # Milnor-Orlik and the lattice count against values in the literature:
    # E_8 = x^2+y^3+z^5 is rational, the Wahl fiber has p_g = 1.
    assert workloads._brieskorn_pham(2, 3, 5) == (8, 0)
    assert workloads._brieskorn_pham(10, 3, 2) == (18, 1)
    assert workloads._brieskorn_pham(3, 3, 3) == (8, 1)


def test_ladder_terms_lie_above_the_newton_boundary():
    # the premise of the nonqh-ladder oracles: semi-quasi-homogeneous inputs
    for (a, b, c), (i, j, k) in workloads._LADDER:
        assert Fraction(i, a) + Fraction(j, b) + Fraction(k, c) > 1
