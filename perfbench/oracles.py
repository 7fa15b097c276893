"""Checks of engine output against facts that share no code with the engine.

Each check takes a job and the text ``cli.run`` returned for it, and returns
a list of problems (empty when the output is right).  Output is read with
``json`` or regular expressions only; expected values come from closed forms
(Milnor-Orlik, the lattice-point count for p_g), from the paper's theorem,
or from the golden transcripts in ``fixtures/golden``.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from pathlib import Path

# The paper's answer for z^2+y^3+x^10+t*x^7*y: the graded fiber t = 0 has
# tau = 18 and b^{1,1} = 1, so it is not a counterexample; every fiber
# t = a != 0 has tau = 16, b^{0,1} = 1 and b^{1,1} = 0: a NEGATIVE answer.
WAHL_GRADED = {"tau": 18, "b01": 1, "b11": 1, "verdict": "not_a_counterexample"}
WAHL_DEFORMED = {"tau": 16, "b01": 1, "b11": 0, "verdict": "negative"}

_FIBER = re.compile(r"^fiber t = (\S+):")
_TAU = re.compile(r"^\s+tjurina number \(tau\): (\d+)$")
_ROW_Q1 = re.compile(r"^\s+q= 1 \|\s+(\S+)\s+(\S+)")
_VERDICT = re.compile(r"^verdict: (NEGATIVE answer|not a counterexample)")
_VERDICT_NAMES = {"NEGATIVE answer": "negative",
                  "not a counterexample": "not_a_counterexample"}


def _exact(cell):
    return cell["value"] if cell.get("kind") == "exact" else None


def _fibers_from_json(out):
    fibers = {}
    for fiber in json.loads(out)["fibers"]:
        entries = {(e["p"], e["q"]): e for e in fiber["table"]["entries"]}
        fibers[Fraction(fiber["value"])] = {
            "tau": fiber["profile"]["tjurina"],
            "b01": _exact(entries[(0, 1)]),
            "b11": _exact(entries[(1, 1)]),
            "verdict": fiber["verdict"]["answer_to_bass"],
        }
    return fibers


def _cell(text):
    return int(text) if text.isdigit() else None


def _fibers_from_text(out):
    fibers = {}
    current = None
    for line in out.splitlines():
        m = _FIBER.match(line)
        if m:
            current = fibers.setdefault(Fraction(m.group(1)), {})
            continue
        if current is None:
            continue
        if m := _TAU.match(line):
            current["tau"] = int(m.group(1))
        elif m := _ROW_Q1.match(line):
            current["b01"], current["b11"] = map(_cell, m.groups())
        elif m := _VERDICT.match(line):
            current["verdict"] = _VERDICT_NAMES[m.group(1)]
    return fibers


def check_wahl(job, out):
    expect = job.expect
    fibers = (_fibers_from_json(out) if expect["json"]
              else _fibers_from_text(out))
    problems = []
    if set(fibers) != set(expect["values"]):
        problems.append(f"fibers {sorted(map(str, fibers))} != requested "
                        f"{sorted(map(str, expect['values']))}")
    for value, facts in fibers.items():
        want = WAHL_GRADED if value == 0 else WAHL_DEFORMED
        if facts != want:
            problems.append(f"fiber t = {value}: {facts} != {want}")
    return problems


def check_golden(job, out, root):
    golden = (Path(root) / job.expect["file"]).read_bytes()
    if (out + "\n").encode("utf-8") != golden:
        return [f"output differs from {job.expect['file']}"]
    return []


def check_form(job, out):
    """mu, tau, p_g and the grading of x^a+y^b+z^c (+ a higher term)."""
    expect = job.expect
    profile = json.loads(out)["profile"]
    mu, tau = profile["milnor"], profile["tjurina"]
    problems = []
    if mu != expect["mu"]:
        problems.append(f"mu = {mu}, closed form gives {expect['mu']}")
    if expect.get("tau_at_most_mu"):
        if not 0 < tau <= mu:
            problems.append(f"tau = {tau} not in (0, mu = {mu}]")
    elif tau != expect["mu"]:
        problems.append(f"tau = {tau}, closed form gives {expect['mu']}")
    qh = profile["quasi_homogeneous"]
    if "quasi_homogeneous" in expect and qh != expect["quasi_homogeneous"]:
        problems.append(f"quasi_homogeneous = {qh}, "
                        f"expected {expect['quasi_homogeneous']}")
    if qh and profile["p_g"] != expect["p_g"]:
        problems.append(f"p_g = {profile['p_g']}, lattice count gives "
                        f"{expect['p_g']}")
    return problems


def check(job, out, root):
    """Problems with one job's output; an unreadable output is a problem."""
    try:
        if job.kind == "golden":
            return check_golden(job, out, root)
        if job.kind == "wahl":
            return check_wahl(job, out)
        if job.kind == "form":
            return check_form(job, out)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]
    raise ValueError(f"unknown job kind {job.kind!r}")
