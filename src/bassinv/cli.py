"""Command-line front end.

Subcommands:

  analyze <poly> [--graph FILE] [--order grevlex|lex] [--json]
  family  <poly> --values v1,v2,... [--graph FILE] [--parameter NAME]
                 --assume-chi-invariant [--json]
  graph   FILE [--json]
  bass    <poly> [--values ... --parameter NAME] --graph FILE
                 [--assume-chi-invariant] [--json]

Polynomials live in Q[x,y,z]; a family polynomial lives in Q[x,y,z,NAME],
NAME being the --parameter (default t), and its fibers come from
substituting the rationals given in --values, like 1/2 or -3.
Identical invocations produce byte-identical output.  Exit codes: 0 success
(including the Smooth report), 2 input rejected (not isolated at the
origin), 3 parse error, 4 usage error, 5 deduction/consistency error.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import resgraph, singularity
from .errors import (BassinvError, InconsistentInputsError, NoGradedFiberError,
                     SmoothInput, UsageError)
from .groebner import MonomialOrder
from .invariants import (FamilyReport, Fiber, bass_verdict, build_table,
                         deduce_family)
from .polynomials import NAME, parse, substitute_parameter

VARIABLES = ("x", "y", "z")


def _order_from_name(name):
    if name == "grevlex":
        return MonomialOrder.grevlex()
    if name == "lex":
        return MonomialOrder.lex()
    raise UsageError(f"unknown order {name!r}")


def _parse_values(text):
    values = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            raise UsageError("empty entry in --values")
        try:
            values.append(Fraction(chunk))
        except (ValueError, ZeroDivisionError) as exc:
            raise UsageError(f"bad rational {chunk!r} in --values: {exc}")
    seen = set()
    unique = []
    for v in sorted(values):
        if v not in seen:
            seen.add(v)
            unique.append(v)
    return unique


def _load_graph_data(path):
    graph = resgraph.load_graph(path)
    matrix = resgraph.intersection_matrix(graph)
    return {
        "graph": graph,
        "path": str(path),
        "g": resgraph.genus_sum(graph),
        "l": resgraph.loop_count(graph),
        "matrix": matrix,
        "negative_definite": resgraph.is_negative_definite(matrix),
    }


def _fraction_str(v):
    return str(v)


def _profile_json(profile):
    out = {
        "polynomial": str(profile.f),
        "milnor": profile.milnor,
        "tjurina": profile.tjurina,
        "torsion_omega2_length": profile.torsion_omega2_length,
        "omega3_length": profile.omega3_length,
        "quasi_homogeneous": profile.weights is not None,
    }
    if profile.weights is not None:
        out["weights"] = list(profile.weights.weights)
        out["weighted_degree"] = profile.weights.degree
        out["p_g"] = profile.p_g
    return out


def _profile_text(profile):
    lines = [
        f"polynomial: {profile.f}",
        f"milnor number (mu):   {profile.milnor}",
        f"tjurina number (tau): {profile.tjurina}",
    ]
    if profile.weights is not None:
        w = profile.weights
        lines.append(f"quasi-homogeneous: yes; weights {w.weights}, "
                     f"weighted degree {w.degree}")
        lines.append(f"geometric genus p_g: {profile.p_g}")
    else:
        lines.append("quasi-homogeneous: no")
    lines.append(f"torsion length of Omega^2: {profile.torsion_omega2_length}")
    lines.append(f"length of Omega^3: {profile.omega3_length}")
    return lines


def _graph_text(info):
    lines = [
        f"graph: {info['path']} ({len(info['graph'].vertices)} vertices, "
        f"{len(info['graph'].edges)} edges)",
        f"genus sum g = {info['g']}, loops l = {info['l']}",
        "intersection matrix "
        + ("negative definite" if info["negative_definite"]
           else "NOT negative definite (not a resolution graph?)"),
    ]
    return lines


def _graph_json(info):
    return {
        "path": info["path"],
        "vertices": [{"id": v.id, "genus": v.genus,
                      "self_intersection": v.self_intersection}
                     for v in info["graph"].vertices],
        "edges": [list(e) for e in info["graph"].edges],
        "g": info["g"],
        "l": info["l"],
        "intersection_matrix": info["matrix"],
        "negative_definite": info["negative_definite"],
    }


def _verdict_text(verdict):
    if verdict.answer_to_bass == "negative":
        head = "NEGATIVE answer to Bass' question"
    elif verdict.answer_to_bass == "not_a_counterexample":
        head = "not a counterexample"
    else:
        head = "undetermined"
    return [
        f"verdict: {head}: {verdict.k0_polynomial_ring_description}",
        f"  NK_0 vanishes: {verdict.nk0_vanishes}; "
        f"NK_{{-1}} rank (b^{{0,1}}): {verdict.nk_minus1_rank.render()}",
    ]


def _verdict_json(verdict):
    return {
        "nk0_vanishes": verdict.nk0_vanishes,
        "nk_minus1_rank": verdict.nk_minus1_rank.to_json(),
        "answer_to_bass": verdict.answer_to_bass,
        "k0_polynomial_ring_description":
            verdict.k0_polynomial_ring_description,
    }


def cmd_analyze(args):
    f = parse(args.polynomial, VARIABLES)
    order = _order_from_name(args.order)
    profile = singularity.analyze(f, order)
    text = _profile_text(profile)
    doc = {"command": "analyze", "profile": _profile_json(profile)}
    if args.graph:
        info = _load_graph_data(args.graph)
        text.extend(_graph_text(info))
        doc["graph"] = _graph_json(info)
        if profile.weights is not None:
            table = build_table(profile.tjurina, profile.p_g,
                                info["g"], info["l"], graded=True)
            text.append(table.render_text())
            doc["table"] = table.to_json()
        else:
            note = ("input is not quasi-homogeneous: b^{1,1} stays unknown "
                    "for a single fiber; use the family command")
            text.append(f"note: {note}")
            doc["note"] = note
    return text, doc


def cmd_graph(args):
    info = _load_graph_data(args.file)
    text = _graph_text(info)
    text.append("matrix rows: " +
                "; ".join(" ".join(f"{x:3d}" for x in row)
                          for row in info["matrix"]))
    return text, {"command": "graph", **_graph_json(info)}


def _analyze_family(args, need_graph):
    name = args.parameter
    if name in VARIABLES or not NAME.fullmatch(name):
        raise UsageError(f"--parameter must be a variable name other than "
                         f"{', '.join(VARIABLES)}; got {name!r}")
    f = parse(args.polynomial, VARIABLES + (name,))
    if not any(exp[-1] for exp in f.term_map()):
        raise UsageError(
            f"the polynomial does not involve the parameter "
            f"{name!r}; the family command needs a family")
    if not args.values:
        raise UsageError("--values is required")
    if not args.assume_chi_invariant:
        raise UsageError(
            "family deduction transports chi^p across fibers; this needs a "
            "simultaneous good resolution smooth over the base, which is not "
            "machine-checked.  Pass --assume-chi-invariant to acknowledge")
    values = _parse_values(args.values)
    order = _order_from_name(args.order)
    info = None
    if args.graph:
        info = _load_graph_data(args.graph)
    elif need_graph:
        raise UsageError("--graph is required for the bass verdict "
                         "(it supplies g and l)")
    profiles = []
    for v in values:
        fiber_poly = substitute_parameter(f, name, v)
        try:
            profiles.append(singularity.analyze(fiber_poly, order))
        except SmoothInput:
            raise InconsistentInputsError(
                f"fiber {args.parameter} = {v} is smooth; "
                f"not a family of singularities")
    graded_index = next(
        (i for i, p in enumerate(profiles) if p.weights is not None), None)
    if graded_index is None:
        raise NoGradedFiberError(
            "no quasi-homogeneous fiber among the given values; the family "
            "deduction needs one graded fiber")
    report = None
    if info is not None:
        if not info["negative_definite"] and need_graph:
            raise InconsistentInputsError(
                "the intersection matrix is not negative definite; refusing "
                "to derive a Bass verdict from it")
        g, l = info["g"], info["l"]
        p_g = profiles[graded_index].p_g
        fibers = []
        for i, (v, profile) in enumerate(zip(values, profiles)):
            table = build_table(profile.tjurina, p_g, g, l,
                                graded=(i == graded_index))
            fibers.append(Fiber(v, profile, table))
        report = FamilyReport(family=f, fibers=tuple(fibers),
                              graded_fiber_index=graded_index,
                              chi_assumed_invariant=True)
        report = deduce_family(report)
    return f, values, profiles, graded_index, info, report


def _family_output(args, f, values, profiles, graded_index, info, report,
                   with_verdicts):
    text = [f"family: {f}   (parameter {args.parameter})",
            f"graded fiber: {args.parameter} = {values[graded_index]}"]
    doc = {
        "command": "bass" if with_verdicts else "family",
        "family": str(f),
        "parameter": args.parameter,
        "graded_fiber": _fraction_str(values[graded_index]),
        "chi_assumed_invariant": True,
        "fibers": [],
    }
    if info is not None:
        text.extend(_graph_text(info))
        doc["graph"] = _graph_json(info)
    else:
        note = ("no --graph given: reporting fiber profiles only (tables "
                "and deduction need g and l from a resolution graph)")
        text.append(f"note: {note}")
        doc["note"] = note
    for i, (v, profile) in enumerate(zip(values, profiles)):
        tag = " [graded]" if i == graded_index else ""
        text.append("")
        text.append(f"fiber {args.parameter} = {v}:{tag}")
        text.extend("  " + line for line in _profile_text(profile))
        fiber_doc = {"value": _fraction_str(v), "graded": i == graded_index,
                     "profile": _profile_json(profile)}
        if report is not None:
            table = report.fibers[i].table
            text.append(table.render_text())
            fiber_doc["table"] = table.to_json()
            if with_verdicts:
                verdict = bass_verdict(table)
                text.extend(_verdict_text(verdict))
                fiber_doc["verdict"] = _verdict_json(verdict)
        doc["fibers"].append(fiber_doc)
    return text, doc


def cmd_family(args):
    parts = _analyze_family(args, need_graph=False)
    return _family_output(args, *parts, with_verdicts=False)


def cmd_bass(args):
    if args.values:
        if not args.assume_chi_invariant:
            raise UsageError("bass on a family needs --assume-chi-invariant")
        parts = _analyze_family(args, need_graph=True)
        return _family_output(args, *parts, with_verdicts=True)
    # single input: must be quasi-homogeneous, so the table is fully exact
    f = parse(args.polynomial, VARIABLES)
    order = _order_from_name(args.order)
    profile = singularity.analyze(f, order)
    if profile.weights is None:
        raise NoGradedFiberError(
            "bass on a single polynomial needs a quasi-homogeneous input; "
            "for a deformed fiber use --values with the family form")
    if not args.graph:
        raise UsageError("--graph is required for the bass verdict "
                         "(it supplies g and l)")
    info = _load_graph_data(args.graph)
    if not info["negative_definite"]:
        raise InconsistentInputsError(
            "the intersection matrix is not negative definite; refusing "
            "to derive a Bass verdict from it")
    table = build_table(profile.tjurina, profile.p_g, info["g"], info["l"],
                        graded=True)
    verdict = bass_verdict(table)
    text = _profile_text(profile)
    text.extend(_graph_text(info))
    text.append(table.render_text())
    text.extend(_verdict_text(verdict))
    doc = {"command": "bass", "profile": _profile_json(profile),
           "graph": _graph_json(info), "table": table.to_json(),
           "verdict": _verdict_json(verdict)}
    return text, doc


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser():
    parser = _Parser(prog="bassinv",
                     description="Singularity invariants over Q and the "
                                 "Bass-question verdict")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, poly=True):
        if poly:
            p.add_argument("polynomial", help="polynomial in x, y, z")
        p.add_argument("--json", action="store_true", help="emit JSON")
        p.add_argument("--order", default="grevlex",
                       choices=("grevlex", "lex"),
                       help="monomial order for the engine")

    p_an = sub.add_parser("analyze", help="profile of one singularity")
    common(p_an)
    p_an.add_argument("--graph", help="resolution graph JSON file")

    p_fam = sub.add_parser("family", help="analyze a one-parameter family")
    common(p_fam)
    p_fam.add_argument("--values", help="comma-separated rational values")
    p_fam.add_argument("--graph", help="resolution graph JSON file")
    p_fam.add_argument("--parameter", default="t")
    p_fam.add_argument("--assume-chi-invariant", action="store_true",
                       help="acknowledge the chi-invariance hypotheses")

    p_gr = sub.add_parser("graph", help="validate a resolution graph")
    p_gr.add_argument("file")
    common(p_gr, poly=False)

    p_bass = sub.add_parser("bass", help="decide Bass' question")
    common(p_bass)
    p_bass.add_argument("--values", help="comma-separated rational values")
    p_bass.add_argument("--graph", help="resolution graph JSON file")
    p_bass.add_argument("--parameter", default="t")
    p_bass.add_argument("--assume-chi-invariant", action="store_true")

    return parser


_COMMANDS = {
    "analyze": cmd_analyze,
    "family": cmd_family,
    "graph": cmd_graph,
    "bass": cmd_bass,
}


def run(argv):
    parser = _build_parser()
    args = parser.parse_args(argv)
    text, doc = _COMMANDS[args.command](args)
    if args.json:
        return json.dumps(doc, indent=2, sort_keys=True, ensure_ascii=False)
    return "\n".join(text)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    try:
        print(run(argv))
        return 0
    except SmoothInput as exc:
        print(f"smooth: {exc}")
        return exc.exit_code
    except BassinvError as exc:
        print(f"error [{type(exc).__name__}]: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
