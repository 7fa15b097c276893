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
Each command computes its results once, and a run renders only the view
it prints: the text lines, or with --json the JSON document.  A family
builds, tightens, judges and renders each distinct table once, for all
the fibers that share it, and runs its p_g-reuse and mu checks once per
analysis; only the substitution and the profile are per fiber.  Fibers are
analyzed in value order, and a family with scaling weights analyzes only
its first nonzero fiber.  Where tables are built, every graded fiber gets
a graded table and is marked graded, and fibers of different mu are
refused.  The JSON document is byte for byte
json.dumps(doc, indent=2, sort_keys=True, ensure_ascii=False), written by
_dumps without the standard library's pure-Python indented encoder.
Every command accepts --order grevlex|lex and ignores it: the invariants
do not depend on the monomial order, and the engine is reached only
through singularity.analyze with its grevlex default.
Identical invocations produce byte-identical output.  Exit codes: 0 success
(including the Smooth report), 2 input rejected (not isolated at the
origin), 3 parse error, 4 usage error, 5 deduction/consistency error.
"""

import argparse
import functools
import json
import os
import re
import sys
from fractions import Fraction
from json.encoder import encode_basestring
from math import log2

from . import resgraph, singularity
from .errors import (BassinvError, InconsistentInputsError, NoGradedFiberError,
                     NotIsolatedError, SingularLocusNotAtOriginError,
                     SmoothInput, StaircaseLimitError, UsageError)
from .invariants import bass_verdict, build_table, deduce_family
from .polynomials import (_MAX_POWER_BITS, NAME, Polynomial, low_difference,
                          parse, scaling_weights, substitute_parameter)

VARIABLES = ("x", "y", "z")


# the decimal exponent of a --values entry like 1e-5, whose power of 10
# Fraction builds however large it is: |e| is bounded as the parser bounds
# a coefficient power, |e|*log2(10) <= _MAX_POWER_BITS
_EXPONENT = re.compile(r"[eE][-+]?([\d_]*)\Z")
_MAX_EXPONENT = int(_MAX_POWER_BITS / log2(10))


def _parse_values(text):
    values = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            raise UsageError("empty entry in --values")
        exponent = _EXPONENT.search(chunk)
        if exponent:
            # compare the digit count first: never convert a long exponent
            digits = exponent[1].replace("_", "").lstrip("0")
            if (len(digits) > len(str(_MAX_EXPONENT))
                    or int(digits or 0) > _MAX_EXPONENT):
                raise UsageError(
                    f"bad rational {chunk!r} in --values: its power of 10 "
                    f"exceeds {_MAX_POWER_BITS} bits")
        try:
            values.append(Fraction(chunk))
        except (ValueError, ZeroDivisionError) as exc:
            raise UsageError(f"bad rational {chunk!r} in --values: {exc}")
    return sorted(set(values))


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


# The length of the torsion of the degree-2 forms and that of the degree-3
# forms module both equal tau for these singularities, so the profile views
# report tau for them.

def _profile_json(profile):
    out = {
        "polynomial": str(profile.f),
        "milnor": profile.milnor,
        "tjurina": profile.tjurina,
        "torsion_omega2_length": profile.tjurina,
        "omega3_length": profile.tjurina,
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
    lines.append(f"torsion length of Omega^2: {profile.tjurina}")
    lines.append(f"length of Omega^3: {profile.tjurina}")
    return lines


def _verdict_graph(info):
    """Refuse a Bass verdict without a graph or on one whose intersection
    matrix is not negative definite; otherwise return `info`."""
    if info is None:
        raise UsageError("--graph is required for the bass verdict "
                         "(it supplies g and l)")
    if not info["negative_definite"]:
        raise InconsistentInputsError(
            "the intersection matrix is not negative definite; refusing "
            "to derive a Bass verdict from it")
    return info


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


# Each cmd_* function computes a command's results and returns
# (text view, JSON view, results); run calls one view on the results.

_NOT_GRADED_NOTE = ("input is not quasi-homogeneous: b^{1,1} stays unknown "
                    "for a single fiber; use the family command")


def _analyze_text(profile, info, table, verdict=None):
    """The analyze transcript, or with a verdict the single-input bass
    one."""
    text = _profile_text(profile)
    if info is not None:
        text.extend(_graph_text(info))
        text.append(table.render_text() if table is not None
                    else f"note: {_NOT_GRADED_NOTE}")
    if verdict is not None:
        text.extend(_verdict_text(verdict))
    return text


def _analyze_json(profile, info, table, verdict=None):
    doc = {"command": "analyze" if verdict is None else "bass",
           "profile": _profile_json(profile)}
    if info is not None:
        doc["graph"] = _graph_json(info)
        if table is not None:
            doc["table"] = table.to_json()
        else:
            doc["note"] = _NOT_GRADED_NOTE
    if verdict is not None:
        doc["verdict"] = _verdict_json(verdict)
    return doc


def cmd_analyze(args):
    f = parse(args.polynomial, VARIABLES)
    profile = singularity.analyze(f)
    info = table = None
    if args.graph:
        info = _load_graph_data(args.graph)
        if profile.weights is not None:
            table = build_table(profile.tjurina, profile.p_g,
                                info["g"], info["l"], graded=True)
    return _analyze_text, _analyze_json, (profile, info, table)


def _graph_command_text(info):
    return _graph_text(info) + [
        "matrix rows: " + "; ".join(" ".join(f"{x:3d}" for x in row)
                                    for row in info["matrix"])]


def _graph_command_json(info):
    return {"command": "graph", **_graph_json(info)}


def cmd_graph(args):
    return (_graph_command_text, _graph_command_json,
            (_load_graph_data(args.file),))


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
    info = _load_graph_data(args.graph) if args.graph else None
    if need_graph and info is None:
        _verdict_graph(info)  # refuses before any fiber is analyzed
    # With weights on the parameter, all fibers at nonzero values are
    # diagonal rescalings of each other (see polynomials.scaling_weights):
    # same support, leads and staircases, so the first one analyzed stands
    # for the rest, failures and the family checks below included.
    scales = scaling_weights(f, name) is not None
    nonzero_profile = None
    profiles = []
    analyzed = []  # (value, profile) of each fiber analyzed
    for v in values:
        fiber_poly = substitute_parameter(f, name, v)
        if v and nonzero_profile is not None:
            profiles.append(nonzero_profile._replace(f=fiber_poly))
            continue
        profile = _analyze_fiber(name, v, fiber_poly)
        if v and scales:
            nonzero_profile = profile
        profiles.append(profile)
        analyzed.append((v, profile))
    graded_index = next(
        (i for i, p in enumerate(profiles) if p.weights is not None), None)
    if graded_index is None:
        raise NoGradedFiberError(
            "no quasi-homogeneous fiber among the given values; the family "
            "deduction needs one graded fiber")
    tables = None
    if info is not None:
        if need_graph:
            _verdict_graph(info)
        g, l = info["g"], info["l"]
        graded = profiles[graded_index]
        _check_p_g_reuse(name, analyzed, values[graded_index], graded)
        _check_milnor_constant(name, analyzed, values[graded_index], graded)
        p_g = graded.p_g
        table = functools.cache(
            lambda tau, graded: build_table(tau, p_g, g, l, graded))
        tables = deduce_family(
            values, [table(p.tjurina, p.weights is not None)
                     for p in profiles], graded_index)
    return f, values, profiles, graded_index, info, tables


def _analyze_fiber(name, v, fiber):
    """singularity.analyze on the fiber at v, its rejections naming v."""
    try:
        return singularity.analyze(fiber)
    except SmoothInput:
        raise InconsistentInputsError(
            f"fiber {name} = {v} is smooth; not a family of singularities")
    except (NotIsolatedError, SingularLocusNotAtOriginError,
            StaircaseLimitError) as exc:
        raise type(exc)(f"fiber {name} = {v}: {exc}") from exc


def _check_p_g_reuse(name, fibers, graded_value, graded):
    """Refuse a fiber whose table would reuse p_g without justification.

    Every fiber's table is built with the p_g of the graded fiber F_0, of
    weights w and degree d.  A fiber F_v keeps that p_g when it is graded
    itself with the same p_g, or when it is semi-quasi-homogeneous over
    F_0: every term of F_v - F_0 has weighted degree above d, so F_0 is its
    principal part (Arnold 1974; Saito 1981).  Any other fiber raises
    InconsistentInputsError.  `fibers` are the (value, profile) pairs of
    the analyzed fibers: under scaling weights every nonzero fiber differs
    from F_0 on the same exponents, so the one analyzed answers for all.
    """
    ws = graded.weights
    for v, profile in fibers:
        if profile.weights is not None and profile.p_g == graded.p_g:
            continue
        low = low_difference(profile.f, graded.f, ws)
        if low is not None:
            term = Polynomial({low: 1}, graded.f.variables)
            raise InconsistentInputsError(
                f"fiber {name} = {v}: reusing the graded fiber's "
                f"p_g = {graded.p_g} in its table is not justified: the term "
                f"{term} of its difference from the graded fiber "
                f"{name} = {graded_value} has weighted degree "
                f"{ws.weighted_degree(low)}, not above {ws.degree} under "
                f"the weights {ws.weights}, and the fiber is not graded with "
                f"that p_g")


def _check_milnor_constant(name, fibers, graded_value, graded):
    """Refuse a family whose fibers' Milnor numbers differ.

    --assume-chi-invariant asserts a simultaneous good resolution smooth
    over the base, a weak simultaneous resolution, which a family of
    hypersurface singularities in C^3 has only when mu is constant
    (Laufer 1983).  Fibers of different mu refute it, so the tables, which
    transport chi^p from the graded fiber, raise InconsistentInputsError.
    """
    for v, profile in fibers:
        if profile.milnor != graded.milnor:
            raise InconsistentInputsError(
                f"fiber {name} = {v} has mu = {profile.milnor} and the "
                f"graded fiber {name} = {graded_value} has "
                f"mu = {graded.milnor}: a simultaneous resolution, which "
                f"transporting chi^p assumes, needs constant mu")


_NO_GRAPH_NOTE = ("no --graph given: reporting fiber profiles only (tables "
                  "and deduction need g and l from a resolution graph)")


def _family_text(name, f, values, profiles, graded_index, info, tables,
                 verdicts):
    """The family or bass transcript; `verdicts` maps each distinct table
    to its verdict, and is None for family."""
    text = [f"family: {f}   (parameter {name})",
            f"graded fiber: {name} = {values[graded_index]}"]
    if info is not None:
        text.extend(_graph_text(info))
    else:
        text.append(f"note: {_NO_GRAPH_NOTE}")
    # render each distinct table and its verdict once (2 for the 8-fiber
    # Wahl run, not 8)
    rendered = {}
    for table, verdict in (verdicts or dict.fromkeys(tables or ())).items():
        rendered[table] = [table.render_text()]
        if verdict is not None:
            rendered[table] += _verdict_text(verdict)
    for i, (v, profile) in enumerate(zip(values, profiles)):
        tag = " [graded]" if profile.weights is not None else ""
        text.append("")
        text.append(f"fiber {name} = {v}:{tag}")
        text.extend("  " + line for line in _profile_text(profile))
        if tables is not None:
            text.extend(rendered[tables[i]])
    return text


def _family_json(name, f, values, profiles, graded_index, info, tables,
                 verdicts):
    doc = {
        "command": "family" if verdicts is None else "bass",
        "family": str(f),
        "parameter": name,
        "graded_fiber": str(values[graded_index]),
        "chi_assumed_invariant": True,
        "fibers": [],
    }
    if info is not None:
        doc["graph"] = _graph_json(info)
    else:
        doc["note"] = _NO_GRAPH_NOTE
    rendered = {}  # shared dicts, which _dumps writes once per level
    for table, verdict in (verdicts or dict.fromkeys(tables or ())).items():
        rendered[table] = {"table": table.to_json()}
        if verdict is not None:
            rendered[table]["verdict"] = _verdict_json(verdict)
    for i, (v, profile) in enumerate(zip(values, profiles)):
        fiber_doc = {"value": str(v), "graded": profile.weights is not None,
                     "profile": _profile_json(profile)}
        if tables is not None:
            fiber_doc.update(rendered[tables[i]])
        doc["fibers"].append(fiber_doc)
    return doc


def cmd_family(args):
    parts = _analyze_family(args, need_graph=False)
    return _family_text, _family_json, (args.parameter, *parts, None)


def cmd_bass(args):
    if args.values:
        if not args.assume_chi_invariant:
            raise UsageError("bass on a family needs --assume-chi-invariant")
        parts = _analyze_family(args, need_graph=True)
        verdicts = {table: bass_verdict(table)
                    for table in dict.fromkeys(parts[-1])}
        return _family_text, _family_json, (args.parameter, *parts, verdicts)
    # single input: must be quasi-homogeneous, so the table is fully exact
    f = parse(args.polynomial, VARIABLES)
    profile = singularity.analyze(f)
    if profile.weights is None:
        raise NoGradedFiberError(
            "bass on a single polynomial needs a quasi-homogeneous input; "
            "for a deformed fiber use --values with the family form")
    info = _verdict_graph(_load_graph_data(args.graph) if args.graph
                          else None)
    table = build_table(profile.tjurina, profile.p_g, info["g"], info["l"],
                        graded=True)
    return _analyze_text, _analyze_json, (profile, info, table,
                                          bass_verdict(table))


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


@functools.cache
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
                       help="accepted for compatibility; selects nothing "
                            "(the engine certifies in grevlex)")

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
    p_bass.add_argument("--assume-chi-invariant", action="store_true",
                        help="acknowledge the chi-invariance hypotheses")

    return parser


_COMMANDS = {
    "analyze": cmd_analyze,
    "family": cmd_family,
    "graph": cmd_graph,
    "bass": cmd_bass,
}


def _glue_negative_values(argv):
    """Rewrite `--values -1/3` as `--values=-1/3`.

    argparse reads a token that starts with '-' as an option unless it is
    a plain negative number, so `-1/3` or `-1,0,1` would be refused.  Like
    argparse, this accepts an abbreviation such as `--val`.
    """
    out = []
    for arg in argv:
        prev = out[-1] if out else ""
        if (len(prev) > 2 and "--values".startswith(prev)
                and re.match(r"-\d", arg)):
            out[-1] = f"{prev}={arg}"
        else:
            out.append(arg)
    return out


def _dumps(doc, newline="\n", memo=None):
    """json.dumps(doc, indent=2, sort_keys=True, ensure_ascii=False).

    With indent set, the standard library runs its pure-Python encoder;
    this writes the same bytes from the C string encoder and one join per
    container.  `newline` is the line break and indent of the level `doc`
    sits at.  A container that the document holds more than once at one
    level, such as a family's shared table, is written once: `memo` maps
    (id, newline) to its text, and ids are stable because every value is
    alive while the dump runs; it also holds each dict key's '"key": '.
    Dict keys must be strings; None, floats and anything not serialisable
    take json.dumps, which raises TypeError on the last.
    """
    if isinstance(doc, dict):
        keys = sorted(doc)
        values = [doc[key] for key in keys]
    elif isinstance(doc, (list, tuple)):
        keys, values = None, doc
    else:
        return json.dumps(doc, ensure_ascii=False)
    if not values:
        return "[]" if keys is None else "{}"
    if memo is None:
        memo = {}
    text = memo.get((id(doc), newline))
    if text is not None:
        return text
    inner = newline + "  "
    parts = []
    for value in values:
        kind = type(value)
        if kind is str:
            parts.append(encode_basestring(value))
        elif kind is int:
            parts.append(int.__repr__(value))
        elif kind is bool:
            parts.append("true" if value else "false")
        else:
            parts.append(_dumps(value, inner, memo))
    if keys is None:
        text = "[" + inner + ("," + inner).join(parts) + newline + "]"
    else:
        parts = [(memo.get(key) or memo.setdefault(
                      key, encode_basestring(key) + ": ")) + part
                 for key, part in zip(keys, parts)]
        text = "{" + inner + ("," + inner).join(parts) + newline + "}"
    memo[id(doc), newline] = text
    return text


def run(argv):
    """What main prints for argv.  A number past CPython's 4300-digit
    int/str limit is valid input, so the limit is lifted while run runs and
    the caller's setting is restored after it, also when it raises."""
    if not hasattr(sys, "set_int_max_str_digits"):
        return _run(argv)  # before Python 3.11: no limit
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return _run(argv)
    finally:
        sys.set_int_max_str_digits(limit)


def _run(argv):
    parser = _build_parser()
    args = parser.parse_args(_glue_negative_values(argv))
    text_view, json_view, results = _COMMANDS[args.command](args)
    if args.json:
        return _dumps(json_view(*results))
    return "\n".join(text_view(*results))


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    try:
        try:
            text, code = run(argv), 0
        except SmoothInput as exc:
            text, code = f"smooth: {exc}", exc.exit_code
        print(text, flush=True)
        return code
    except BassinvError as exc:
        print(f"error [{type(exc).__name__}]: {exc}", file=sys.stderr)
        return exc.exit_code
    except BrokenPipeError:
        # the reader closed stdout; send what is still buffered to devnull
        # so the interpreter's flush at exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
