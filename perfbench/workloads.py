"""Seeded job lists for the three benchmark workloads.

A job is one in-process ``bassinv.cli.run`` call: an argument list plus
what the oracles need to check its output.  The generators use only this
file and the standard library; the engine sees nothing but the argument
lists.  The same (workload, seed) pair always gives the same jobs.

The seed changes coefficients, signs and matrices, never the shapes: every
seed of a workload asks for the same amount of engine work up to
coefficient height, so runs with different seeds are comparable.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

GRAPH = "fixtures/wahl_resolution.json"
FAMILY_FILE = "fixtures/wahl_family.txt"
GOLDEN_DIR = "fixtures/golden"


@dataclass(frozen=True)
class Job:
    """One engine call and the facts its output must satisfy.

    kind selects the oracle: "golden" (byte-for-byte transcript), "wahl"
    (per-fiber Bass facts), "form" (closed forms for x^a+y^b+z^c, possibly
    perturbed or in other coordinates).
    """

    label: str
    argv: tuple
    kind: str
    expect: dict = field(default_factory=dict)


# -- wahl-bass ----------------------------------------------------------------

# (numerator digits, denominator digits) of the seven nonzero fiber values;
# 0 denominator digits means an integer.  Fixed heights keep the exact
# arithmetic cost of a run independent of the seed.
_VALUE_HEIGHTS = ((1, 0), (2, 0), (1, 1), (2, 1), (1, 2), (3, 3), (5, 4))

# {text, --json} x {grevlex, lex}; 13 runs cycle through it so that the job
# list has 15 entries and its 50th and 90th percentiles fall inside a group
# of equal jobs rather than on the edge between two groups.
_BASS_FORMATS = (("text", "grevlex"), ("json", "grevlex"),
                 ("text", "lex"), ("json", "lex"))
_BASS_RUNS = 13


def _digits(rng, n):
    return rng.randint(10 ** (n - 1), 10 ** n - 1)


def _fiber_values(rng):
    values = []
    for num_digits, den_digits in _VALUE_HEIGHTS:
        while True:
            num = _digits(rng, num_digits) * rng.choice((-1, 1))
            den = 1 if den_digits == 0 else _digits(rng, den_digits)
            value = Fraction(num, den)
            if (value.denominator == den and value not in values
                    and (den_digits == 0 or den > 1)):
                break
        values.append(value)
    return values


def wahl_bass(seed, family):
    rng = random.Random(f"wahl-bass:{seed}")
    jobs = [
        Job("golden example43", ("analyze", "z^2+y^3+x^10", "--graph", GRAPH),
            "golden", {"file": f"{GOLDEN_DIR}/example43_analyze.txt"}),
        Job("golden thm41", ("bass", family, "--values", "0,1", "--graph",
                             GRAPH, "--assume-chi-invariant"),
            "golden", {"file": f"{GOLDEN_DIR}/thm41_bass.txt"}),
    ]
    for i in range(_BASS_RUNS):
        fmt, order = _BASS_FORMATS[i % len(_BASS_FORMATS)]
        values = [Fraction(0)] + _fiber_values(rng)
        argv = ["bass", family, "--values", ",".join(map(str, values)),
                "--graph", GRAPH, "--assume-chi-invariant", "--order", order]
        if fmt == "json":
            argv.append("--json")
        jobs.append(Job(f"bass 8 fibers {fmt} {order}", tuple(argv), "wahl",
                        {"values": values, "json": fmt == "json"}))
    return jobs


# -- polynomial text ------------------------------------------------------------

def _mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = (ea[0] + eb[0], ea[1] + eb[1], ea[2] + eb[2])
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def _power(p, n):
    out = {(0, 0, 0): 1}
    for _ in range(n):
        out = _mul(out, p)
    return out


def _add(*polys):
    out = {}
    for p in polys:
        for e, c in p.items():
            out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def poly_text(p):
    """Text of {exponent: coefficient} in the CLI grammar, terms sorted."""
    parts = []
    for e, c in sorted(p.items(), reverse=True):
        c = Fraction(c)
        factors = [v if k == 1 else f"{v}^{k}"
                   for v, k in zip("xyz", e) if k]
        mag = abs(c)
        body = "*".join(([str(mag)] if mag != 1 or not factors else [])
                        + factors)
        sign = "-" if c < 0 else "+"
        parts.append(f"{sign} {body}" if parts or c < 0 else body)
    return " ".join(parts)


def _det3(m):
    return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))


def _form(a, b, c, m):
    """x^a+y^b+z^c after substituting (x,y,z) -> m.(x,y,z)."""
    unit = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    lin = [{unit[j]: m[i][j] for j in range(3) if m[i][j]} for i in range(3)]
    return _add(_power(lin[0], a), _power(lin[1], b), _power(lin[2], c))


def _dense_matrix(rng):
    """Invertible 3x3 matrix with entries +-1: every variable gets dense."""
    while True:
        m = [[rng.choice((-1, 1)) for _ in range(3)] for _ in range(3)]
        if _det3(m):
            return m


def _monomial_matrix(rng):
    """Signed permutation with entries scaled by 1 or 2."""
    perm = list(range(3))
    rng.shuffle(perm)
    m = [[0] * 3 for _ in range(3)]
    for i, j in enumerate(perm):
        m[i][j] = rng.choice((-2, -1, 1, 2))
    return m


def _brieskorn_pham(a, b, c):
    """mu and p_g of x^a+y^b+z^c from closed forms (Milnor-Orlik, and the
    lattice-point count of the weighted cone)."""
    mu = (a - 1) * (b - 1) * (c - 1)
    p_g = sum(1 for i in range(1, a) for j in range(1, b) for k in range(1, c)
              if Fraction(i, a) + Fraction(j, b) + Fraction(k, c) <= 1)
    return mu, p_g


def _form_job(label, p, a, b, c, **expect):
    mu, p_g = _brieskorn_pham(a, b, c)
    return Job(label, ("analyze", poly_text(p), "--json"), "form",
               {"mu": mu, "p_g": p_g, **expect})


# -- dense-forms ----------------------------------------------------------------

# (a, b, c, coordinate change, draws).  A dense +-1 change costs 2.4 s on
# (12,13,3) and minutes on (20,21,5) with the pure-Python kernel on a 2-vCPU
# Xeon VM, so the two largest forms get a monomial change.  The draw counts
# make 25 jobs whose costs sort into groups: the 50th percentile falls on
# the (20,21,5) jobs, whose cost the seed barely moves, and the 90th inside
# the five (4,5,6) draws, so no single draw sets it.
_DENSE_SHAPES = (
    (2, 3, 5, _dense_matrix, 2),
    (3, 3, 3, _dense_matrix, 2),
    (4, 5, 6, _dense_matrix, 5),
    (5, 5, 5, _dense_matrix, 6),    # the Fermat quintic, dense generators
    (7, 8, 3, _dense_matrix, 1),
    (12, 13, 3, _monomial_matrix, 1),
    (20, 21, 5, _monomial_matrix, 1),  # the 1520-monomial staircase
)


def dense_forms(seed):
    rng = random.Random(f"dense-forms:{seed}")
    jobs = []
    for a, b, c, draw, draws in _DENSE_SHAPES:
        diag = {(a, 0, 0): 1, (0, b, 0): 1, (0, 0, c): 1}
        jobs.append(_form_job(f"x^{a}+y^{b}+z^{c}", diag, a, b, c,
                              quasi_homogeneous=True))
        for _ in range(draws):
            m = draw(rng)
            jobs.append(_form_job(f"x^{a}+y^{b}+z^{c} after {m}",
                                  _form(a, b, c, m), a, b, c))
    return jobs


# -- nonqh-ladder ---------------------------------------------------------------

# x^a+y^b+z^c + q*x^i*y^j*z^k with i/a+j/b+k/c > 1: semi-quasi-homogeneous,
# so mu is the principal part's.  Since that sum is not 1, the weighted
# Euler identity shows that every critical point on {f=0} is the origin for
# every q != 0, so no draw of q is rejected; the Jacobian quotient still
# has points away from the surface, which sends milnor_number down the
# local-factor path.
_LADDER = (
    ((6, 5, 3), (4, 2, 0)),     # mu = 40
    ((4, 5, 6), (2, 2, 1)),     # mu = 60
    ((7, 8, 3), (5, 3, 0)),     # mu = 84
    ((9, 10, 3), (6, 4, 0)),    # mu = 144
    ((12, 13, 3), (9, 4, 0)),   # mu = 264
)


def _coefficient(rng):
    """Nonzero rational with one- or two-digit numerator and denominator."""
    num = rng.randint(1, 99) * rng.choice((-1, 1))
    return Fraction(num, rng.randint(1, 99))


def nonqh_ladder(seed):
    rng = random.Random(f"nonqh-ladder:{seed}")
    jobs = []
    for (a, b, c), (i, j, k) in _LADDER:
        q = _coefficient(rng)
        p = {(a, 0, 0): 1, (0, b, 0): 1, (0, 0, c): 1, (i, j, k): q}
        jobs.append(_form_job(f"x^{a}+y^{b}+z^{c}+({q})*x^{i}*y^{j}*z^{k}",
                              p, a, b, c, quasi_homogeneous=False,
                              tau_at_most_mu=True))
    return jobs


def reference_work():
    """A fixed computation of the same kind as the engine's (dicts of
    exponent tuples with big-integer coefficients, Fraction sums), about
    3 ms on a 2-vCPU Xeon VM.  The benchmark times it around every job and
    reports job times in multiples of it, which cancels the host's drifting
    speed."""
    _power({(1, 0, 0): 3, (0, 1, 0): -2, (0, 0, 1): 5}, 18)
    _brieskorn_pham(9, 10, 6)


WORKLOADS = ("wahl-bass", "dense-forms", "nonqh-ladder")


def jobs_for(workload, seed, family):
    if workload == "wahl-bass":
        return wahl_bass(seed, family)
    if workload == "dense-forms":
        return dense_forms(seed)
    if workload == "nonqh-ladder":
        return nonqh_ladder(seed)
    raise ValueError(f"unknown workload {workload!r}")
