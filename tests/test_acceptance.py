"""Acceptance suite: one test per criterion, one PASS/FAIL line printed each.

Run as `pytest tests/test_acceptance.py -s` to see the lines; the whole
suite finishes in a few seconds.
"""

import functools
import itertools
import time
from fractions import Fraction

import pytest

from bassinv import kernel
from bassinv.errors import (InconsistentDeductionError, NotIsolatedError,
                            SingularLocusNotAtOriginError, SmoothInput)
from bassinv.groebner import MonomialOrder, buchberger, normal_form, staircase
from bassinv.invariants import Bound, bass_verdict, build_table, deduce_family
from bassinv.polynomials import (WeightSystem, parse, substitute_parameter)
from bassinv.resgraph import (genus_sum, intersection_matrix,
                              is_negative_definite, load_graph, loop_count)
from bassinv.singularity import analyze

from conftest import (VARS, WAHL_GRAPH, jacobian, poly, standard_monomials,
                      tjurina_generators, CORPUS_TEXTS)


def criterion(number, description):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\nFAIL criterion {number}: {description}")
                raise
            print(f"\nPASS criterion {number}: {description}")
        return wrapper
    return decorate


@criterion(1, "Tjurina numbers 18 (a=0) and 16 (a in {1,2,1/2,-3}), "
              "each under 1 s")
def test_criterion_1_tjurina_values():
    fam = parse("z^2+y^3+x^10+t*x^7*y", VARS + ("t",))
    for a, expected in ((0, 18), (1, 16), (2, 16), (Fraction(1, 2), 16),
                        (-3, 16)):
        fiber = substitute_parameter(fam, "t", a)
        t0 = time.perf_counter()
        tau = analyze(fiber).tjurina
        elapsed = time.perf_counter() - t0
        assert tau == expected, (a, tau)
        assert elapsed < 1.0, f"fiber a={a} took {elapsed:.2f}s"


@criterion(2, "Example 4.3 table: b01=b11=1, b10=b20=17, "
              "chi = (-1, 16, -1, 0, ...)")
def test_criterion_2_example_43_table():
    graph = load_graph(str(WAHL_GRAPH))
    g, l = genus_sum(graph), loop_count(graph)
    assert (g, l) == (0, 0)
    profile = analyze(poly("z^2+y^3+x^10"))
    assert profile.p_g == 1
    table = build_table(profile.tjurina, profile.p_g, g, l, graded=True)
    assert table.entry(0, 1) == Bound.exact(1)
    assert table.entry(1, 1) == Bound.exact(1)
    assert table.entry(1, 0) == Bound.exact(17)
    assert table.entry(2, 0) == Bound.exact(17)
    assert table.chi(0) == Bound.exact(-1)
    assert table.chi(1) == Bound.exact(16)
    assert table.chi(2) == Bound.exact(-1)
    for p in range(3, 10):
        assert table.chi(p) == Bound.exact(0)


@criterion(3, "Theorem 4.1: deduced b01=1, b11=0 at every nonzero fiber, "
              "negative Bass verdict with 'K_0(R) ⊕ stF[s,t]'")
def test_criterion_3_theorem_41():
    fam = parse("z^2+y^3+x^10+t*x^7*y", VARS + ("t",))
    graph = load_graph(str(WAHL_GRAPH))
    g, l = genus_sum(graph), loop_count(graph)
    values = [Fraction(0), Fraction(1), Fraction(2), Fraction(1, 2),
              Fraction(-3)]
    profiles = [analyze(substitute_parameter(fam, "t", v)) for v in values]
    p_g = profiles[0].p_g
    tables = deduce_family(
        values, [build_table(prof.tjurina, p_g, g, l, graded=(i == 0))
                 for i, prof in enumerate(profiles)], 0)
    for table in tables[1:]:
        assert table.b01 == Bound.exact(1)
        assert table.b11 == Bound.exact(0)
        verdict = bass_verdict(table)
        assert verdict.answer_to_bass == "negative"
        assert "K_0(R) ⊕ stF[s,t]" in verdict.k0_polynomial_ring_description


@criterion(4, "p_g: graded staircase count of the Jacobian ideal at "
              "weights (3,10,15), cutoff 2, equals 1")
def test_criterion_4_geometric_genus():
    ws = WeightSystem((3, 10, 15), 30)
    f = poly("z^2+y^3+x^10")
    basis = buchberger(jacobian(f), MonomialOrder.weighted(ws.weights))
    assert sum(1 for m in standard_monomials(basis)
               if ws.weighted_degree(m) <= 2) == 1
    assert analyze(f).p_g == 1


def leibniz_det(rows):
    """Determinant by the permutation expansion, sharing no code with resgraph."""
    n = len(rows)
    total = 0
    for perm in itertools.permutations(range(n)):
        term = (-1) ** sum(perm[i] > perm[j]
                           for i in range(n) for j in range(i + 1, n))
        for i, j in enumerate(perm):
            term *= rows[i][j]
        total += term
    return total


@criterion(5, "Figure-1 graph: g=0, l=0, intersection matrix negative "
              "definite with alternating leading minors")
def test_criterion_5_resolution_graph():
    graph = load_graph(str(WAHL_GRAPH))
    assert genus_sum(graph) == 0
    assert loop_count(graph) == 0
    matrix = intersection_matrix(graph)
    assert is_negative_definite(matrix)
    # exact minors, frozen from the implementer's oracle
    minors = [leibniz_det([row[:k] for row in matrix[:k]])
              for k in range(1, 8)]
    assert minors == [-2, 3, -4, 5, -6, 3, -3]
    assert all((-1) ** k * m > 0 for k, m in enumerate(minors, start=1))


@criterion(6, "property suite: BP oracle, tau=mu when graded, "
              "order-independent dimensions, reduction laws, deduction laws")
def test_criterion_6_property_suite():
    # (i) Milnor numbers against the closed-form Brieskorn-Pham oracle
    for a, b, c in itertools.product(range(2, 6), repeat=3):
        profile = analyze(poly(f"x^{a}+y^{b}+z^{c}"))
        assert profile.milnor == (a - 1) * (b - 1) * (c - 1)
        # (ii) these are all quasi-homogeneous, so tau = mu
        assert profile.weights is not None
        assert profile.tjurina == profile.milnor

    corpus = [tjurina_generators(poly(t)) for t in CORPUS_TEXTS]
    impl = kernel.active()
    for gens in corpus:
        # (iii) quotient dimension does not depend on the order
        basis_g = buchberger(gens, MonomialOrder.grevlex())
        basis_l = buchberger(gens, MonomialOrder.lex())
        assert staircase(basis_g).size == staircase(basis_l).size
        for basis in (basis_g, basis_l):
            # (iv) S-polynomials reduce to zero; normal form is idempotent
            packing = impl.Packing(basis.order, 3, 16)
            raws = [packing.pack_terms(raw) for raw in basis._raw]
            for i in range(len(raws)):
                for j in range(i + 1, len(raws)):
                    s = impl.spoly(raws[i], raws[j], packing)
                    reduced, _, _ = impl.reduce_full(s, raws, packing)
                    assert reduced == []
            probe = poly("x^4*y^3 + 5*z^5 - 1/3*x*y*z + 7")
            once = normal_form(probe, basis)
            assert normal_form(once, basis) == once

    # (v) deduction is idempotent and only shrinks intervals
    graded = build_table(18, 1, 0, 0, True)
    deformed = build_table(16, 1, 0, 0, False)
    values = [Fraction(0), Fraction(1)]
    before = [graded, deformed]
    once = deduce_family(values, before, 0)
    assert deduce_family(values, once, 0) == once
    for t0, t1 in zip(before, once):
        for name in ("b01", "b10", "b11"):
            lo0, hi0 = getattr(t0, name).bounds_or(0, None)
            lo1, hi1 = getattr(t1, name).bounds_or(0, None)
            assert lo1 >= lo0
            assert hi0 is None or (hi1 is not None and hi1 <= hi0)

    # (vi) a hypothetical tau=15 fiber contradicts chi-invariance
    bad = [graded, build_table(15, 1, 0, 0, False)]
    with pytest.raises(InconsistentDeductionError) as exc:
        deduce_family(values, bad, 0)
    assert str(exc.value) == (
        "fiber 1 b11: empty range [0, -1] "
        "(the chi-invariance assumption fails for this input)")


@criterion(7, "degenerate inputs: x is Smooth, x*y is NotIsolated, "
              "(x-1)^2+y^2+z^2 is rejected at-origin; all deterministic")
def test_criterion_7_degenerate_handling():
    for _ in range(2):
        with pytest.raises(SmoothInput):
            analyze(poly("x"))
        with pytest.raises(NotIsolatedError):
            analyze(poly("x*y"))
        with pytest.raises(SingularLocusNotAtOriginError):
            analyze(poly("(x-1)^2+y^2+z^2"))
