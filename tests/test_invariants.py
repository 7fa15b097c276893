from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from bassinv import invariants
from bassinv.errors import (InconsistentDeductionError, InconsistentInputsError,
                            NoGradedFiberError)
from bassinv.invariants import (Bound, _tighten, bass_verdict, build_table,
                                deduce_family)


def wahl_graded():
    return build_table(18, 1, 0, 0, graded=True)


def wahl_deformed():
    return build_table(16, 1, 0, 0, graded=False)


WAHL_VALUES = (Fraction(0), Fraction(1))


def wahl_tables(deformed=None):
    """The tables of the Wahl fibers t = 0 (graded) and t = 1."""
    return [wahl_graded(), deformed or wahl_deformed()]


def deduce_wahl(tables=None):
    return deduce_family(WAHL_VALUES, tables or wahl_tables(), 0)


class TestBound:
    def test_exact(self):
        b = Bound.exact(5)
        assert b.is_exact and b.value == 5 and b.render() == "5"

    def test_interval_collapses(self):
        assert Bound.interval(3, 3) == Bound.exact(3)
        assert Bound.interval(0, 2).render() == "[0,2]"

    def test_empty_interval_rejected(self):
        with pytest.raises(ValueError):
            Bound.interval(2, 1)

    def test_unknown(self):
        b = Bound.unknown()
        assert not b.is_exact and b.render() == "?"
        with pytest.raises(ValueError):
            b.value


class TestBuildTable:
    def test_example_43(self):
        t = wahl_graded()
        assert t.b01 == Bound.exact(1)
        assert t.b11 == Bound.exact(1)
        assert t.b10 == Bound.exact(17)
        assert t.b20 == Bound.exact(17)
        assert (t.chi0, t.chi1, t.chi2) == \
            (Bound.exact(-1), Bound.exact(16), Bound.exact(-1))
        assert t.chi(3) == Bound.exact(0)
        assert t.alpha() == Bound.exact(0)

    def test_a1(self):
        t = build_table(1, 0, 0, 0, graded=True)
        assert t.b01 == Bound.exact(0) and t.b11 == Bound.exact(0)
        assert t.b10 == Bound.exact(1) and t.b20 == Bound.exact(1)
        assert (t.chi0.value, t.chi1.value, t.chi2.value) == (0, 1, 0)

    def test_deformed_fiber_before_deduction(self):
        t = wahl_deformed()
        assert t.b01 == Bound.exact(1)
        assert t.b10 == Bound.interval(0, 16)
        assert t.b11 == Bound.unknown()
        assert t.b20 == Bound.exact(15)
        assert t.chi2 == Bound.exact(-1)
        assert t.chi1 == Bound.unknown()

    def test_inconsistent_inputs(self):
        with pytest.raises(InconsistentInputsError):
            build_table(5, 6, 0, 0, graded=True)  # p_g > tau
        with pytest.raises(InconsistentInputsError):
            build_table(5, 1, 1, 1, graded=True)  # p_g < g + l
        with pytest.raises(InconsistentInputsError):
            build_table(-1, 0, 0, 0, graded=True)

    def test_genus_and_loops_enter_b01(self):
        t = build_table(10, 4, 1, 2, graded=True)
        assert t.b01 == Bound.exact(1)
        assert t.chi0 == Bound.exact(-1)


class TestTablePattern:
    @pytest.mark.parametrize("table", [wahl_graded(), wahl_deformed(),
                                       build_table(1, 0, 0, 0, True)])
    def test_vanishing_off_diagonals(self, table):
        for p in range(0, 7):
            for q in range(-5, 4):
                if p + q not in (1, 2):
                    assert table.entry(p, q) == Bound.exact(0), (p, q)

    @pytest.mark.parametrize("table", [wahl_graded(), wahl_deformed()])
    def test_h2_row_vanishes(self, table):
        for p in range(0, 7):
            assert table.entry(p, 2) == Bound.exact(0)

    @pytest.mark.parametrize("table", [wahl_graded(), wahl_deformed()])
    def test_negative_q_diagonals_equal_tau(self, table):
        for q in range(-1, -5, -1):
            assert table.entry(1 - q, q) == Bound.exact(table.tau)
            assert table.entry(2 - q, q) == Bound.exact(table.tau)

    @pytest.mark.parametrize("table", [wahl_graded(), wahl_deformed(),
                                       build_table(1, 0, 0, 0, True)])
    def test_chi_vanishes_for_p_ge_3(self, table):
        for p in range(3, 9):
            assert table.chi(p) == Bound.exact(0)

    @pytest.mark.parametrize("tau,p_g", [(18, 1), (1, 0), (8, 1), (4, 0)])
    def test_chi2_is_minus_pg(self, tau, p_g):
        for graded in (True, False):
            t = build_table(tau, p_g, 0, 0, graded)
            assert t.chi2 == Bound.exact(-p_g)

    @pytest.mark.parametrize("tau,p_g,g,l", [(18, 1, 0, 0), (1, 0, 0, 0),
                                             (10, 4, 1, 2), (7, 3, 0, 1)])
    def test_graded_alternating_sums_vanish(self, tau, p_g, g, l):
        t = build_table(tau, p_g, g, l, graded=True)
        for q in range(-6, 3):
            total = sum((-1) ** p * t.entry(p, q).value for p in range(0, 10))
            assert total == 0, q

    def test_chi_consistent_with_entries_when_graded(self):
        t = wahl_graded()
        for p in range(0, 6):
            total = sum((-1) ** q * t.entry(p, q).value
                        for q in range(-6, 3))
            assert t.chi(p).value == total


class TestDeduceFamily:
    def test_wahl_deduction(self):
        t = deduce_wahl()[1]
        assert t.b11 == Bound.exact(0)
        assert t.b10 == Bound.exact(16)
        assert t.b01 == Bound.exact(1)
        assert t.chi1 == Bound.exact(16)
        assert t.alpha() == Bound.exact(1)

    def test_graded_fiber_not_contradicted(self):
        t = deduce_wahl()[0]
        assert t.b11 == Bound.exact(1)
        assert t.b10 == Bound.exact(17)

    def test_idempotent(self):
        once = deduce_wahl()
        twice = deduce_wahl(once)
        assert once == twice

    def test_intervals_only_shrink(self):
        before = wahl_tables()
        after = deduce_wahl(before)
        for t0, t1 in zip(before, after):
            for name in ("b01", "b10", "b11"):
                b0 = getattr(t0, name).bounds_or(0, None)
                b1 = getattr(t1, name).bounds_or(0, None)
                assert b1[0] >= b0[0]
                assert b0[1] is None or (b1[1] is not None and b1[1] <= b0[1])

    def test_tau_15_is_inconsistent(self):
        bad = wahl_tables(deformed=build_table(15, 1, 0, 0, graded=False))
        with pytest.raises(InconsistentDeductionError):
            deduce_wahl(bad)

    def test_chi_contradicts_the_graded_fiber(self):
        # chi^0 = -(p_g - g - l) is exact in every table, so a fiber of
        # another p_g contradicts the graded fiber's
        bad = wahl_tables(deformed=build_table(16, 2, 0, 0, graded=False))
        with pytest.raises(InconsistentDeductionError) as exc:
            deduce_wahl(bad)
        assert str(exc.value) == ("fiber 1: chi^0 = -2 contradicts the "
                                  "graded fiber's chi^0 = -1")

    def test_b01_outside_its_bound(self):
        # b01 = -chi^0 = 1, outside a hand-set [2, 3]; a built table's b01
        # is -chi^0 already
        bad = wahl_deformed()._replace(b01=Bound.interval(2, 3),
                                       chi0=Bound.unknown())
        with pytest.raises(InconsistentDeductionError) as exc:
            deduce_wahl(wahl_tables(deformed=bad))
        assert str(exc.value).startswith("fiber 1 b01: empty range [2, 1]")

    def test_requires_fully_exact_graded_fiber(self):
        with pytest.raises(NoGradedFiberError):
            deduce_family([Fraction(0)], [wahl_deformed()], 0)

    @pytest.mark.parametrize("graded_index", [-1, 2])
    def test_requires_a_graded_index_in_range(self, graded_index):
        with pytest.raises(NoGradedFiberError):
            deduce_family(WAHL_VALUES, wahl_tables(), graded_index)

    def test_graded_fiber_in_the_middle(self):
        """Tables come back in the order of the values, whichever the
        graded one, and an error names the value of its own fiber."""
        values = [Fraction(-1), Fraction(0), Fraction(1)]
        tau_17 = build_table(17, 1, 0, 0, graded=False)
        out = deduce_family(values, [wahl_deformed(), wahl_graded(), tau_17],
                            1)
        assert [t.tau for t in out] == [16, 18, 17]
        assert out[0] == deduce_wahl()[1]
        assert out[1] == wahl_graded()
        assert (out[2].b10, out[2].b11) == \
            (Bound.interval(16, 17), Bound.interval(0, 1))
        tau_15 = build_table(15, 1, 0, 0, graded=False)
        with pytest.raises(InconsistentDeductionError) as exc:
            deduce_family(values, [tau_15, wahl_graded(), tau_17], 1)
        assert str(exc.value).startswith("fiber -1 b11: empty range")

    def test_failing_class_is_named_by_its_first_fiber(self):
        # t = 1 and t = 2 share one table, which the deduction refutes
        values = [Fraction(v) for v in (-1, 0, 1, 2)]
        tau_15 = build_table(15, 1, 0, 0, graded=False)
        with pytest.raises(InconsistentDeductionError) as exc:
            deduce_family(values, [wahl_deformed(), wahl_graded(), tau_15,
                                   build_table(15, 1, 0, 0, graded=False)],
                          1)
        assert str(exc.value).startswith("fiber 1 b11: empty range")


def _contains(bound, v):
    return bound.kind == "unknown" or bound.lo <= v <= bound.hi


@st.composite
def _hand_set_bound(draw, tau, unknown):
    kinds = ["exact", "interval"] + (["unknown"] if unknown else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "unknown":
        return Bound.unknown()
    lo, hi = sorted(draw(st.integers(-3, tau + 3)) for _ in range(2))
    return Bound.exact(lo) if kind == "exact" else Bound.interval(lo, hi)


@st.composite
def _deduction_cases(draw):
    """A graded fiber with chi^1 = n and one fiber of the same p_g, g, l
    whose b10 and b11 are set by hand (b11 possibly unknown), in either
    order."""
    g, l = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    p_g = g + l + draw(st.integers(0, 3))
    n = draw(st.integers(-(p_g - g - l), 20))
    graded = build_table(p_g + (p_g - g - l) + n, p_g, g, l, graded=True)
    tau = draw(st.integers(p_g, 20))
    table = build_table(tau, p_g, g, l, graded=False)
    table = table._replace(b10=draw(_hand_set_bound(tau, False)),
                           b11=draw(_hand_set_bound(tau, True)))
    return graded, table, draw(st.booleans())


def _outcome(thunk):
    """The value of thunk(), or the message of the deduction error it
    raises."""
    try:
        return thunk()
    except InconsistentDeductionError as exc:
        return str(exc)


class TestDeductionOracle:
    """deduce_family against brute force over the integers b10 in [0, tau]."""

    @given(_deduction_cases())
    @settings(max_examples=500, deadline=None, derandomize=True)
    def test_hull_of_the_feasible_values(self, case):
        graded, table, graded_first = case
        n = graded.chi1.value
        values = [Fraction(0), Fraction(1)]
        tables, graded_index = [graded, table], 0
        if not graded_first:
            tables, graded_index = tables[::-1], 1
        feasible = [v for v in range(table.tau + 1)
                    if _contains(table.b10, v) and v >= n
                    and _contains(table.b11, v - n)]
        if not feasible:
            with pytest.raises(InconsistentDeductionError):
                deduce_family(values, tables, graded_index)
            return
        deduced = deduce_family(values, tables, graded_index)
        graded_out, out = deduced[graded_index], deduced[1 - graded_index]
        assert graded_out == graded
        assert out.b10 == Bound.interval(min(feasible), max(feasible))
        assert out.b11 == Bound.interval(min(feasible) - n,
                                         max(feasible) - n)
        assert out.b01 == table.b01
        assert (out.chi0, out.chi1, out.chi2) == \
            (graded.chi0, graded.chi1, graded.chi2)

    @given(_deduction_cases(), st.lists(st.integers(0, 3), max_size=6))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_equals_tightening_each_fiber(self, case, picks):
        """Fibers drawn from the graded table, the hand-set one, an equal
        copy of it and a third table: tightening each distinct table once
        gives what tightening every fiber gives, errors included, and a
        deduction that succeeds tightens each distinct table once."""
        graded, table, graded_first = case
        choices = [graded, table, table._replace(),
                   build_table(table.tau + 1, table.p_g, table.g, table.l,
                               graded=False)]
        tables = [choices[k] for k in picks]
        graded_index = 0 if graded_first else len(tables)
        tables.insert(graded_index, graded)
        values = [Fraction(i, 2) for i in range(len(tables))]
        chi = (graded.chi0, graded.chi1, graded.chi2)
        with mock.patch.object(invariants, "_tighten",
                               wraps=_tighten) as tighten:
            out = _outcome(lambda: deduce_family(values, tables,
                                                 graded_index))
        assert out == _outcome(lambda: [_tighten(t, chi, f"fiber {v}")
                                        for v, t in zip(values, tables)])
        if isinstance(out, list):
            assert tighten.call_count == len(set(tables))


class TestBassVerdict:
    def test_negative_answer(self):
        v = bass_verdict(deduce_wahl()[1])
        assert v.nk0_vanishes == "yes"
        assert v.nk_minus1_rank == Bound.exact(1)
        assert v.answer_to_bass == "negative"
        assert "K_0(R) ⊕ stF[s,t]" in v.k0_polynomial_ring_description

    def test_graded_fiber_criterion_not_met(self):
        v = bass_verdict(wahl_graded())
        assert v.nk0_vanishes == "no"
        assert v.answer_to_bass == "not_a_counterexample"

    def test_a1_not_a_counterexample(self):
        v = bass_verdict(build_table(1, 0, 0, 0, graded=True))
        assert v.nk0_vanishes == "yes"
        assert v.nk_minus1_rank == Bound.exact(0)
        assert v.answer_to_bass == "not_a_counterexample"

    def test_undetermined_without_deduction(self):
        v = bass_verdict(wahl_deformed())
        assert v.nk0_vanishes == "undetermined"
        assert v.answer_to_bass == "undetermined"

    def test_higher_rank_description(self):
        t = deduce_wahl([build_table(10, 3, 0, 0, True),
                         build_table(10, 3, 0, 0, graded=False)])[1]
        # chi1 = 7 - 3 = 4; tau = 10 gives b11 in [0, 6]: undetermined here
        assert bass_verdict(t).answer_to_bass == "undetermined"


class TestRendering:
    def test_text_grid_shows_forced_zero_marker(self):
        text = wahl_graded().render_text()
        assert "·" in text
        assert "chi^1 = 16" in text

    def test_json_and_text_agree(self):
        for table in (wahl_graded(), wahl_deformed(),
                      deduce_wahl()[1]):
            doc = table.to_json()
            for cell in doc["entries"]:
                bound = table.entry(cell["p"], cell["q"])
                assert bound.to_json().items() <= cell.items()
                if cell["forced_zero"]:
                    assert cell == {**cell, "kind": "exact", "value": 0}
            for p in range(3):
                assert doc["chi"][str(p)] == table.chi(p).to_json()

    def test_interval_and_unknown_render(self):
        t = wahl_deformed()
        text = t.render_text()
        assert "[0,16]" in text and "?" in text
