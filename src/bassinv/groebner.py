"""Buchberger engine over Q: reduced bases, normal forms, staircases, lengths.

The pair queue uses Gebauer-Moller elimination with normal (minimal lcm
degree) selection.  Arithmetic is fraction-free on primitive integer term
lists and is done by `bassinv.kernel`, looked up through
`bassinv.kernel.active()` at each call; results are certificates, not
probabilistic.
Outputs are deterministic for a fixed input and order: term iteration and
the pair queue are fully sorted.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from heapq import heappush, heappop
from math import lcm
from operator import add, le

from . import kernel
from .errors import UsageError
from .kernel import MonomialOrder
from .polynomials import Polynomial

DEFAULT_STAIRCASE_CAP = 100000


def _staircase_cap():
    raw = os.environ.get("BASSINV_MAX_STAIRCASE", "")
    if not raw:
        return DEFAULT_STAIRCASE_CAP
    try:
        return int(raw)
    except ValueError:
        raise UsageError(f"BASSINV_MAX_STAIRCASE must be an integer; "
                         f"got {raw!r}") from None


class GroebnerBasis:
    """Reduced Groebner basis: monic, inter-reduced generators.

    The generators are kept as primitive integer term lists (`_raw`, sorted
    ascending by lead); the monic Polynomials are built from them on first
    access.  A reduced basis is unique, so equal term lists mean equal
    generators.
    """

    def __init__(self, order, variables, raw):
        self.order = order
        self.variables = tuple(variables)
        self._raw = raw

    @cached_property
    def generators(self):
        return tuple(_monic_from_raw(raw, self.variables) for raw in self._raw)

    def __len__(self):
        return len(self._raw)

    def __iter__(self):
        return iter(self.generators)

    def leading_exponents(self):
        return [g[0][0] for g in self._raw]

    def __eq__(self, other):
        return (isinstance(other, GroebnerBasis)
                and self.order == other.order
                and self.variables == other.variables
                and self._raw == other._raw)

    def __repr__(self):
        gens = ", ".join(str(g) for g in self.generators)
        return f"GroebnerBasis[{self.order.kind}]({{{gens}}})"


@dataclass(frozen=True, slots=True)
class Staircase:
    """The number of standard monomials of a basis; None when infinite."""

    size: int | None


def _to_raw(p, order):
    """Polynomial -> (primitive integer term list, rational scale).

    The polynomial equals scale * term_list exactly.
    """
    terms = p.term_map()
    if not terms:
        return [], Fraction(0)
    den = lcm(*(c.denominator for c in terms.values()))
    # a Polynomial's exponents are distinct and its coefficients nonzero
    items = [(e, terms[e].numerator * (den // terms[e].denominator))
             for e in sorted(terms, key=order.descending)]
    items, content = kernel.active().make_primitive(items)
    return items, Fraction(content, den)


def _monic_from_raw(raw, variables):
    lc = raw[0][1]
    return Polynomial({e: Fraction(c, lc) for e, c in raw}, variables)


def buchberger(generators, order=None, until_finite=False):
    """Reduced Groebner basis of the ideal the generators span.

    Deterministic for a fixed generator list and order.  The ring is the
    first generator's; an empty list raises ValueError, and an all-zero one
    yields the zero ideal (no generators).

    With `until_finite`, the run stops as soon as the leads found so far
    hold a pure power of every variable (the constant 1 is one of each) and
    returns None: those leads already prove the quotient finite-dimensional.
    A run that ends without them returns the reduced basis as usual, whose
    staircase is then infinite.
    """
    order = order or MonomialOrder.grevlex()
    generators = list(generators)
    if not generators:
        raise ValueError("empty generator list: the ring is unknown")
    ascending = order.key
    variables = generators[0].variables
    raws = []
    for g in generators:
        if g.variables != variables:
            raise ValueError("generators live in different rings")
        raw, _ = _to_raw(g, order)
        if raw:
            raws.append(raw)
    # canonical input order: the reduced basis is unique, and a repeat reduces
    # to 0 against its first copy, but the pair schedule becomes reproducible
    impl = kernel.active()
    raws.sort(key=lambda raw: tuple((ascending(e), c) for e, c in raw))
    if not raws:
        return GroebnerBasis(order, variables, [])

    G = []
    alive = {}  # queued pair (i, j) -> lcm of the two leads
    heap = []
    powers = set()  # variables with a pure-power lead so far

    def lead(i):
        return G[i][0][0]

    def add_element(h):
        """Queue h's pairs and append it; True when until_finite may stop."""
        t = len(G)
        lm_h = h[0][0]
        candidates = sorted(
            ((i, tuple(map(max, lead(i), lm_h))) for i in range(t)),
            key=lambda item: (ascending(item[1]), item[0]))
        kept = []  # (index, lcm, coprime)
        for pos, (i, lcm_i) in enumerate(candidates):
            coprime = lcm_i == tuple(map(add, lead(i), lm_h))
            if coprime:
                kept.append((i, lcm_i, True))
                continue
            dominated = any(all(map(le, lcm_j, lcm_i))
                            for _, lcm_j in candidates[pos + 1:])
            if not dominated:
                dominated = any(all(map(le, lcm_j, lcm_i))
                                for _, lcm_j, _ in kept)
            if not dominated:
                kept.append((i, lcm_i, False))
        # chain criterion against the old queue
        # (each pair's test reads only its own leads and h, so the visiting
        # order does not matter)
        for (i, j), lcm_ij in list(alive.items()):
            if (all(map(le, lm_h, lcm_ij))
                    and tuple(map(max, lead(i), lm_h)) != lcm_ij
                    and tuple(map(max, lead(j), lm_h)) != lcm_ij):
                del alive[i, j]
        G.append(h)
        for i, lcm_i, coprime in kept:
            if coprime:
                continue  # Buchberger's first criterion
            alive[i, t] = lcm_i
            heappush(heap, (sum(lcm_i), ascending(lcm_i), i, t))
        support = [k for k, x in enumerate(lm_h) if x]
        if len(support) <= 1:
            powers.update(support or range(len(lm_h)))
        return until_finite and len(powers) == len(lm_h)

    for raw in raws:
        reduced, _, _ = impl.reduce_full(raw, G, order)
        if reduced and add_element(reduced):
            return None

    while heap:
        _, _, i, j = heappop(heap)
        if alive.pop((i, j), None) is None:
            continue
        s = impl.spoly(G[i], G[j])
        if not s:
            continue
        reduced, _, _ = impl.reduce_full(s, G, order)
        if reduced and add_element(reduced):
            return None

    # minimize: drop generators whose lead another lead divides
    by_lead = sorted(range(len(G)), key=lambda i: ascending(lead(i)))
    kept_idx = []
    for i in by_lead:
        if not any(all(map(le, lead(k), lead(i))) for k in kept_idx):
            kept_idx.append(i)
    minimal = [G[i] for i in kept_idx]
    # inter-reduce tails; leads survive because they are pairwise indivisible
    final = []
    for i, g in enumerate(minimal):
        others = minimal[:i] + minimal[i + 1:]
        if others:
            g, _, _ = impl.reduce_full(g, others, order)
        final.append(g)
    final.sort(key=lambda raw: ascending(raw[0][0]))
    return GroebnerBasis(order, variables, final)


def normal_form(p, basis):
    """Complete reduction of p modulo the basis: exact, unique remainder."""
    if tuple(p.variables) != basis.variables:
        raise ValueError("polynomial and basis live in different rings")
    raw, scale = _to_raw(p, basis.order)
    if not raw:
        return Polynomial.zero(basis.variables)
    impl = kernel.active()
    reduced, num, den = impl.reduce_full(raw, basis._raw, basis.order)
    factor = scale * Fraction(num, den)
    return Polynomial({e: factor * c for e, c in reduced}, basis.variables)


def staircase(basis):
    """The basis' staircase: its number of standard monomials, or None."""
    return _standard_monomials(basis.leading_exponents(), len(basis.variables))


def _standard_monomials(leads, nvars):
    """The number of monomials in nvars variables that no lead divides.

    The count does not depend on a monomial order, only on the leads.  It
    is infinite (size None) unless, for each variable, some lead divides a
    power of it; past the BASSINV_MAX_STAIRCASE cap StaircaseLimitError is
    raised.
    """
    return Staircase(kernel.active().enumerate_staircase(
        leads, nvars, _staircase_cap()))


def supported_only_at_origin(basis, dim):
    """True iff every variable is nilpotent modulo the ideal.

    For a finite-dimensional quotient this says the ideal's zero set is the
    origin alone.  `dim` is staircase(basis).size, which must be finite.

    The test reduces x_i^dim once per variable.  In the quotient A, the
    ideals x_i^k A of a nilpotent x_i shrink strictly until they reach 0,
    so its nilpotency index is at most dim; the normal form is unique, so
    x_i^dim lies in the ideal exactly when it reduces to 0.
    """
    if dim is None:
        raise ValueError("support test needs a finite-dimensional quotient")
    nvars = len(basis.variables)
    impl = kernel.active()
    for i in range(nvars):
        power = tuple(dim if j == i else 0 for j in range(nvars))
        if impl.reduce_full([(power, 1)], basis._raw, basis.order)[0]:
            return False
    return True
