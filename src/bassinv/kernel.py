"""The term-arithmetic kernel and the monomial orders it sorts by.

The operations that dominate a Buchberger run: complete fraction-free
reduction, S-polynomials, and staircase counting.  The engine looks the
kernel up through `active()` on every call, so a test or a tracer can
substitute a proxy (for counting or timing) by replacing `active`.

Data layout:

  * an exponent is a tuple of non-negative ints (fixed width per ideal);
  * a term list is [(exponent, int coefficient), ...] sorted descending in
    the monomial order, with no zero coefficients;
  * basis elements additionally have positive leading coefficient.

Coefficients and exponents are plain Python ints (exact, arbitrary
precision); scaling by rationals is tracked separately so reductions stay
fraction-free.

Per-term work runs in C-level builtins: exponent arithmetic is `map` over
the `operator` functions, and the reduction heap uses the order's
`descending` key, built once per order from slices and sums.  Only
reduce_full orders terms: an S-polynomial is an unsorted dict that
reduce_full takes as it is.  Staircases are counted by adding whole runs
along the last variable, with no monomial built; a staircase without a pure
power of some variable among its leads is infinite and is not walked (see
enumerate_staircase).
"""

import sys
from dataclasses import dataclass
from functools import cached_property
from heapq import heapify, heappop, heappush
from math import gcd
from operator import add, le, mul, neg, sub

from .errors import StaircaseLimitError


def active():
    """The kernel module, looked up by the engine at each call."""
    return sys.modules[__name__]


def backend_name():
    """The kernel's name, as the benchmark reports it."""
    return "python"


def available_backends():
    return [backend_name()]


@dataclass(frozen=True)
class MonomialOrder:
    """Total multiplicative well-order on monomials.

    kind is one of "grevlex", "lex", "weighted"; weighted orders compare the
    weighted degree first and break ties by grevlex.  `key` and `descending`
    are the order's two sort keys on exponent tuples, built once per order.
    """

    kind: str
    weights: tuple = None

    @classmethod
    def grevlex(cls):
        return cls("grevlex")

    @classmethod
    def lex(cls):
        return cls("lex")

    @classmethod
    def weighted(cls, weights):
        weights = tuple(int(w) for w in weights)
        if any(w <= 0 for w in weights):
            raise ValueError("weights must be positive")
        return cls("weighted", weights)

    def __reduce__(self):
        # pickle the fields only: the cached sort keys are lambdas
        return type(self), (self.kind, self.weights)

    @cached_property
    def key(self):
        """Key whose tuples sort ascending in the order: the exponents for
        lex; otherwise (weighted degree,) degree, then the negated exponents
        from the last one."""
        if self.kind == "grevlex":
            return lambda e: (sum(e), *map(neg, e[::-1]))
        if self.kind == "lex":
            return tuple
        if self.kind == "weighted":
            weights = self.weights
            return lambda e: (sum(map(mul, weights, e)), sum(e),
                              *map(neg, e[::-1]))
        raise ValueError(f"unknown order kind {self.kind!r}")

    @cached_property
    def descending(self):
        """Key that sorts exponents descending in the order.

        It compares like the negated `key`.  Where `key` lists the exponents
        from the last one, negated, this key holds them as one reversed
        tuple, which is what negating those entries gives back.
        """
        if self.kind == "grevlex":
            return lambda e: (-sum(e), e[::-1])
        if self.kind == "lex":
            return lambda e: tuple(map(neg, e))
        if self.kind == "weighted":
            weights = self.weights
            return lambda e: (-sum(map(mul, weights, e)), -sum(e), e[::-1])
        raise ValueError(f"unknown order kind {self.kind!r}")


def make_primitive(terms):
    """Divide by the signed content so gcd = 1 and the lead is positive.

    Returns (primitive_terms, content) with original = content * primitive.
    """
    if not terms:
        return terms, 0
    g = 0
    for _, c in terms:
        g = gcd(g, c)
        if g == 1:
            break
    if terms[0][1] < 0:
        g = -g
    if g == 1:
        return terms, 1
    return [(e, c // g) for e, c in terms], g


def reduce_full(terms, basis, order):
    """Complete normal form of `terms` against `basis`, fraction-free.

    `terms` is a term list or an {exponent: coefficient} dict in any order.
    Returns (reduced, num, den): the exact normal form of the input equals
    (num/den) * reduced, `reduced` is primitive with positive lead (or
    empty), and no term of `reduced` is divisible by any basis lead.

    Terms are taken largest first and each is reduced by the first basis
    element whose lead divides it.  A reduction only touches smaller terms,
    so the terms kept come out in descending order.
    """
    key = order.descending
    poly = dict(terms)
    heap = [(key(e), e) for e in poly]
    heapify(heap)
    leads = [(b[0][0], b[0][1], b) for b in basis]
    kept = {}  # normal-form terms in descending order
    sd = 1
    while heap:
        e = heappop(heap)[1]
        c = poly.pop(e, 0)
        if not c:
            continue
        for lead, lc, b in leads:
            if all(map(le, lead, e)):
                break
        else:
            kept[e] = c  # term is in normal form; keep it and move on
            continue
        g = gcd(c, lc)
        scale = lc // g   # positive: basis leads are positive
        mult = c // g
        if scale != 1:
            for k in poly:
                poly[k] *= scale
            for k in kept:
                kept[k] *= scale
            sd *= scale
        # the lead cancels e exactly: only the tail lands in poly
        u = tuple(map(sub, e, lead))
        for be, bc in b[1:]:
            ne = tuple(map(add, be, u))
            old = poly.get(ne)
            if old is None:
                poly[ne] = -mult * bc
                heappush(heap, (key(ne), ne))
            else:
                nv = old - mult * bc
                if nv:
                    poly[ne] = nv
                else:
                    del poly[ne]
    if not kept:
        return [], 1, sd
    items, content = make_primitive(list(kept.items()))
    g = gcd(content, sd)
    return items, content // g, sd // g


def spoly(f, g):
    """S-polynomial of two nonzero term lists: an unsorted {exponent:
    coefficient} dict, not made primitive, whose leads were scaled to
    lc(f)*lc(g)/gcd(lc(f), lc(g)) and cancelled."""
    fe, fc = f[0]
    ge, gc = g[0]
    lcm = tuple(map(max, fe, ge))
    h = gcd(fc, gc)
    a = gc // h
    b = fc // h
    uf = tuple(map(sub, lcm, fe))
    ug = tuple(map(sub, lcm, ge))
    # the two leads cancel; the tails of f and of g have distinct exponents
    acc = {tuple(map(add, e, uf)): a * c for e, c in f[1:]}
    for e, c in g[1:]:
        ne = tuple(map(add, e, ug))
        v = acc.get(ne, 0) - b * c
        if v:
            acc[ne] = v
        else:
            del acc[ne]
    return acc


def enumerate_staircase(lead_exps, nvars, cap):
    """The number of standard monomials below the staircase of `lead_exps`,
    or None when it is infinite.

    It is finite exactly when, for each variable, some lead is a pure power
    of it (the constant 1 is a pure power of every variable); that is
    checked before the walk, so an infinite staircase never meets the cap.

    The walk fixes exponents from the first variable on, in runs: below a
    prefix p of the first k exponents, the standard values of the k-th are
    0, ..., r-1, where r is the smallest k-th exponent among the leads
    whose first k exponents divide p and whose exponents after the k-th are
    all 0.  Leads are filtered as the prefix grows, each kept only while
    its first k exponents divide p; at the last variable a run is the whole
    column of r standard monomials above p, and is added to the count as a
    whole.  Those pure powers make every r finite, so the walk ends.  It
    costs O(prefixes x leads), not O(monomials x n x leads).

    Raises StaircaseLimitError when more than `cap` monomials appear (the
    origin, 1, is never counted against the cap).
    """
    for lead in lead_exps:
        if not any(lead):
            return 0  # unit ideal
    if not nvars:
        return 1
    last = nvars - 1
    # (lead, index of its last nonzero exponent)
    leads = [(lead, max(i for i, x in enumerate(lead) if x))
             for lead in lead_exps]
    if len({top for lead, top in leads if not any(lead[:top])}) < nvars:
        return None  # some variable has no pure power: infinite
    limit = max(cap, 1)

    def walk(k, leads, count):
        r = min(lead[k] for lead, top in leads if top == k)
        if k == last:
            if count + r > limit:
                raise StaircaseLimitError.over(cap)
            return count + r
        for j in range(r):
            count = walk(k + 1, [t for t in leads if t[0][k] <= j], count)
        return count

    return walk(0, leads, 0)
