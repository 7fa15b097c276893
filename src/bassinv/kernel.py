"""The term-arithmetic kernel and the monomial orders it sorts by.

The operations that dominate a Buchberger run (complete fraction-free
reduction, S-polynomials, staircase counting) and the packed-monomial format
they work on, which no other module encodes or decodes.  The engine calls
those three, reduce_full, spoly and enumerate_staircase, through `active()`,
which returns this module, so that the benchmark's tracer can count them by
replacing it; the rest it calls directly.

Data layout:

  * a monomial is one int, its exponent vector packed by the computation's
    `Packing` (Bachmann-Schoenemann, ISSAC 1998), so that integer order is
    the monomial order;
  * a term list is [(packed monomial, int coefficient), ...] sorted
    descending, with no zero coefficients;
  * basis elements additionally have positive leading coefficient.

A packing gives each of the n exponents a field of `width` bits with a
guard bit above it, all guard bits forming the mask G.  For lex the fields
hold the exponents, the first variable highest.  For grevlex they hold
top - e_i, with top = 2^width - 1 and the last variable highest, under the
total degree; a weighted order puts the weighted degree above that.
Packing is affine in the exponents, so multiplying by a monomial is adding
the difference of two packed ints.  With sign s = 1 for lex and -1 for the
negated fields, a divides b exactly when s*(b - a) & G == 0: the fields of
s*(b - a) hold the exponent differences, and the lowest negative one, the
first to borrow, sets its guard bit.

Widening: an exponent that outgrows its field, to at most twice the top,
sets the field's guard bit.  reduce_full raises _Overflow when it pops
such a monomial, and the engine reruns the computation at twice the width.
So the engine picks a packing per computation, with width one bit more
than its inputs' largest exponent needs, packs once on the way in and
unpacks once on the way out.

Coefficients are plain Python ints (exact, arbitrary precision); scaling by
rationals is tracked separately so reductions stay fraction-free.  Only
reduce_full orders terms: an S-polynomial is an unsorted dict that
reduce_full takes as it is.  Staircases are counted on exponent tuples,
with no monomial built: the columns along the last variable are swept in
blocks of equal height, each added at once; a staircase without a pure
power of some variable among its leads is infinite and is not walked (see
enumerate_staircase).
"""

import sys
from collections import namedtuple
from heapq import heapify, heappop, heappush
from math import gcd
from operator import mul

from .errors import StaircaseLimitError


def active():
    """This module: the engine makes its three counted calls through it."""
    return sys.modules[__name__]


def backend_name():
    """The kernel's name, as the benchmark reports it."""
    return "python"


def available_backends():
    return [backend_name()]


class MonomialOrder(namedtuple("MonomialOrder", "kind weights",
                               defaults=(None,))):
    """Total multiplicative well-order on monomials.

    kind is one of "grevlex", "lex", "weighted"; weighted orders compare the
    weighted degree first and break ties by grevlex.  A `Packing` of the
    order is its one definition on exponent vectors.
    """

    __slots__ = ()

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


class _Overflow(Exception):
    """A packed exponent outgrew its field: rerun at twice the width."""


class Packing:
    """Exponent vectors of n variables as ints ordered by `order`, each
    exponent in a field of `width` bits (see the module docstring).

    `top` is the largest exponent a field holds, `guard` the mask G of the
    guard bits, `sign` the s of the divisibility test and `one` the packed
    monomial 1.
    """

    __slots__ = ("top", "guard", "sign", "shifts", "scales", "one")

    def __init__(self, order, nvars, width):
        stride = width + 1
        top = self.top = (1 << width) - 1
        # 1 in the lowest bit of each field: a geometric series in 2^stride
        unit = ((1 << nvars * stride) - 1) // ((1 << stride) - 1)
        self.guard = unit << width
        if order.kind == "lex":
            self.sign, self.one = 1, 0
            self.shifts = list(range((nvars - 1) * stride, -1, -stride))
            self.scales = [1 << s for s in self.shifts]
            return
        self.sign, self.one = -1, top * unit
        self.shifts = list(range(0, nvars * stride, stride))
        degree = 1 << nvars * stride
        if order.kind == "grevlex":
            weighted = [degree] * nvars
        elif order.kind == "weighted":
            if len(order.weights) != nvars:
                raise ValueError(f"{len(order.weights)} weights for "
                                 f"{nvars} variables")
            above = degree << (nvars * top).bit_length()
            weighted = [w * above + degree for w in order.weights]
        else:
            raise ValueError(f"unknown order kind {order.kind!r}")
        self.scales = [d - (1 << s) for d, s in zip(weighted, self.shifts)]

    def pack(self, e):
        """The packed monomial of an exponent vector whose entries fit."""
        return self.one + sum(map(mul, e, self.scales))

    def unpack(self, p):
        top = self.top
        if self.sign < 0:
            return tuple(top - (p >> s & top) for s in self.shifts)
        return tuple(p >> s & top for s in self.shifts)

    def pack_terms(self, terms):
        return [(self.pack(e), c) for e, c in terms]

    def unpack_terms(self, terms):
        return [(self.unpack(p), c) for p, c in terms]

    def divides(self, a, b):
        """Whether packed monomial a divides packed monomial b."""
        return not self.sign * (b - a) & self.guard


def partials(terms, packing):
    """The nonzero partial derivatives, by each variable in turn, of the
    primitive term list `terms`, as primitive term lists packed as it is.

    The partial by x_i of a term c*x^e with e_i > 0 is c*e_i*x^(e - 1_i),
    whose packed monomial is p - scales[i] since packing is affine; e_i is
    read from its field.  Dividing by x_i keeps a multiplicative order, so
    each partial stays sorted.
    """
    top = packing.top
    # lex fields hold e_i, the others top - e_i, which is top ^ e_i
    flip = 0 if packing.sign > 0 else top
    out = []
    for shift, scale in zip(packing.shifts, packing.scales):
        partial = [(p - scale, c * k) for p, c in terms
                   if (k := (p >> shift & top) ^ flip)]
        if partial:
            out.append(make_primitive(partial)[0])
    return out


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


def reduce_full(terms, basis, packing):
    """Complete normal form of `terms` against `basis`, fraction-free.

    `terms` is a term list or a {monomial: coefficient} dict in any order,
    packed by `packing` as the basis is.  Returns (reduced, num, den): the
    exact normal form of the input equals (num/den) * reduced, `reduced` is
    primitive with positive lead (or empty), and no term of `reduced` is
    divisible by any basis lead.  Raises _Overflow when a monomial outgrows
    the packing.

    Terms are taken largest first and each is reduced by the first basis
    element whose lead divides it.  A reduction only touches smaller terms,
    so the terms kept come out in descending order.
    """
    guard, sign = packing.guard, packing.sign
    poly = dict(terms)
    heap = [-e for e in poly]  # a min-heap of negated monomials
    heapify(heap)
    # the lead divides e when (sign * e - key) & guard is 0
    leads = [(sign * b[0][0], b[0][0], b[0][1], b[1:]) for b in basis]
    kept = {}  # normal-form terms in descending order
    sd = 1
    while heap:
        e = -heappop(heap)
        if e & guard:
            raise _Overflow
        c = poly.pop(e, 0)
        if not c:
            continue
        t = sign * e
        for key, lead, lc, tail in leads:
            if not (t - key) & guard:
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
        u = e - lead
        for be, bc in tail:
            ne = be + u
            old = poly.get(ne)
            if old is None:
                poly[ne] = -mult * bc
                heappush(heap, -ne)
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


def spoly(f, g, lcm):
    """S-polynomial of two nonzero packed term lists, given the packed lcm
    of their leads (the pair queue holds it): an unsorted {monomial:
    coefficient} dict, not made primitive, whose leads were scaled to
    lc(f)*lc(g)/gcd(lc(f), lc(g)) and cancelled."""
    fe, fc = f[0]
    ge, gc = g[0]
    h = gcd(fc, gc)
    a = gc // h
    b = fc // h
    uf = lcm - fe
    ug = lcm - ge
    # the two leads cancel; the tails of f and of g have distinct monomials
    acc = {e + uf: a * c for e, c in f[1:]}
    for e, c in g[1:]:
        ne = e + ug
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
    its first k exponents divide p.  Those pure powers make every r finite,
    so the walk ends.  At the second-to-last variable it does not recurse
    into the last one but sweeps its r columns, adding each block of equal
    columns at once (see sweep).  It costs one sort of the leads per prefix
    of the first n-2 exponents, not O(monomials x n x leads).

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

    def sweep(k, r, leads, count):
        """count plus the columns j < r of the second-to-last exponent k.
        Column j is as high as the smallest last exponent among the leads
        ending in the last variable with k-th exponent at most j, which
        changes only at such a k-th exponent.  The count only grows, so a
        cap check per block of equal columns refuses what one per column
        would."""
        pairs = sorted((lead[k], lead[last])
                       for lead, top in leads if top == last)
        # the pure power of the last variable comes first, with e_k = 0
        run = pairs[0][1]
        j = 0
        for e_k, e_last in pairs:
            if e_k >= r:
                break
            if e_k > j:
                count += run * (e_k - j)
                if count > limit:
                    raise StaircaseLimitError.over(cap)
                j = e_k
            run = min(run, e_last)
        count += run * (r - j)
        if count > limit:
            raise StaircaseLimitError.over(cap)
        return count

    def walk(k, leads, count):
        r = min(lead[k] for lead, top in leads if top == k)
        if k == last:  # one variable: a single column
            if count + r > limit:
                raise StaircaseLimitError.over(cap)
            return count + r
        if k == last - 1:
            return sweep(k, r, leads, count)
        for j in range(r):
            count = walk(k + 1, [t for t in leads if t[0][k] <= j], count)
        return count

    return walk(0, leads, 0)
