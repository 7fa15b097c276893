"""Pure-Python term-arithmetic kernel.

This is the reference implementation of the operations that dominate a
Buchberger run: complete fraction-free reduction, S-polynomials, and
staircase enumeration.  `bassinv._core_cy` is a compiled drop-in with the
same contracts; `bassinv.kernel` picks one at import time.

Data layout shared by both kernels:

  * an exponent is a tuple of non-negative ints (fixed width per ideal);
  * a term list is [(exponent, int coefficient), ...] sorted descending in
    the active monomial order, with no zero coefficients;
  * basis elements additionally have positive leading coefficient.

Coefficients are plain Python ints (exact, arbitrary precision); scaling by
rationals is tracked separately so reductions stay fraction-free.

Per-term work runs in C-level builtins: exponent arithmetic is `map` over
the `operator` functions, and sorts and the reduction heap use a key built
once per call (`_descending_key`) from slices and sums.  Staircases are
walked in runs along the last variable instead of monomial by monomial; the
walk ends because the caller guarantees a pure power of every variable
among the leads (see enumerate_staircase).
"""

from heapq import heapify, heappop, heappush
from math import gcd
from operator import add, le, mul, neg, sub

from .errors import StaircaseLimitError

BACKEND = "python"

GREVLEX = 0
LEX = 1
WGREVLEX = 2
WLEX = 3


def order_key(exp, kind, weights):
    """Tuple that sorts ascending in the monomial order."""
    if kind == GREVLEX:
        return (sum(exp), *map(neg, exp[::-1]))
    if kind == LEX:
        return tuple(exp)
    wd = sum(map(mul, weights, exp))
    if kind == WGREVLEX:
        return (wd, sum(exp), *map(neg, exp[::-1]))
    if kind == WLEX:
        return (wd, *exp)
    raise ValueError(f"unknown order kind {kind}")


def _descending_key(kind, weights):
    """Key that sorts exponents descending in the order.

    It compares like the negated order_key.  Where order_key lists the
    exponents from the last one, negated, this key holds them as one
    reversed tuple, which is what negating those entries gives back.
    """
    if kind == GREVLEX:
        return lambda e: (-sum(e), e[::-1])
    if kind == LEX:
        return lambda e: tuple(map(neg, e))
    if kind == WGREVLEX:
        return lambda e: (-sum(map(mul, weights, e)), -sum(e), e[::-1])
    return lambda e: tuple(map(neg, order_key(e, kind, weights)))


def exp_divides(a, b):
    return all(map(le, a, b))


def exp_add(a, b):
    return tuple(map(add, a, b))


def exp_sub(a, b):
    return tuple(map(sub, a, b))


def exp_lcm(a, b):
    return tuple(map(max, a, b))


def sort_terms(pairs, kind, weights):
    """Combine duplicate exponents, drop zeros, sort descending."""
    acc = {}
    for e, c in pairs:
        v = acc.get(e, 0) + c
        if v:
            acc[e] = v
        else:
            acc.pop(e, None)
    return [(e, acc[e]) for e in sorted(acc, key=_descending_key(kind,
                                                                 weights))]


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


def reduce_full(terms, basis, kind, weights):
    """Complete normal form of `terms` against `basis`, fraction-free.

    Returns (reduced, num, den): the exact normal form of the input equals
    (num/den) * reduced, `reduced` is primitive with positive lead (or
    empty), and no term of `reduced` is divisible by any basis lead.

    Terms are taken largest first and each is reduced by the first basis
    element whose lead divides it.  A reduction only touches smaller terms,
    so the terms kept come out in descending order.
    """
    key = _descending_key(kind, weights)
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


def spoly(f, g, kind, weights):
    """Primitive S-polynomial of two nonzero term lists."""
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
    items = [(e, acc[e]) for e in sorted(acc, key=_descending_key(kind,
                                                                  weights))]
    items, _ = make_primitive(items)
    return items


def enumerate_staircase(lead_exps, nvars, cap, kind, weights):
    """All standard monomials below the staircase of `lead_exps`.

    Output sorted ascending in the order.  The walk fixes exponents from
    the first variable on, in runs: below a prefix p of the first k
    exponents, the standard values of the k-th are 0, ..., r-1, where r is
    the smallest k-th exponent among the leads whose first k exponents
    divide p and whose exponents after the k-th are all 0.  Leads are
    filtered as the prefix grows, each kept only while its first k
    exponents divide p; at the last variable a run is the whole column of
    standard monomials above p.  The caller guarantees a pure power of every
    variable among the leads, so every r is finite and the walk ends.  It
    costs O(prefixes x leads), not O(monomials x n x leads).

    Raises StaircaseLimitError when more than `cap` monomials appear (the
    origin, 1, is never counted against the cap).
    """
    for lead in lead_exps:
        if not any(lead):
            return []  # unit ideal
    if not nvars:
        return [()]
    last = nvars - 1
    # (lead, index of its last nonzero exponent)
    leads = [(lead, max(i for i, x in enumerate(lead) if x))
             for lead in lead_exps]
    limit = max(cap, 1)
    out = []

    def walk(prefix, leads):
        k = len(prefix)
        r = min(lead[k] for lead, top in leads if top == k)
        if k == last:
            if len(out) + r > limit:
                raise StaircaseLimitError(
                    f"staircase exceeds the enumeration cap ({cap}); "
                    f"raise BASSINV_MAX_STAIRCASE to allow larger quotients")
            out.extend([prefix + (j,) for j in range(r)])
            return
        for j in range(r):
            walk(prefix + (j,), [t for t in leads if t[0][k] <= j])

    walk((), leads)
    out.sort(key=_descending_key(kind, weights), reverse=True)
    return out
