"""Local length and support at the origin by Macaulay matrices.

An oracle for mu and tau that shares no code with the engine: no Groebner
basis, no kernel, and its own exact integer elimination (Macaulay 1916;
Mourrain, ISSAC 1997).  For generators G of an ideal I in n variables and
m the maximal ideal at the origin,

    d(N) = dim Q[x]/(I + m^N)
         = #monomials of degree < N - rank of the rows x^a*g truncated
           below degree N.

d is non-decreasing.  At the first N with d(N) = d(N+1), m^N lies in
I + m^(N+1), so Nakayama's lemma puts m^N in I*O_0, and d(N) is the length
of O_0/I*O_0.

The columns are the monomials sorted by degree, and each echelon row's pivot
is its least column.  Then every entry of a row has degree at least its
pivot's, so cutting the rows below degree N keeps exactly the rows whose
pivot has degree < N, and they stay independent: one elimination, cut at
degree T, gives d(N) for every N <= T.

The support claim needs no truncation: when every monomial of degree N is
in the span of the rows x^a*g of degree <= D, m^N lies in I, so the zero
set of I is the origin alone.
"""

from itertools import product
from math import comb, gcd, lcm
from operator import add


def _integer_terms(g):
    """g's terms as {exponent: int}, scaled by the lcm of the denominators."""
    terms = g.term_map()
    den = lcm(*(c.denominator for c in terms.values()))
    return {e: c.numerator * (den // c.denominator) for e, c in terms.items()}


def _primitive(row):
    g = gcd(*row.values())
    return {c: v // g for c, v in row.items()} if g != 1 else row


def _reduce(row, echelon):
    """Clear row's least columns with the echelon rows pivoted there.

    What is left is empty, or has a least column that no echelon row pivots
    on; the row is in the span of the echelon rows iff nothing is left.
    """
    while row:
        p = min(row)
        old = echelon.get(p)
        if old is None:
            break
        # old[p] * row - row[p] * old, both divided by their gcd
        s = gcd(row[p], old[p])
        keep, take = old[p] // s, row[p] // s
        row = {c: keep * v for c, v in row.items()}
        for c, v in old.items():
            x = row.get(c, 0) - take * v
            if x:
                row[c] = x
            else:
                del row[c]
        if row:
            row = _primitive(row)
    return row


def _echelon(rows):
    """{pivot column: primitive row} spanning the rows; a pivot is its
    row's least column."""
    rows = sorted(rows, key=min)  # low-order rows first keeps it sparse
    echelon = {}
    for row in rows:
        row = _reduce(row, echelon)
        if row:
            echelon[min(row)] = _primitive(row)
    return echelon


def _pivots_by_degree(generators, nvars, top):
    """How many echelon pivots fall in each degree < top."""
    monomials = sorted((e for e in product(range(top), repeat=nvars)
                        if sum(e) < top), key=lambda e: (sum(e), e))
    column = {e: i for i, e in enumerate(monomials)}
    rows = []
    for g in generators:
        for shift in monomials:
            row = {}
            for e, c in g.items():
                m = tuple(x + y for x, y in zip(shift, e))
                if m in column:
                    row[column[m]] = c
            if row:
                rows.append(row)
    echelon = _echelon(rows)
    counts = [0] * top
    for p in echelon:
        counts[sum(monomials[p])] += 1
    return counts


def local_length(generators, max_order=40):
    """Length of the origin-local factor of Q[x]/(generators).

    Raises ValueError when d(N) has not settled by N = max_order, as for an
    ideal whose local length is infinite.
    """
    nvars = len(generators[0].variables)
    gens = [_integer_terms(g) for g in generators if not g.is_zero()]
    top = 4
    while True:
        counts = _pivots_by_degree(gens, nvars, top)
        d = [comb(n + nvars - 1, nvars) - sum(counts[:n])
             for n in range(top + 1)]
        for n in range(top):
            if d[n] == d[n + 1]:
                return d[n]
        if top > max_order:
            raise ValueError(f"no stable d(N) up to N = {max_order}")
        top = min(top + top // 2, max_order + 1)


def maximal_power_in_span(generators, power, degree):
    """True iff every monomial of degree `power` is a Q-combination of the
    products x^a*g, g a generator, of total degree at most `degree`.

    The rows are not truncated, so a True answer puts m^power in the ideal
    I itself, not only in I*O_0: then every x_i is nilpotent modulo I, and
    the zero set of I lies in the origin.  False says only that this degree
    bound does not show it.
    """
    nvars = len(generators[0].variables)
    gens = [_integer_terms(g) for g in generators if not g.is_zero()]
    monomials = sorted((e for e in product(range(degree + 1), repeat=nvars)
                        if sum(e) <= degree), key=lambda e: (sum(e), e))
    column = {e: i for i, e in enumerate(monomials)}
    rows = []
    for g in gens:
        top = max(map(sum, g))
        for shift in monomials:
            if sum(shift) + top <= degree:
                rows.append({column[tuple(map(add, shift, e))]: c
                             for e, c in g.items()})
    echelon = _echelon(rows)
    return not any(_reduce({column[e]: 1}, echelon)
                   for e in monomials if sum(e) == power)
